"""Paper claim C1 (section II.A): native qutrits tolerate 10-100x more noise.

``compare_encodings`` bisects the tolerable per-gate depolarising error of
the native-qutrit and the binary-qubit encoding of a qutrit rotor chain
on the exact density engine, so the thresholds are deterministic.
"""

import pytest

from repro.sqed import RotorChain, compare_encodings


@pytest.fixture(scope="module")
def comparison():
    chain = RotorChain(3, spin=1, g2=1.0, hopping=0.3)
    return compare_encodings(
        chain, damage_tol=0.1, t_total=3.0, n_steps=8, bisection_steps=4
    )


def test_threshold_ratio_in_paper_band(comparison):
    assert 10.0 <= comparison.threshold_ratio <= 100.0


def test_thresholds_pinned(comparison):
    assert comparison.qudit_threshold == pytest.approx(
        0.018258706362741885, rel=1e-9
    )
    assert comparison.qubit_threshold == pytest.approx(
        0.00037494710466622793, rel=1e-9
    )


def test_qubit_encoding_needs_far_more_entanglers(comparison):
    assert (
        comparison.qubit_cnots_per_step
        > 10 * comparison.qudit_entangling_per_step
    )
