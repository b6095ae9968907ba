"""Tests for the density-matrix simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import DensityMatrix, QuditCircuit, Statevector, gates
from repro.core.channels import dephasing, depolarizing, photon_loss
from repro.core.density import DensityPlan
from repro.core.exceptions import DimensionError
from repro.core.random_ops import (
    haar_unitary,
    random_density_matrix,
    random_statevector,
)
from repro.core.statevector import embed_unitary


def _oracle_kraus(instruction, dims):
    """Kraus family of one instruction, independent of the engine."""
    if instruction.kind == "unitary":
        return [instruction.matrix]
    if instruction.kind == "channel":
        return list(instruction.kraus)
    if instruction.kind == "reset":
        d = dims[instruction.qudits[0]]
        basis = np.eye(d)
        return [np.outer(basis[0], basis[k]) for k in range(d)]
    return []  # measure markers leave rho unchanged


def _oracle_evolve(rho, dims, circuit):
    """Full-register ``sum_k K_k rho K_k†``, one instruction at a time."""
    for instruction in circuit:
        ops = _oracle_kraus(instruction, dims)
        if not ops:
            continue
        full = [embed_unitary(op, dims, instruction.qudits) for op in ops]
        rho = sum(k @ rho @ k.conj().T for k in full)
    return rho


def _bell_circuit(d=3):
    qc = QuditCircuit([d, d])
    qc.fourier(0)
    qc.csum(0, 1)
    return qc


class TestConstructors:
    def test_zero(self):
        dm = DensityMatrix.zero([3, 3])
        assert abs(dm.matrix[0, 0] - 1.0) < 1e-12
        assert abs(dm.trace() - 1.0) < 1e-12

    def test_from_statevector_purity(self):
        rng = np.random.default_rng(0)
        sv = Statevector(random_statevector(9, rng), [3, 3])
        dm = DensityMatrix.from_statevector(sv)
        assert abs(dm.purity() - 1.0) < 1e-10

    def test_maximally_mixed(self):
        dm = DensityMatrix.maximally_mixed([3, 3])
        assert abs(dm.purity() - 1.0 / 9.0) < 1e-12

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            DensityMatrix(np.eye(8), [3, 3])


class TestUnitaryEvolution:
    def test_matches_statevector(self):
        qc = _bell_circuit()
        dm = DensityMatrix.zero([3, 3]).evolve(qc)
        sv = Statevector.zero([3, 3]).evolve(qc)
        np.testing.assert_allclose(
            dm.matrix, np.outer(sv.vector, sv.vector.conj()), atol=1e-10
        )

    def test_apply_unitary_on_second_wire(self):
        dm = DensityMatrix.zero([2, 3]).apply_unitary(gates.weyl_x(3), 1)
        assert abs(dm.matrix[1, 1] - 1.0) < 1e-12

    def test_purity_preserved(self):
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        assert abs(dm.purity() - 1.0) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            DensityMatrix.zero([3, 4]).evolve(_bell_circuit())


class TestChannelEvolution:
    def test_depolarizing_reduces_purity(self):
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        noisy = dm.apply_channel(depolarizing(3, 0.2), 0)
        assert noisy.purity() < dm.purity()
        assert abs(noisy.trace() - 1.0) < 1e-10

    def test_channel_instruction_in_circuit(self):
        qc = _bell_circuit()
        qc.channel(depolarizing(3, 0.2).kraus, 0, name="depol")
        dm = DensityMatrix.zero([3, 3]).evolve(qc)
        assert dm.purity() < 1.0
        assert abs(dm.trace() - 1.0) < 1e-10

    def test_photon_loss_on_one_mode(self):
        """Loss on one mode of |2,2> lowers only that mode's mean photon."""
        dm = DensityMatrix.basis([4, 4], (2, 2))
        noisy = dm.apply_channel(photon_loss(4, 0.5), 0)
        n0 = np.real(np.trace(noisy.partial_trace([0]) @ gates.number_op(4)))
        n1 = np.real(np.trace(noisy.partial_trace([1]) @ gates.number_op(4)))
        assert abs(n0 - 1.0) < 1e-10
        assert abs(n1 - 2.0) < 1e-10

    def test_dephasing_kills_bell_coherence(self):
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        heavy = dm
        for _ in range(40):
            heavy = heavy.apply_channel(dephasing(3, 0.5), 0)
        # Off-diagonal Bell coherences vanish; populations survive.
        assert abs(heavy.matrix[0, 4]) < 1e-6
        assert abs(heavy.matrix[0, 0] - 1.0 / 3.0) < 1e-10

    def test_reset_instruction(self):
        qc = QuditCircuit([3])
        qc.x(0)
        qc.reset(0)
        dm = DensityMatrix.zero([3]).evolve(qc)
        assert abs(dm.matrix[0, 0] - 1.0) < 1e-10


class TestObservables:
    def test_expectation_global(self):
        dm = DensityMatrix.maximally_mixed([2, 2])
        op = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        assert abs(dm.expectation(op) - 1.5) < 1e-12

    def test_expectation_local(self):
        dm = DensityMatrix.basis([3, 4], (1, 3))
        assert abs(dm.expectation(gates.number_op(4), 1) - 3.0) < 1e-12

    def test_expectation_global_shape_check(self):
        dm = DensityMatrix.zero([3, 3])
        with pytest.raises(DimensionError):
            dm.expectation(np.eye(3))

    def test_fidelity_with_pure(self):
        qc = _bell_circuit()
        sv = Statevector.zero([3, 3]).evolve(qc)
        dm = DensityMatrix.zero([3, 3]).evolve(qc)
        assert abs(dm.fidelity_with_pure(sv) - 1.0) < 1e-10

    def test_fidelity_degrades_with_noise(self):
        qc = _bell_circuit()
        sv = Statevector.zero([3, 3]).evolve(qc)
        dm = DensityMatrix.zero([3, 3]).evolve(qc)
        noisy = dm.apply_channel(depolarizing(3, 0.3), 0)
        assert noisy.fidelity_with_pure(sv) < 1.0

    def test_probability_of(self):
        dm = DensityMatrix.basis([3, 3], (2, 1))
        assert abs(dm.probability_of((2, 1)) - 1.0) < 1e-12
        assert dm.probability_of((0, 0)) < 1e-12


class TestPartialTrace:
    def test_bell_reduction_maximally_mixed(self):
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        np.testing.assert_allclose(dm.partial_trace([0]), np.eye(3) / 3, atol=1e-10)

    def test_keep_order(self):
        dm = DensityMatrix.basis([2, 3], (1, 2))
        rho = dm.partial_trace([1, 0])  # dims (3, 2), state |2,1>
        assert abs(rho[2 * 2 + 1, 2 * 2 + 1] - 1.0) < 1e-10

    def test_trace_preserved(self):
        dm = DensityMatrix.maximally_mixed([2, 3, 2])
        assert abs(np.trace(dm.partial_trace([1])) - 1.0) < 1e-10


class TestSampling:
    def test_sample_bell_correlations(self):
        rng = np.random.default_rng(1)
        dm = DensityMatrix.zero([3, 3]).evolve(_bell_circuit())
        counts = dm.sample(300, rng=rng)
        assert all(a == b for (a, b) in counts)
        assert sum(counts.values()) == 300


class TestStructuredChannelFastPath:
    """The vectorised block kernels agree with the full-matrix oracle."""

    def _reference_evolve(self, dims, circuit):
        rho = DensityMatrix.zero(dims).matrix
        return DensityMatrix(_oracle_evolve(rho, dims, circuit), dims)

    def test_all_diagonal_channel_single_multiply(self):
        dims = (3, 4)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 1)
        qc.channel(dephasing(4, 0.3).kraus, 1, name="deph")
        rng = np.random.default_rng(0)
        diag_a = np.sqrt(0.6) * np.exp(1j * rng.uniform(0, 1, 12))
        diag_b = np.sqrt(0.4) * np.exp(1j * rng.uniform(0, 1, 12))
        qc.channel([np.diag(diag_a), np.diag(diag_b)], (0, 1), name="diag2")
        fast = DensityMatrix.zero(dims).evolve(qc)
        reference = self._reference_evolve(dims, qc)
        np.testing.assert_allclose(fast.matrix, reference.matrix, atol=1e-12)
        assert abs(fast.trace() - 1.0) < 1e-10

    def test_mixed_structure_channels_match(self):
        dims = (3, 2, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.csum(0, 2)
        qc.channel(depolarizing(3, 0.25).kraus, 0, name="depol")  # monomial ops
        qc.channel(photon_loss(3, 0.35).kraus, 2, name="loss")  # column-sparse
        qc.channel(dephasing(2, 0.2).kraus, 1, name="deph")  # diagonal
        fast = DensityMatrix.zero(dims).evolve(qc)
        reference = self._reference_evolve(dims, qc)
        np.testing.assert_allclose(fast.matrix, reference.matrix, atol=1e-12)

    def test_unsorted_targets_diagonal_channel(self):
        """Broadcast path handles ket/bra target axes in any wire order."""
        dims = (2, 3)
        qc = QuditCircuit(dims)
        qc.fourier(0)
        qc.fourier(1)
        rng = np.random.default_rng(3)
        diag_a = np.sqrt(0.7) * np.exp(1j * rng.uniform(0, 1, 6))
        diag_b = np.sqrt(0.3) * np.exp(1j * rng.uniform(0, 1, 6))
        qc.channel([np.diag(diag_a), np.diag(diag_b)], (1, 0), name="diag-rev")
        fast = DensityMatrix.zero(dims).evolve(qc)
        reference = self._reference_evolve(dims, qc)
        np.testing.assert_allclose(fast.matrix, reference.matrix, atol=1e-12)

    def test_kraus_structures_drive_dispatch(self):
        qc = QuditCircuit([3])
        qc.channel(dephasing(3, 0.4).kraus, 0, name="deph")
        structures = qc.instructions[0].kraus_structures()
        assert all(s.kind == "diagonal" for s in structures)


# ----------------------------------------------------------------------
# compiled execution plan: oracle and property tests
# ----------------------------------------------------------------------
def _diagonal_unitary(d, rng):
    return np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)))


def _permutation_unitary(d, rng):
    perm = rng.permutation(d)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, d))
    return np.eye(d)[perm] * phases[:, None]


def _random_instruction(qc, rng):
    """Append one random op: unitary, channel, reset or measure."""
    n = qc.num_qudits
    width = int(rng.integers(1, min(n, 2) + 1))
    # Unsorted and (for n >= 3) often non-contiguous targets.
    wires = tuple(int(w) for w in rng.choice(n, size=width, replace=False))
    d = int(np.prod([qc.dims[w] for w in wires]))
    kind = int(rng.integers(8))
    if kind == 0:
        qc.unitary(haar_unitary(d, rng), wires)
    elif kind == 1:
        qc.unitary(_diagonal_unitary(d, rng), wires)
    elif kind == 2:
        qc.unitary(_permutation_unitary(d, rng), wires)
    elif kind == 3:
        if d > 9:  # keep the oracle's d^2 - 1 full-register products cheap
            wires, d = wires[:1], qc.dims[wires[0]]
        qc.channel(depolarizing(d, float(rng.uniform(0, 0.5))).kraus, wires)
    elif kind == 4:
        wire = wires[0]
        qc.channel(photon_loss(qc.dims[wire], float(rng.uniform(0, 1))).kraus, wire)
    elif kind == 5:
        qc.channel(dephasing(d, float(rng.uniform(0, 1))).kraus, wires)
    elif kind == 6:
        qc.reset(wires[0])
    else:
        qc.measure(wires)


register_dims = st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=4)


class TestCompiledPlanOracle:
    """The compiled plan matches an independent full-matrix evolution."""

    @settings(max_examples=60, deadline=None)
    @given(
        dims=register_dims,
        n_ops=st.integers(min_value=1, max_value=14),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_circuit_matches_oracle(self, dims, n_ops, seed):
        rng = np.random.default_rng(seed)
        qc = QuditCircuit(dims)
        for _ in range(n_ops):
            _random_instruction(qc, rng)
        dim = int(np.prod(dims))
        rho = random_density_matrix(dim, rng=rng)
        out = DensityMatrix(rho, dims).evolve(qc)
        reference = _oracle_evolve(rho, tuple(dims), qc)
        np.testing.assert_allclose(out.matrix, reference, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(dims=register_dims, seed=st.integers(min_value=0, max_value=2**31))
    def test_public_applies_match_oracle(self, dims, seed):
        rng = np.random.default_rng(seed)
        qc = QuditCircuit(dims)
        _random_instruction(qc, rng)
        instruction = qc.instructions[0]
        dim = int(np.prod(dims))
        rho = random_density_matrix(dim, rng=rng)
        state = DensityMatrix(rho, dims)
        if instruction.kind == "unitary":
            out = state.apply_unitary(instruction.matrix, instruction.qudits)
        elif instruction.kind == "channel":
            out = state.apply_kraus(instruction.kraus, instruction.qudits)
        elif instruction.kind == "reset":
            out = state._reset_wire(instruction.qudits[0])
        else:
            out = state.evolve(qc)
        reference = _oracle_evolve(rho, tuple(dims), qc)
        np.testing.assert_allclose(out.matrix, reference, atol=1e-12)

    def test_input_state_not_modified(self):
        rng = np.random.default_rng(4)
        qc = QuditCircuit([3, 2, 3])
        for _ in range(20):
            _random_instruction(qc, rng)
        rho = random_density_matrix(18, rng=rng)
        state = DensityMatrix(rho.copy(), [3, 2, 3])
        state.evolve(qc)
        np.testing.assert_array_equal(state.matrix, rho)

    def test_apply_shape_mismatch_raises(self):
        state = DensityMatrix.zero([3, 2])
        with pytest.raises(DimensionError):
            state.apply_unitary(np.eye(2), 0)
        with pytest.raises(DimensionError):
            state.apply_kraus([np.eye(3)], 2)


class TestPlanLowering:
    """Each fused block runs in its cheapest form."""

    def _kernels(self, qc):
        return [type(k).__name__ for k in DensityPlan.compile(qc).kernels]

    def test_diagonal_block_is_one_multiply(self):
        qc = QuditCircuit([3, 3])
        qc.controlled_phase(0, 1)
        qc.channel(dephasing(3, 0.2).kraus, 0)
        qc.snap(1, [0.1, 0.2, 0.3])
        assert self._kernels(qc) == ["_Diagonal"]

    def test_noisy_gate_block_is_one_superoperator(self):
        qc = QuditCircuit([3, 3, 3])
        qc.csum(0, 1)
        qc.channel(depolarizing(9, 0.01).kraus, (0, 1))
        qc.fourier(1)
        qc.channel(depolarizing(3, 0.001).kraus, 1)
        qc.csum(1, 2)  # not a subset of {0, 1}: starts a new block
        assert self._kernels(qc) == ["_Liouville", "_Kraus"]

    def test_large_dimension_stays_in_kraus_form(self):
        """A d=10 two-mode gate never builds a 10^4 x 10^4 superoperator."""
        qc = QuditCircuit([10, 10])
        qc.beamsplitter(0, 1, 0.3)
        qc.channel(photon_loss(10, 0.05).kraus, 0)
        qc.beamsplitter(0, 1, 0.2)
        plan = DensityPlan.compile(qc)
        for kernel in plan.kernels:
            superop = getattr(kernel, "superop", None)
            assert superop is None or superop.shape[0] <= 100
        rho = random_density_matrix(100, rng=np.random.default_rng(2))
        out = DensityMatrix(rho, [10, 10]).evolve(qc)
        reference = _oracle_evolve(rho, (10, 10), qc)
        np.testing.assert_allclose(out.matrix, reference, atol=1e-12)

    def test_unitary_only_block_fuses_to_one_conjugation(self):
        qc = QuditCircuit([3, 3])
        qc.fourier(0)
        qc.csum(0, 1)
        qc.rotation(1, 0, 2, 0.4)
        assert self._kernels(qc) == ["_Kraus"]
        (kernel,) = DensityPlan.compile(qc).kernels
        assert len(kernel.terms) == 1

    def test_measure_only_circuit_is_identity(self):
        qc = QuditCircuit([2, 3])
        qc.measure()
        state = DensityMatrix.maximally_mixed([2, 3])
        assert DensityPlan.compile(qc).kernels == ()
        np.testing.assert_array_equal(state.evolve(qc).matrix, state.matrix)


class TestPlanCache:
    """The plan is compiled once per circuit version."""

    @pytest.fixture()
    def compiles(self, monkeypatch):
        calls = []
        original = DensityPlan.compile.__func__

        def counting(cls, circuit):
            calls.append(circuit)
            return original(cls, circuit)

        monkeypatch.setattr(DensityPlan, "compile", classmethod(counting))
        return calls

    def test_repeated_evolve_compiles_once(self, compiles):
        qc = _bell_circuit()
        qc.channel(depolarizing(3, 0.1).kraus, 1)
        state = DensityMatrix.zero([3, 3])
        for _ in range(5):
            state = state.evolve(qc)
        assert len(compiles) == 1

    def test_append_rebuilds(self, compiles):
        qc = _bell_circuit()
        DensityMatrix.zero([3, 3]).evolve(qc)
        qc.channel(dephasing(3, 0.5).kraus, 0)
        out = DensityMatrix.zero([3, 3]).evolve(qc)
        assert len(compiles) == 2
        assert out.purity() < 1.0 - 1e-6

    def test_replace_instruction_rebuilds(self, compiles):
        qc = QuditCircuit([3])
        qc.x(0)
        assert abs(DensityMatrix.zero([3]).evolve(qc).matrix[1, 1] - 1.0) < 1e-12
        squared = QuditCircuit([3])
        squared.x(0, power=2)
        qc.replace_instruction(0, squared.instructions[0])
        out = DensityMatrix.zero([3]).evolve(qc)
        assert len(compiles) == 2
        assert abs(out.matrix[2, 2] - 1.0) < 1e-12


class TestPlanTelemetry:
    """One span and one counter bump per evolve, not per instruction."""

    @pytest.fixture(autouse=True)
    def _telemetry(self):
        obs.disable()
        obs.reset()
        obs.enable()
        yield
        obs.disable()
        obs.reset()

    def test_one_span_per_evolve(self):
        qc = _bell_circuit()
        qc.channel(depolarizing(3, 0.1).kraus, 1)
        qc.channel(dephasing(3, 0.1).kraus, 0)
        DensityMatrix.zero([3, 3]).evolve(qc).evolve(qc)
        spans = [
            e for e in obs.tracing.events() if e["args"].get("backend") == "density"
        ]
        assert [e["name"] for e in spans] == ["density_evolve", "density_evolve"]
        assert spans[0]["args"]["instructions"] == 4
        assert spans[0]["args"]["blocks"] == len(DensityPlan.compile(qc).kernels)
        snap = obs.metrics.snapshot()
        assert sum(snap["gate_applies"]["values"].values()) == 4
        assert sum(snap["channel_applies"]["values"].values()) == 4
