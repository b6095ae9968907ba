"""Deterministic fault injection for campaign robustness testing.

The supervised executor promises that worker crashes, transient task
exceptions, and per-point timeouts never change a campaign's *values* —
only its wall-clock.  That promise is only testable if faults can be
produced **on demand and reproducibly**.  A :class:`FaultPlan` is a
picklable, seeded schedule of injected faults: for every
``(point, attempt)`` pair it deterministically decides to do nothing, to
sleep, to raise :class:`InjectedFault`, or to kill the executing worker
process outright (``os._exit`` or ``SIGKILL``).  The decision depends
only on the plan's seed and the point's content key, so the same plan
produces the same fault schedule in every process, on every run — which
is what lets the chaos suite assert *bit-identical* recovery against a
clean serial baseline.

Faults are bounded per point: attempts beyond ``max_faulty_attempts``
are always clean, so any retry/crash budget larger than the plan's fault
budget is guaranteed to converge.

Thread a plan into execution with
``CampaignExecutor.submit(campaign, faults=plan)``.  Kill faults only
fire inside supervised worker processes — the in-process serial path
skips them (killing the host would take the test runner with it).

:func:`corrupt_cache_entry` / :func:`corrupt_cache` complete the
harness: they damage on-disk :class:`~repro.exec.cache.ResultCache`
entries (truncation, garbage, key mismatch) so tests can verify that
corruption is healed — detected, evicted, recomputed — rather than
served.
"""

from __future__ import annotations

import json
import os
import signal
import time
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.exceptions import SimulationError

if TYPE_CHECKING:
    from .cache import ResultCache
    from .sweep import CampaignPoint

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "corrupt_cache_entry",
    "corrupt_cache",
]

_SEED_MASK = 2**63 - 1

#: The ways :func:`corrupt_cache_entry` can damage an entry.
_CORRUPTION_MODES = ("truncate", "garbage", "wrong_key")


class InjectedFault(RuntimeError):
    """A transient failure raised by a :class:`FaultPlan` (retryable)."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Attributes:
        seed: schedule seed; same seed + same points => same faults.
        p_exception: per-attempt probability of raising
            :class:`InjectedFault` instead of running the task.
        p_kill: per-attempt probability of killing the worker process
            (a hard death: no exception, no result — the supervisor must
            notice via liveness monitoring).
        p_delay: per-attempt probability of sleeping ``delay_s`` before
            running the task (exercises timeout paths and completion-
            order robustness; the attempt still succeeds).
        delay_s: injected delay duration in seconds.
        max_faulty_attempts: attempts per point that may fault; every
            later attempt is clean, bounding worst-case recovery.
        kill_mode: ``"exit"`` (``os._exit(13)``) or ``"sigkill"``
            (``SIGKILL`` to self) — two distinct hard-death flavours.
    """

    seed: int = 0
    p_exception: float = 0.0
    p_kill: float = 0.0
    p_delay: float = 0.0
    delay_s: float = 0.005
    max_faulty_attempts: int = 2
    kill_mode: str = "exit"

    def __post_init__(self) -> None:
        for name in ("p_exception", "p_kill", "p_delay"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {p}")
        if self.p_exception + self.p_kill + self.p_delay > 1.0 + 1e-12:
            raise SimulationError("fault probabilities must sum to <= 1")
        if self.delay_s < 0:
            raise SimulationError("delay_s must be >= 0")
        if self.max_faulty_attempts < 0:
            raise SimulationError("max_faulty_attempts must be >= 0")
        if self.kill_mode not in ("exit", "sigkill"):
            raise SimulationError(
                f"kill_mode must be 'exit' or 'sigkill', got {self.kill_mode!r}"
            )

    # -- the deterministic schedule ------------------------------------
    def schedule(self, point: CampaignPoint) -> tuple[str | None, ...]:
        """Fault kinds for the point's first ``max_faulty_attempts`` tries.

        Entry ``i`` is the fault for attempt ``i + 1``: one of
        ``"exception"``, ``"kill"``, ``"delay"``, or ``None``.  Derived
        from ``(plan.seed, point.key)`` only, so the schedule is
        identical in every worker process and across runs.
        """
        entropy = int(point.key[:16], 16)
        rng = np.random.default_rng([self.seed & _SEED_MASK, entropy])
        kinds: list[str | None] = []
        for _ in range(self.max_faulty_attempts):
            u = float(rng.random())
            if u < self.p_kill:
                kinds.append("kill")
            elif u < self.p_kill + self.p_exception:
                kinds.append("exception")
            elif u < self.p_kill + self.p_exception + self.p_delay:
                kinds.append("delay")
            else:
                kinds.append(None)
        return tuple(kinds)

    def fault_for(self, point: CampaignPoint, attempt: int) -> str | None:
        """The fault injected on the ``attempt``-th execution (1-based)."""
        if attempt < 1 or attempt > self.max_faulty_attempts:
            return None
        return self.schedule(point)[attempt - 1]

    def apply(self, point: CampaignPoint, attempt: int, *, in_worker: bool) -> None:
        """Inject this ``(point, attempt)``'s scheduled fault, if any.

        Called by the execution layer immediately before the task runs.
        ``attempt`` is the point's execution count, escalated re-runs
        included, on serial and pooled runs alike.  ``in_worker`` gates
        kill faults: only a supervised worker process may be killed (the
        serial in-process path skips them).
        """
        kind = self.fault_for(point, attempt)
        if kind is None:
            return
        if kind == "delay":
            time.sleep(self.delay_s)
            return
        if kind == "exception":
            raise InjectedFault(
                f"injected fault: point {point.index} attempt {attempt}"
            )
        # kind == "kill"
        if not in_worker:
            return
        if self.kill_mode == "sigkill":
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(13)


# ----------------------------------------------------------------------
# cache corruption
# ----------------------------------------------------------------------
def corrupt_cache_entry(
    cache: ResultCache, key: str, mode: str = "truncate"
) -> bool:
    """Damage one on-disk cache entry (for heal-path tests).

    Args:
        cache: a :class:`~repro.exec.cache.ResultCache`.
        key: the entry's point key.
        mode: ``"truncate"`` (torn write), ``"garbage"`` (non-JSON
            bytes), or ``"wrong_key"`` (valid JSON whose recorded key
            mismatches its filename).

    Returns:
        ``True`` if an entry existed and was damaged.
    """
    if mode not in _CORRUPTION_MODES:
        raise SimulationError(
            f"unknown corruption mode {mode!r}; expected one of {_CORRUPTION_MODES}"
        )
    path = cache._path(key)
    try:
        text = path.read_text()
    except OSError:
        return False
    if mode == "truncate":
        path.write_text(text[: max(1, len(text) // 2)])
    elif mode == "garbage":
        path.write_text("\x00not json at all\x00")
    else:  # wrong_key
        path.write_text(json.dumps({"key": "0" * 64, "value": None}))
    return True


def corrupt_cache(
    cache: ResultCache,
    points: Iterable[CampaignPoint],
    *,
    seed: int = 0,
    fraction: float = 0.5,
) -> int:
    """Deterministically corrupt a fraction of the points' cache entries.

    Each selected entry gets a corruption mode drawn from the same
    seeded stream, cycling through every mode across a large enough
    selection.

    Args:
        cache: the :class:`~repro.exec.cache.ResultCache` to damage.
        points: :class:`~repro.exec.sweep.CampaignPoint` iterable whose
            keys identify the candidate entries.
        seed: selection/mode seed.
        fraction: expected fraction of entries to corrupt.

    Returns:
        The number of entries actually damaged.
    """
    if not 0.0 <= fraction <= 1.0:
        raise SimulationError("fraction must be in [0, 1]")
    damaged = 0
    for point in points:
        entropy = int(point.key[:16], 16)
        rng = np.random.default_rng([seed & _SEED_MASK, entropy, 0xC0DE])
        if float(rng.random()) >= fraction:
            continue
        mode = _CORRUPTION_MODES[int(rng.integers(0, len(_CORRUPTION_MODES)))]
        if corrupt_cache_entry(cache, point.key, mode):
            damaged += 1
    return damaged
