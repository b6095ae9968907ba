"""Chaos suite: fault injection against the supervised executor.

The invariant under test, everywhere: **faults change wall-clock, never
values**.  A campaign run under injected worker kills, transient
exceptions, and delays — with a policy generous enough to absorb them —
produces results bit-identical to a clean serial run; a point that fails
*permanently* surfaces as a structured error record (in
``CampaignResult.errors``, the event stream, and the checkpoint) instead
of hanging the handle or poisoning the executor.

Fault schedules are fully deterministic (seeded per point), so every
test here is reproducible — no flaky "sometimes the worker dies".
Worker-kill tests run everywhere but stay small; the heavier sweeps are
gated behind ``REPRO_CHAOS=1`` (the CI chaos job).
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import budget
from repro.core.exceptions import SimulationError
from repro.exec import (
    Campaign,
    CampaignExecutor,
    FailurePolicy,
    FaultPlan,
    InjectedFault,
    ResultCache,
    corrupt_cache,
    corrupt_cache_entry,
    run_campaign,
    zip_sweep,
)

chaos_enabled = os.environ.get("REPRO_CHAOS", "") == "1"


def seeded_task(x, scale=1.0, seed=0):
    """Seed-sensitive (module-level: importable from worker processes)."""
    rng = np.random.default_rng(seed)
    return float(x * scale + rng.normal())


def brittle_task(x, bad=(), seed=0):
    """Fails permanently for x values listed in ``bad``."""
    if x in tuple(bad):
        raise ValueError(f"point {x} is permanently broken")
    return float(x + np.random.default_rng(seed).random())


def tolerant_task(x, bad=(), seed=0):
    """Same computation as :func:`brittle_task`, without the failures."""
    return float(x + np.random.default_rng(seed).random())


def capped_task(x, max_bond=2, seed=0):
    """Leaks truncation 0.1 below ``max_bond`` 4: one escalation fixes it."""
    if max_bond < 4:
        budget.record_truncation(0.1, chi=max_bond)
    return {"x": float(x + np.random.default_rng(seed).random()), "max_bond": max_bond}


def sleepy_task(x, delay_ms=0.0, seed=0):
    import time

    time.sleep(delay_ms / 1000.0)
    return int(x)


def _campaign(n=6, task=seeded_task, **kwargs):
    defaults = dict(
        task=task,
        sweep=zip_sweep(x=list(range(n))),
        seed=7,
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


#: A retry policy generous enough to absorb any 2-faulty-attempt plan,
#: with backoff shrunk so tests don't sleep for real.
ABSORB = FailurePolicy(
    mode="retry",
    max_attempts=5,
    max_crashes=4,
    backoff_base=0.001,
    backoff_max=0.01,
    backoff_jitter=0.5,
)


class TestFaultPlanDeterminism:
    def test_schedule_is_stable(self):
        plan = FaultPlan(seed=3, p_exception=0.4, p_kill=0.2, p_delay=0.2)
        points = _campaign(n=10).points()
        first = [plan.schedule(p) for p in points]
        second = [plan.schedule(p) for p in points]
        assert first == second
        # With these probabilities 10 points virtually surely draw at
        # least one fault — and the mix must include non-faults too.
        kinds = {k for sched in first for k in sched}
        assert kinds & {"exception", "kill", "delay"}

    def test_faults_bounded_per_point(self):
        plan = FaultPlan(seed=0, p_exception=1.0, max_faulty_attempts=2)
        point = _campaign(n=1).points()[0]
        assert plan.fault_for(point, 1) == "exception"
        assert plan.fault_for(point, 2) == "exception"
        assert plan.fault_for(point, 3) is None  # beyond the fault budget
        assert plan.fault_for(point, 0) is None

    def test_schedule_independent_of_process(self):
        # The schedule depends only on (seed, point.key): a re-built
        # campaign (fresh point objects) sees identical faults.
        plan = FaultPlan(seed=11, p_exception=0.5, p_delay=0.3)
        a = [plan.schedule(p) for p in _campaign(n=8).points()]
        b = [plan.schedule(p) for p in _campaign(n=8).points()]
        assert a == b

    def test_apply_raises_injected_fault(self):
        plan = FaultPlan(seed=0, p_exception=1.0)
        point = _campaign(n=1).points()[0]
        with pytest.raises(InjectedFault):
            plan.apply(point, 1, in_worker=False)

    def test_kill_skipped_in_process(self):
        # A kill fault outside a worker must be a no-op (otherwise the
        # test runner itself would die here).
        plan = FaultPlan(seed=0, p_kill=1.0)
        point = _campaign(n=1).points()[0]
        plan.apply(point, 1, in_worker=False)

    def test_plan_validation(self):
        with pytest.raises(SimulationError):
            FaultPlan(p_exception=1.5)
        with pytest.raises(SimulationError):
            FaultPlan(p_exception=0.7, p_kill=0.7)
        with pytest.raises(SimulationError):
            FaultPlan(kill_mode="nuke")


class TestPolicyValidation:
    def test_mode_strings(self):
        assert FailurePolicy.coerce("continue").mode == "continue"
        assert FailurePolicy.coerce(None).mode == "fail_fast"
        policy = FailurePolicy(mode="retry", max_attempts=2)
        assert FailurePolicy.coerce(policy) is policy
        with pytest.raises(SimulationError):
            FailurePolicy(mode="ignore")
        with pytest.raises(SimulationError):
            FailurePolicy(max_attempts=0)
        with pytest.raises(SimulationError):
            FailurePolicy(timeout=0.0)
        with pytest.raises(SimulationError):
            FailurePolicy.coerce(42)

    def test_backoff_is_deterministic_and_bounded(self):
        policy = FailurePolicy(
            mode="retry", backoff_base=0.1, backoff_factor=2.0, backoff_max=0.5
        )
        point = _campaign(n=1).points()[0]
        delays = [policy.backoff_delay(point, attempt) for attempt in (1, 2, 3, 9)]
        assert delays == [policy.backoff_delay(point, a) for a in (1, 2, 3, 9)]
        for attempt, delay in zip((1, 2, 3, 9), delays):
            base = min(0.5, 0.1 * 2.0 ** (attempt - 1))
            assert base <= delay <= base * (1.0 + policy.backoff_jitter)
        # Exponential growth until the cap dominates.
        assert delays[1] > delays[0]


class TestSerialPolicies:
    def test_fail_fast_raises(self):
        with pytest.raises(ValueError, match="permanently broken"):
            run_campaign(_campaign(task=brittle_task, base_params={"bad": (3,)}))

    def test_continue_records_error(self):
        result = run_campaign(
            _campaign(task=brittle_task, base_params={"bad": (1, 4)}),
            policy="continue",
        )
        assert not result.ok
        assert [e["index"] for e in result.errors] == [1, 4]
        assert result.values[1] is None and result.values[4] is None
        for record in result.errors:
            assert record["kind"] == "exception"
            assert record["error_type"] == "ValueError"
            assert "permanently broken" in record["message"]
            assert "traceback" in record
        # Healthy points are untouched: identical params (seeds are
        # spawned from content) with the failure branch removed.
        clean = run_campaign(_campaign(task=tolerant_task, base_params={"bad": (1, 4)}))
        for i in (0, 2, 3, 5):
            assert result.values[i] == clean.values[i]
        table = result.as_table()
        assert [row["ok"] for row in table] == [True, False, True, True, False, True]

    def test_retry_absorbs_transient_faults(self):
        clean = run_campaign(_campaign())
        plan = FaultPlan(seed=5, p_exception=0.6, max_faulty_attempts=2)
        faulted = run_campaign(_campaign(), policy=ABSORB, faults=plan)
        assert faulted.ok
        assert faulted.values == clean.values

    def test_retry_exhaustion_becomes_error_record(self):
        plan = FaultPlan(seed=0, p_exception=1.0, max_faulty_attempts=6)
        policy = FailurePolicy(
            mode="retry", max_attempts=3, backoff_base=0.0, backoff_jitter=0.0
        )
        result = run_campaign(_campaign(n=2), policy=policy, faults=plan)
        assert len(result.errors) == 2
        for record in result.errors:
            assert record["attempts"] == 3  # exactly max_attempts, no more
            assert record["error_type"] == "InjectedFault"

    def test_retry_counter_and_attempts_bounded(self):
        plan = FaultPlan(seed=2, p_exception=0.7, max_faulty_attempts=2)
        with CampaignExecutor(1) as ex:
            handle = ex.submit(_campaign(), policy=ABSORB, faults=plan)
            handle.result()
            attempts = handle.attempts
        assert attempts  # every pending point executed at least once
        assert all(1 <= n <= ABSORB.max_attempts for n in attempts.values())
        expected_retries = sum(n - 1 for n in attempts.values())
        assert ex.stats["retries"] == expected_retries


class TestSupervisedRecovery:
    """Worker processes die for real; values must not notice."""

    def test_kill_recovery_bit_identical(self):
        clean = run_campaign(_campaign())
        plan = FaultPlan(seed=9, p_kill=0.5, max_faulty_attempts=1)
        with CampaignExecutor(2) as ex:
            result = ex.run(_campaign(), policy=ABSORB, faults=plan)
            stats = ex.stats
        assert result.values == clean.values
        assert result.ok
        # The plan surely killed someone across 6 points at p=0.5; every
        # kill must have been noticed and the worker respawned.
        killed = sum(1 for p in _campaign().points() if "kill" in plan.schedule(p)[:1])
        assert killed >= 1
        assert stats["respawns"] >= killed

    def test_sigkill_mode_recovery(self):
        clean = run_campaign(_campaign(n=4))
        plan = FaultPlan(
            seed=13, p_kill=0.6, max_faulty_attempts=1, kill_mode="sigkill"
        )
        with CampaignExecutor(2) as ex:
            result = ex.run(_campaign(n=4), policy=ABSORB, faults=plan)
        assert result.values == clean.values

    def test_mixed_faults_recovery(self):
        clean = run_campaign(_campaign(n=8))
        plan = FaultPlan(
            seed=21, p_kill=0.25, p_exception=0.35, p_delay=0.2, delay_s=0.002
        )
        with CampaignExecutor(3) as ex:
            result = ex.run(_campaign(n=8), policy=ABSORB, faults=plan)
        assert result.ok
        assert result.values == clean.values

    def test_crash_budget_exhaustion_is_structured(self):
        # Every attempt kills the worker: with the crash budget exceeded
        # the point must surface as a "crash" error record — not hang.
        plan = FaultPlan(seed=0, p_kill=1.0, max_faulty_attempts=10)
        policy = FailurePolicy(mode="continue", max_crashes=2)
        with CampaignExecutor(2) as ex:
            result = ex.run(_campaign(n=2), policy=policy, faults=plan)
        assert len(result.errors) == 2
        for record in result.errors:
            assert record["kind"] == "crash"
            assert record["crashes"] == 3  # initial + 2 re-dispatches
            assert record["error_type"] == "WorkerCrashError"
        # The executor survives for the next campaign.
        with CampaignExecutor(2) as ex:
            follow_up = ex.run(_campaign(n=2))
        assert follow_up.ok

    def test_fail_fast_crash_still_redispatches(self):
        # A worker death is an infrastructure fault, not a task verdict:
        # even fail_fast re-dispatches within the crash budget.
        clean = run_campaign(_campaign(n=4))
        plan = FaultPlan(seed=9, p_kill=0.5, max_faulty_attempts=1)
        policy = FailurePolicy(mode="fail_fast", max_crashes=3)
        with CampaignExecutor(2) as ex:
            result = ex.run(_campaign(n=4), policy=policy, faults=plan)
        assert result.values == clean.values

    def test_timeout_kills_and_records(self):
        policy = FailurePolicy(mode="continue", timeout=0.3, max_crashes=0)
        campaign = Campaign(
            task="test_faults:sleepy_task",
            sweep=zip_sweep(x=[0, 1, 2], delay_ms=[0.0, 30_000.0, 0.0]),
            name="timeout-campaign",
            seed=None,
        )
        with CampaignExecutor(2) as ex:
            result = ex.run(campaign, policy=policy)
            stats = ex.stats
        assert [e["index"] for e in result.errors] == [1]
        assert result.errors[0]["kind"] == "timeout"
        assert result.values == [0, None, 2]
        assert stats["timeouts"] == 1
        assert stats["respawns"] >= 1


class TestSerialPoolParity:
    """Serial and pooled dispatch number attempts the same way.

    An escalated re-run is a further execution, so it draws the fault
    plan's next attempt and backs off by the next attempt's delay on
    both paths.  Kills are left out: only workers can be killed.
    """

    @pytest.mark.parametrize("mode", ["continue", "retry"])
    def test_escalation_under_faults_matches(self, mode):
        plan = FaultPlan(seed=3, p_exception=0.5)
        policy = FailurePolicy(mode=mode, backoff_base=0.001, backoff_max=0.01)
        runs = []
        for workers in (1, 2):
            with CampaignExecutor(workers) as ex:
                result = ex.run(
                    _campaign(n=24, task=capped_task),
                    cache=None,
                    policy=policy,
                    faults=plan,
                    target_error=1e-3,
                )
                runs.append((result, ex.stats))
        (serial, serial_stats), (pooled, pooled_stats) = runs
        assert pooled.workers == 2 and serial.workers == 1
        assert pooled.values == serial.values

        def records(result):  # tracebacks differ between processes
            return [{**e, "traceback": None} for e in result.errors]

        def timeline(result):
            fields = ("index", "ok", "attempts", "backoff_s", "escalations")
            return [[t[k] for k in fields] for t in result.timeline]

        assert records(pooled) == records(serial)
        assert timeline(pooled) == timeline(serial)
        for counter in ("retries", "escalations"):
            assert pooled_stats[counter] == serial_stats[counter]
        assert serial_stats["escalations"] > 0
        if mode == "continue":
            assert serial.errors  # the plan's faults surface as records
        else:
            assert serial.ok


class TestErrorPropagationPaths:
    def test_error_reaches_stream_events_and_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "battery.jsonl"
        result = run_campaign(
            _campaign(task=brittle_task, base_params={"bad": (2,)}),
            policy="continue",
            checkpoint=checkpoint,
        )
        assert [e["index"] for e in result.errors] == [2]
        lines = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()
            if line.strip()
        ]
        by_status = {}
        for record in lines:
            by_status.setdefault(record["status"], []).append(record)
        assert len(by_status["ok"]) == 5
        assert len(by_status["error"]) == 1
        assert by_status["error"][0]["index"] == 2
        assert by_status["error"][0]["error"]["error_type"] == "ValueError"

    def test_resume_retries_failures_replays_successes(self, tmp_path):
        checkpoint = tmp_path / "resume.jsonl"
        first = run_campaign(
            _campaign(task=brittle_task, base_params={"bad": (2,)}),
            policy="continue",
            checkpoint=checkpoint,
        )
        assert not first.ok
        # Resume the same campaign: successes replay verbatim as
        # checkpoint hits; the error record is NOT treated as done, so
        # the failed point is retried (and here re-fails).
        resumed = run_campaign(
            _campaign(task=brittle_task, base_params={"bad": (2,)}),
            policy="continue",
            checkpoint=checkpoint,
        )
        assert resumed.checkpoint_hits == 5
        assert resumed.computed == 1
        assert [e["index"] for e in resumed.errors] == [2]

    def test_as_completed_carries_error_events(self):
        with CampaignExecutor(1) as ex:
            handle = ex.submit(
                _campaign(task=brittle_task, base_params={"bad": (1,)}),
                policy="continue",
            )
            events = list(handle.as_completed())
        bad = [event for event in events if not event.ok]
        assert len(bad) == 1
        assert bad[0].point.index == 1
        assert bad[0].value is None
        assert bad[0].error["error_type"] == "ValueError"
        good = [event for event in events if event.ok]
        assert all(event.error is None for event in good)

    def test_failed_values_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        result = run_campaign(
            _campaign(task=brittle_task, base_params={"bad": (1,)}),
            policy="continue",
            cache=cache,
        )
        assert not result.ok
        rerun = run_campaign(
            _campaign(task=brittle_task, base_params={"bad": (1,)}),
            policy="continue",
            cache=cache,
        )
        assert rerun.cache_hits == 5  # the failure was not served back
        assert rerun.computed == 1
        with pytest.raises(SimulationError, match="failed point"):
            cache.put("ab" * 32, {"x": 1}, ok=False)


class TestCacheCorruption:
    def test_corrupt_entries_heal_and_recompute(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        campaign = _campaign(n=8)
        clean = run_campaign(campaign, cache=cache)
        damaged = corrupt_cache(cache, campaign.points(), seed=3, fraction=0.6)
        assert damaged >= 1
        healed = run_campaign(campaign, cache=cache)
        assert healed.values == clean.values
        assert healed.computed == damaged  # only damaged entries recompute
        assert healed.cache_hits == 8 - damaged

    @pytest.mark.parametrize("mode", ["truncate", "garbage", "wrong_key"])
    def test_each_corruption_mode_is_a_miss(self, tmp_path, mode):
        cache = ResultCache(tmp_path / "cache")
        campaign = _campaign(n=2)
        run_campaign(campaign, cache=cache)
        point = campaign.points()[0]
        assert corrupt_cache_entry(cache, point.key, mode)
        from repro.exec.cache import MISS

        assert cache.get(point.key) is MISS

    def test_corrupt_missing_entry_returns_false(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert not corrupt_cache_entry(cache, "ab" * 32, "garbage")


@st.composite
def chaos_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    workers = draw(st.integers(min_value=2, max_value=3))
    plan = FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=2**31)),
        p_exception=draw(st.sampled_from([0.0, 0.3, 0.6])),
        p_kill=draw(st.sampled_from([0.0, 0.2] if chaos_enabled else [0.0])),
        p_delay=draw(st.sampled_from([0.0, 0.2])),
        delay_s=0.002,
        max_faulty_attempts=2,
        kill_mode=draw(st.sampled_from(["exit", "sigkill"])),
    )
    return n, workers, plan


class TestChaosProperty:
    """The headline invariant, over random shapes and fault schedules."""

    @settings(max_examples=10 if chaos_enabled else 6, deadline=None)
    @given(scenario=chaos_scenario())
    def test_recovered_parallel_equals_serial(self, scenario):
        n, workers, plan = scenario
        clean = run_campaign(_campaign(n=n))
        with CampaignExecutor(workers) as ex:
            handle = ex.submit(_campaign(n=n), policy=ABSORB, faults=plan)
            result = handle.result()
            attempts = handle.attempts
        assert result.ok
        assert result.values == clean.values
        # Executions never exceed the retry budget plus the crash budget
        # (crashed attempts don't consume retry attempts).
        ceiling = ABSORB.max_attempts + ABSORB.max_crashes
        assert all(1 <= tries <= ceiling for tries in attempts.values())
        if plan.p_kill == 0.0:
            assert all(tries <= ABSORB.max_attempts for tries in attempts.values())

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_serial_chaos_equals_clean(self, n, seed):
        """The serial path honours the same invariant (no kills there)."""
        plan = FaultPlan(seed=seed, p_exception=0.5, p_delay=0.2, delay_s=0.001)
        clean = run_campaign(_campaign(n=n))
        faulted = run_campaign(_campaign(n=n), policy=ABSORB, faults=plan)
        assert faulted.values == clean.values


@pytest.mark.skipif(not chaos_enabled, reason="REPRO_CHAOS=1 only")
class TestHeavyChaos:
    """The CI chaos job's heavier sweep (kills enabled, larger shapes)."""

    def test_sustained_kill_storm(self):
        clean = run_campaign(_campaign(n=16))
        plan = FaultPlan(seed=99, p_kill=0.4, p_exception=0.2, p_delay=0.1)
        policy = FailurePolicy(
            mode="retry",
            max_attempts=6,
            max_crashes=6,
            backoff_base=0.001,
            backoff_max=0.01,
        )
        with CampaignExecutor(4) as ex:
            result = ex.run(_campaign(n=16), policy=policy, faults=plan)
            stats = ex.stats
        assert result.ok
        assert result.values == clean.values
        assert stats["respawns"] >= 1

    def test_checkpointed_chaos_resume(self, tmp_path):
        checkpoint = tmp_path / "storm.jsonl"
        clean = run_campaign(_campaign(n=12))
        plan = FaultPlan(seed=17, p_kill=0.3, p_exception=0.3)
        with CampaignExecutor(3) as ex:
            handle = ex.submit(
                _campaign(n=12), policy=ABSORB, faults=plan, checkpoint=checkpoint
            )
            # Abandon halfway through a kill storm...
            for i, _ in enumerate(handle.as_completed()):
                if i >= 5:
                    break
        # ...and resume: replayed successes + recovered remainder must
        # still be bit-identical to the clean serial run.
        resumed = run_campaign(
            _campaign(n=12), policy=ABSORB, faults=plan, checkpoint=checkpoint
        )
        assert resumed.values == clean.values
        assert resumed.checkpoint_hits >= 6
