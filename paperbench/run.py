"""Paper-workload benchmark: the E-C1 threshold, a tensor-network chain and
an overlapping campaign, timed end to end and split by layer.

Usage (from the repository root)::

    python3 paperbench/run.py --workload ec1-threshold --seed 1 --seconds 20 --trace 0

Each repetition runs in a fresh interpreter (``paperbench/rep.py``) with
every BLAS/OpenMP pool pinned to one thread.  Repetitions continue until
``--seconds`` of timed work is done (at least one), and further set-up-only
processes run until ``setup_s`` has five samples.  Every figure reported is
the median over the repetitions of this run.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``setup_s``,
``cpu_s`` (this process and its workers) and ``peak_rss_mb`` (the largest
of them).  ``--trace 1`` runs untraced and traced repetitions in pairs and
reports the per-layer metrics, the tracing overhead (traced over untraced
wall time) and how the layers' self times reconcile with the untraced
wall time.  Failed output checks and failed campaign points are counted in
``failed`` against ``attempted``; ``failed_frac`` is printed above the
result, whose JSON object is the last line of standard output.

Outputs (per-repetition records, traced spans, the full result) go to
``.paperbench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ec1-threshold", "tn-chain", "campaign-overlap")
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# Set-up samples per run (smoke runs only check that set-up works).
SETUP_SAMPLES = {"record": 5, "smoke": 1}
# The whole run must end well inside three minutes.
DEADLINE_S = 170.0
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class RepFailed(RuntimeError):
    """A repetition process crashed, timed out or printed no record."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_OBS")}
    env.update(PINNED_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def stop_session(pgid: int, timeout: float = 5.0) -> None:
    """Kill whatever a repetition left in its session and wait until it is gone.

    After a clean exit the session is already empty (the campaign executor
    joins its workers); after a crash or a timeout this takes the pool
    workers down with the repetition.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_rep(args, mode: str, index: int, out_dir: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--mode", mode,
        "--size", args.size, "--out-dir", str(out_dir), "--index", str(index),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stop_session(proc.pid)
        proc.communicate()
        raise RepFailed(f"{mode} repetition {index} ran past the deadline") from None
    finally:
        stop_session(proc.pid)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{mode} repetition {index} exited with {proc.returncode}")
    record = json.loads(lines[-1])
    with open(out_dir / "reps.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def run_reps(args, out_dir: Path) -> tuple[list[dict], list[float]]:
    """Repetitions until ``--seconds`` of timed work, then set-up samples.

    A traced run measures in adjacent untraced/traced pairs, at least one,
    whose order alternates (untraced first, then traced first), so that a
    steady drift in host speed cancels out of the per-pair ratios.
    """
    deadline = time.monotonic() + DEADLINE_S
    pattern = ("untraced", "traced", "traced", "untraced") if args.trace else ("untraced",)
    step = 2 if args.trace else 1
    reps: list[dict] = []
    measured = 0.0
    while True:
        rep_start = time.monotonic()
        mode = pattern[len(reps) % len(pattern)]
        reps.append(run_rep(args, mode, len(reps), out_dir, deadline))
        measured += reps[-1]["wall_s"]
        if len(reps) % step:
            continue  # finish the pair
        longest = max(time.monotonic() - rep_start, *(r["setup_s"] + r["wall_s"] for r in reps))
        if measured >= args.seconds or time.monotonic() + step * longest > deadline:
            break
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES[args.size]:
        record = run_rep(args, "setup", len(reps) + len(setups), out_dir, deadline)
        setups.append(record["setup_s"])
    return reps, setups


def median(values) -> float:
    return float(statistics.median(values))


def summarise(
    args, reps: list[dict], setups: list[float], per_layer_units: dict[str, str]
) -> dict:
    untraced = [r for r in reps if r["mode"] == "untraced"]
    traced = [r for r in reps if r["mode"] == "traced"]
    # One more check: every repetition of a seed produced the same outputs.
    attempted = 1 + sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if len({r["fingerprint"] for r in reps}) != 1:
        failed += 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
    }
    if not args.trace:
        values = {
            "wall_s": median(r["wall_s"] for r in untraced),
            "setup_s": median(setups),
            "cpu_s": median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in untraced),
        }
        result["metrics"] = {
            k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()
        }
        return result
    layers = {
        name: median(r["layers"].get(name, 0.0) for r in traced)
        for name in per_layer_units
        if not name.startswith(("trace.", "host."))
    }
    # Each pair is (untraced, traced).  The seven named layers, without
    # "other" (time outside every wrapped call), must account for the
    # untraced wall time; coverage compares them with the traced
    # repetition's own wall time, free of drift between repetitions.
    pairs = [
        sorted(reps[i : i + 2], key=lambda r: r["mode"] == "traced")
        for i in range(0, len(reps), 2)
    ]

    def named(rep: dict) -> float:
        return sum(
            v for k, v in rep["layers"].items() if k.startswith("self_s.") and k != "self_s.other"
        )

    layers["trace.spans"] = median(r["layers"]["trace.spans"] for r in traced)
    layers["trace.overhead_ratio"] = median(t["traced_wall_s"] / u["wall_s"] for u, t in pairs)
    layers["trace.reconcile_ratio"] = median(named(t) / u["wall_s"] for u, t in pairs)
    layers["trace.coverage"] = median(named(t) / t["traced_wall_s"] for _, t in pairs)
    for key in ("host.python_s", "host.blas_s"):
        layers[key] = median(r["host"][key] for r in reps)
    result["metrics"] = {
        k: {"value": v, "unit": per_layer_units[k]} for k, v in layers.items()
    }
    return result


def load_per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(args, reps: list[dict], setups: list[float], result: dict) -> None:
    """Human-readable lines above the JSON result."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"paperbench {args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} reps={len(reps)} setup_samples={len(setups)} "
          f"blas_threads={PINNED_THREADS['OPENBLAS_NUM_THREADS']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} 1 "
          f"({failed} of {attempted} checks and points)")
    host = [r["host"] for r in reps]
    print("  host probe (diagnostic): python_s="
          + " ".join(f"{h['host.python_s']:.4f}" for h in host)
          + " blas_s=" + " ".join(f"{h['host.blas_s']:.4f}" for h in host))
    print("  artefact: " + json.dumps(reps[0]["summary"]))
    for r in reps:
        for failure in r["failures"]:
            print(f"  FAILED {failure['name']}: {failure['detail']}")
    if args.trace:
        ratio = result["metrics"]["trace.reconcile_ratio"]["value"]
        if abs(ratio - 1.0) > 0.10:
            print(f"  note: layer self times reconcile to {ratio:.3f} of the "
                  "untraced wall time (outside 10%)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("record", "smoke"), default="record",
                        help="smoke: a seconds-long run for the benchmark's tests")
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".paperbench_out")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"paperbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        reps, setups = run_reps(args, out_dir)
    except RepFailed as exc:
        print(f"paperbench: {exc}", file=sys.stderr)
        return 1
    result = summarise(args, reps, setups, load_per_layer_units())
    (out_dir / "result.json").write_text(
        json.dumps({"result": result, "setups": setups, "reps": reps}, indent=1)
    )
    report(args, reps, setups, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
