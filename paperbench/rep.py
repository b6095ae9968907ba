"""One measured process of the paper-workload benchmark.

``run.py`` starts this script once per repetition, in a fresh interpreter,
so every repetition pays and measures its own set-up (imports, instance
construction, pool spawn).  It prints one JSON record on its last line of
standard output:

* ``setup``: set up, record ``setup_s``, tear down;
* ``untraced``: also run the host-speed probe and the timed phase, then
  check the outputs;
* ``traced``: as ``untraced``, with the layer tracer installed around the
  timed phase only; its spans are written to ``--out-dir``.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 paperbench/rep.py --workload tn-chain --seed 0 --mode untraced \\
        --size record --out-dir .paperbench_out/scratch --index 0
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _children(pid: int) -> list[int]:
    """Process ids whose parent is ``pid`` (the campaign's workers)."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of one process, from ``/proc``."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of one process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def host_probe() -> dict[str, float]:
    """Host speed right now: a pure-Python loop and a small BLAS call.

    A diagnostic only (never an end-to-end metric): it shows whether the
    host got faster or slower between two batches of runs.  Each figure
    is the fastest of three tries.
    """
    import numpy as np

    def python_loop() -> None:
        acc = 0
        for i in range(200_000):
            acc += i * i % 7

    rng = np.random.default_rng(0)
    a = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))

    def blas() -> None:
        for _ in range(20):
            a @ a

    out = {}
    for key, fn in (("host.python_s", python_loop), ("host.blas_s", blas)):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        out[key] = best
    return out


def measure(workload, mode: str, out_dir: Path, index: int) -> dict:
    """Host probe, timed phase (optionally traced), checks; one record."""
    from layers import LayerTracer

    record: dict = {"host": host_probe()}
    pid = os.getpid()
    tracer = LayerTracer() if mode == "traced" else None
    workers = _children(pid)
    cpu0 = time.process_time()
    workers_cpu0 = sum(_cpu_s(p) for p in workers)
    if tracer is not None:
        tracer.install()
        tracer.start()
    start = time.perf_counter()
    try:
        artefact = workload.run()
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            record["traced_wall_s"] = tracer.stop()
            tracer.uninstall()
    cpu_s = time.process_time() - cpu0
    record["wall_s"] = wall_s
    record["cpu_s"] = cpu_s + sum(_cpu_s(p) for p in workers) - workers_cpu0
    record["peak_rss_mb"] = max([_peak_rss_mb(pid)] + [_peak_rss_mb(p) for p in workers])
    workload.observe(artefact)
    workload.close()

    checks = workload.check(artefact)
    attempted, failed = workload.points(artefact)
    record["attempted"] = attempted + len(checks)
    record["failed"] = failed + sum(1 for c in checks if not c.ok)
    record["failures"] = [c._asdict() for c in checks if not c.ok]
    record["fingerprint"] = workload.fingerprint(artefact)
    record["summary"] = workload.summary(artefact)
    layers = workload.layer_counts(artefact, wall_s)
    if tracer is not None:
        layers.update(tracer.layer_metrics())
        tracer.write_spans(out_dir / f"spans-{index}.jsonl")
    record["layers"] = layers
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--size", choices=("record", "smoke"), default="record")
    parser.add_argument("--out-dir", type=Path, required=True)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.size, str(args.out_dir))
    try:
        workload.setup()
        setup_s = time.perf_counter() - _START
        if args.mode == "setup":
            record = {}
        else:
            record = measure(workload, args.mode, args.out_dir, args.index)
    finally:
        workload.close()
    record.update(mode=args.mode, setup_s=setup_s)
    record["threads"] = {
        k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
