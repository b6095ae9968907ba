"""Layer tracer: spans around the public calls at each layer boundary.

The tracer wraps public functions and methods of ``repro`` from this
benchmark's own files -- nothing under ``src/`` is edited -- and restores
them on ``uninstall()``.  Each wrapped call records a span (name, layer,
start, end, parent span) in memory and adds its duration to its layer's
self time, minus whatever nested wrapped calls cover.  The timed phase
itself is the root span, layer ``other``: its self time is the time spent
outside every wrapped call (benchmark glue, and engine code reached only
through unwrapped paths).  The self times of all layers, ``other``
included, therefore add up to the traced wall time.

Only coarse boundaries are wrapped (whole circuits, whole probes, whole
campaigns, per-point merges), so the tracer adds no per-gate cost.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LAYERS = ("sqed", "core.density", "core.mps", "core.lpdo", "qaoa", "exec", "obs")
OTHER = "other"

# (layer, module, attribute path on that module).  Functions are wrapped
# on the module that *calls* them by global name (noise_study imports the
# trotter and encoding helpers), methods on the class that defines them.
BOUNDARIES = (
    ("sqed", "repro.sqed.noise_study", "compare_encodings"),
    ("sqed", "repro.sqed.noise_study", "noise_threshold"),
    ("sqed", "repro.sqed.noise_study", "trajectory_damage"),
    ("sqed", "repro.sqed.noise_study", "damage_campaign"),
    ("sqed", "repro.sqed.noise_study", "evolve_observable_trajectory"),
    ("sqed", "repro.sqed.noise_study", "evolve_observable_trajectory_backend"),
    ("sqed", "repro.sqed.noise_study", "insert_depolarizing_noise"),
    ("sqed", "repro.sqed.encodings", "QuditEncoding.trotter_step"),
    ("sqed", "repro.sqed.encodings", "QubitEncoding.trotter_step"),
    ("core.density", "repro.core.density", "DensityMatrix.evolve"),
    ("core.density", "repro.core.density", "DensityMatrix.expectation"),
    ("core.mps", "repro.core.backends", "MPSBackend.run"),
    ("core.mps", "repro.core.backends", "MPSResult.sample"),
    ("core.mps", "repro.core.backends", "MPSResult.expectation"),
    ("core.lpdo", "repro.core.backends", "LPDOBackend.prepare"),
    ("core.lpdo", "repro.core.backends", "LPDOBackend.run"),
    ("core.lpdo", "repro.core.backends", "LPDOResult.expectation"),
    ("qaoa", "repro.qaoa.energy", "state_energy"),
    ("exec", "repro.exec.executor", "CampaignExecutor.submit"),
    ("exec", "repro.exec.executor", "CampaignHandle.result"),
    ("obs", "repro.obs.ledger", "RunLedger.append"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.merge"),
    ("obs", "repro.obs.tracing", "add_events"),
)

_MISSING = object()


def _instructions(args: tuple, kwargs: dict) -> tuple[str, int]:
    """``DensityMatrix.evolve(self, circuit)``: count the circuit's length."""
    circuit = kwargs["circuit"] if "circuit" in kwargs else args[1]
    return "core.density.instructions", len(circuit)


# Counters taken from a call's arguments, keyed by attribute path.
_COUNTERS: dict[str, Callable[[tuple, dict], tuple[str, int]]] = {
    "DensityMatrix.evolve": _instructions,
}


class LayerTracer:
    """In-memory spans and per-layer self time over one timed phase."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        # Open frames: [span id, layer, start ns, ns covered by children].
        self._stack: list[list[Any]] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------
    def install(self) -> None:
        for layer, module_name, path in BOUNDARIES:
            module = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if not callable(original):
                raise TypeError(f"{module_name}.{path} is not callable")
            self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
            setattr(owner, attr, self._wrap(original, layer, path))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, saved = self._undo.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def _wrap(self, original: Callable, layer: str, path: str) -> Callable:
        counter = _COUNTERS.get(path)
        name = f"{layer}:{path}"

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if counter is not None:
                key, amount = counter(args, kwargs)
                self.counts[key] += amount
            self._open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(name, path)

        return wrapper

    # -- spans -----------------------------------------------------------
    def _open(self, layer: str) -> None:
        span_id = len(self.spans) + len(self._stack)
        self._stack.append([span_id, layer, time.perf_counter_ns(), 0])

    def _close(self, name: str, path: str | None) -> int:
        end = time.perf_counter_ns()
        span_id, layer, start, covered = self._stack.pop()
        elapsed = end - start
        self.self_ns[layer] += elapsed - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += elapsed
        if path is not None:
            self.calls[path] += 1
            self.inclusive_ns[path] += elapsed
        self.spans.append(
            (span_id, parent[0] if parent else -1, name, layer, start, end)
        )
        return elapsed

    def start(self) -> None:
        """Open the root span of the timed phase."""
        self._open(OTHER)

    def stop(self) -> float:
        """Close the root span; returns the traced wall time in seconds."""
        return self._close("timed-phase", None) / 1e9

    # -- results ---------------------------------------------------------
    def seconds(self, *paths: str) -> float:
        """Inclusive time of the named boundaries, summed."""
        return sum(self.inclusive_ns[p] for p in paths) / 1e9

    def write_spans(self, path: Path) -> int:
        """Write the spans as JSON lines (times in microseconds)."""
        origin = min((s[4] for s in self.spans), default=0)
        with open(path, "w") as fh:
            for span_id, parent, name, layer, start, end in sorted(
                self.spans, key=lambda s: s[4]
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "layer": layer,
                            "start_us": (start - origin) / 1e3,
                            "dur_us": (end - start) / 1e3,
                        }
                    )
                    + "\n"
                )
        return len(self.spans)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics the tracer itself measures."""
        evolve_s = self.seconds("DensityMatrix.evolve")
        instructions = self.counts["core.density.instructions"]
        out = {f"self_s.{layer}": self.self_ns[layer] / 1e9 for layer in LAYERS + (OTHER,)}
        out.update(
            {
                "sqed.noise_study.probes": self.calls["trajectory_damage"],
                "sqed.encodings.build_s": self.seconds(
                    "QuditEncoding.trotter_step",
                    "QubitEncoding.trotter_step",
                    "insert_depolarizing_noise",
                ),
                "core.density.evolve_s": evolve_s,
                "core.density.evolve_calls": self.calls["DensityMatrix.evolve"],
                "core.density.instructions": instructions,
                "core.density.us_per_instruction": (
                    evolve_s * 1e6 / instructions if instructions else 0.0
                ),
                "core.density.expectation_s": self.seconds("DensityMatrix.expectation"),
                "core.mps.run_s": self.seconds("MPSBackend.run"),
                "core.mps.sample_s": self.seconds("MPSResult.sample"),
                "qaoa.energy.state_energy_s": self.seconds("state_energy"),
                "core.lpdo.run_s": self.seconds("LPDOBackend.run"),
                "core.lpdo.run_calls": self.calls["LPDOBackend.run"],
                "core.lpdo.expectation_s": self.seconds("LPDOResult.expectation"),
                "trace.spans": len(self.spans),
            }
        )
        return out
