"""Density-matrix simulation for noisy qudit circuits.

Exact (non-stochastic) noisy simulation: the state is a full density
matrix, and each circuit is compiled once per circuit into fused
Liouville/Kraus/diagonal blocks (:class:`DensityPlan`, cached on the
circuit and rebuilt after any mutation).  Compilation lowers every
``unitary``, ``channel`` and ``reset`` instruction to a local map on its
wires (``measure`` markers are skipped) and fuses adjacent maps while one
map's wires are a subset of the other's, so no block is wider than the
circuit's widest instruction.  Each block of joint dimension ``d_b`` then
runs in its cheapest form:

* all Kraus operators diagonal (dephasing, ZZ, SNAP, Kerr): one
  elementwise multiply;
* ``d_b^2 <= sum_i 2 m_i d_i`` (the Kraus-form cost of its maps, ``m_i``
  operators of dimension ``d_i`` each): one matmul with the Liouville
  superoperator ``sum_k K_k (x) conj(K_k)``;
* otherwise Kraus form ``sum_k K_k rho K_k†`` through the structured
  statevector kernels — a unitary-only block as one fused ``U rho U†`` —
  which keeps large-``d`` registers off superoperators.

Memory is ``O(D^2)``, so this backend is for small registers; larger noisy
circuits use :mod:`repro.core.trajectories`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import lru_cache
from typing import NamedTuple, Protocol

import numpy as np

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .channels import QuditChannel
from .circuit import Instruction, QuditCircuit
from .dims import digits_to_index, index_to_digits, total_dim, validate_dims
from .exceptions import DimensionError
from .rng import ensure_rng, sanitize_probabilities
from .statevector import Statevector, apply_matrix, broadcast_over_targets
from .structure import DIAGONAL, GateStructure, classify_gate

__all__ = ["DensityMatrix", "DensityPlan"]

Wires = tuple[int, ...]


def _joint_dim(dims: Sequence[int], wires: Sequence[int]) -> int:
    out = 1
    for w in wires:
        out *= dims[w]
    return out


class _Map(NamedTuple):
    """One instruction as a local CPTP map on its wires."""

    wires: Wires
    #: Stacked Kraus operators, shape ``(m, d, d)``.
    kraus: np.ndarray
    diagonal: bool
    #: Telemetry label: the gate structure of a unitary, else the channel
    #: family (``"diagonal"``, ``"kraus"``, ``"reset"``).
    kind: str
    #: Cached classification of a unitary (``None`` for channels).
    structure: GateStructure | None = None

    @property
    def unitary(self) -> bool:
        return self.structure is not None

    @property
    def cost(self) -> int:
        """Kraus-form cost per density-matrix element, ``2 m d``."""
        m, d, _ = self.kraus.shape
        return 2 * m * d


def _unitary_map(wires: Wires, structure: GateStructure) -> _Map:
    return _Map(
        wires,
        structure.matrix[None],
        structure.kind == DIAGONAL,
        structure.kind,
        structure,
    )


def _channel_map(wires: Wires, kraus: np.ndarray, kind: str | None = None) -> _Map:
    d = kraus.shape[1]
    diagonal = not kraus[:, ~np.eye(d, dtype=bool)].any()
    if kind is None:
        kind = DIAGONAL if diagonal else "kraus"
    return _Map(wires, kraus, diagonal, kind)


@lru_cache(maxsize=None)
def _reset_kraus(d: int) -> np.ndarray:
    """``|0><k|`` for every level ``k``: trace a wire out, re-prepare ``|0>``."""
    ops = np.zeros((d, d, d), dtype=complex)
    ops[np.arange(d), 0, np.arange(d)] = 1.0
    ops.setflags(write=False)
    return ops


def _wires(targets: int | Sequence[int]) -> Wires:
    if isinstance(targets, (int, np.integer)):
        return (int(targets),)
    return tuple(int(t) for t in targets)


def _instruction_map(instruction: Instruction, dims: Wires) -> _Map | None:
    wires = instruction.qudits
    if instruction.kind == "unitary":
        structure = instruction.structure()
        assert structure is not None
        return _unitary_map(wires, structure)
    if instruction.kind == "channel":
        assert instruction.kraus is not None
        return _channel_map(wires, np.stack(instruction.kraus))
    if instruction.kind == "reset":
        return _channel_map(wires, _reset_kraus(dims[wires[0]]), "reset")
    return None  # measure markers leave rho unchanged


def _embed(kraus: np.ndarray, dims: Wires, wires: Wires, sub: Wires) -> np.ndarray:
    """Kraus stack acting on ``sub`` lifted to the (superset) ``wires``."""
    if sub == wires:
        return kraus
    rest = [w for w in wires if w not in sub]
    order = list(sub) + rest
    axis_dims = [dims[w] for w in order]
    m = kraus.shape[0]
    full = np.einsum("kab,cd->kacbd", kraus, np.eye(_joint_dim(dims, rest)))
    full = full.reshape([m] + axis_dims + axis_dims)
    src = [1 + order.index(w) for w in wires]
    full = full.transpose([0] + src + [len(wires) + i for i in src])
    d_block = _joint_dim(dims, wires)
    return full.reshape(m, d_block, d_block)


class _Kernel(Protocol):
    def apply(self, tensor: np.ndarray) -> np.ndarray: ...


class _Diagonal:
    """All-diagonal block: ``rho[a, b] *= sum_k K_k[a] conj(K_k[b])``, fused."""

    __slots__ = ("factor",)

    def __init__(self, dims: Wires, maps: Sequence[_Map]) -> None:
        n = len(dims)
        factor = np.ones((1,) * (2 * n), dtype=complex)
        for m in maps:
            diags = np.diagonal(m.kraus, axis1=1, axis2=2)
            weight = diags.T @ diags.conj()  # ket level x bra level
            axes = list(m.wires) + [w + n for w in m.wires]
            factor = factor * broadcast_over_targets(
                weight.reshape(-1), dims + dims, axes
            )
        self.factor = factor

    def apply(self, tensor: np.ndarray) -> np.ndarray:
        return tensor * self.factor


class _Liouville:
    """Block as one matmul with its ``d_b^2 x d_b^2`` superoperator.

    The precomputed permutation moves the block's ket and bra axes to the
    front of the ``dims + dims`` tensor of rho, so the superoperator acts
    on the leading ``d_b^2`` rows; its inverse restores the layout.
    """

    __slots__ = ("superop", "perm", "inverse", "shape")

    def __init__(self, dims: Wires, wires: Wires, maps: Sequence[_Map]) -> None:
        d_block = _joint_dim(dims, wires)
        rows = d_block * d_block
        superop: np.ndarray | None = None
        for m in maps:
            kraus = _embed(m.kraus, dims, wires, m.wires)
            # S[(a, b), (c, d)] = sum_k K_k[a, c] conj(K_k[b, d])
            step = np.tensordot(kraus, kraus.conj(), axes=(0, 0))
            step = step.transpose(0, 2, 1, 3).reshape(rows, rows)
            superop = step if superop is None else step @ superop
        assert superop is not None
        n = len(dims)
        front = list(wires) + [w + n for w in wires]
        perm = front + [ax for ax in range(2 * n) if ax not in front]
        full = dims + dims
        self.superop = superop
        self.perm = tuple(perm)
        self.inverse = tuple(int(ax) for ax in np.argsort(perm))
        self.shape = tuple(full[ax] for ax in perm)

    def apply(self, tensor: np.ndarray) -> np.ndarray:
        moved = tensor.transpose(self.perm).reshape(self.superop.shape[0], -1)
        return (self.superop @ moved).reshape(self.shape).transpose(self.inverse)


class _Kraus:
    """``sum_k K_k rho K_k†`` on one map's wires, each operator applied to
    the ket axes and its conjugate to the bra axes by the structured
    statevector kernels (diagonal / permutation / dense)."""

    __slots__ = ("dims", "ket", "bra", "terms")

    def __init__(self, dims: Wires, m: _Map) -> None:
        n = len(dims)
        structures = (
            (m.structure,)
            if m.structure is not None
            else tuple(classify_gate(op) for op in m.kraus)
        )
        self.dims = dims + dims
        self.ket = list(m.wires)
        self.bra = [w + n for w in m.wires]
        self.terms = tuple((s, s.conj()) for s in structures)

    def _term(
        self, tensor: np.ndarray, op: GateStructure, op_conj: GateStructure
    ) -> np.ndarray:
        ket = apply_matrix(tensor, op.matrix, self.dims, self.ket, op)
        return apply_matrix(ket, op_conj.matrix, self.dims, self.bra, op_conj)

    def apply(self, tensor: np.ndarray) -> np.ndarray:
        out = self._term(tensor, *self.terms[0])
        for op, op_conj in self.terms[1:]:
            out += self._term(tensor, op, op_conj)
        return out


def _fuse(maps: Sequence[_Map]) -> list[tuple[Wires, list[_Map]]]:
    """Group adjacent maps while one's wires are a subset of the other's."""
    blocks: list[tuple[Wires, list[_Map]]] = []
    for m in maps:
        if blocks:
            wires, members = blocks[-1]
            if set(m.wires) <= set(wires):
                members.append(m)
                continue
            if set(wires) <= set(m.wires):
                members.append(m)
                blocks[-1] = (m.wires, members)
                continue
        blocks.append((m.wires, [m]))
    return blocks


def _lower(dims: Wires, wires: Wires, maps: Sequence[_Map]) -> list[_Kernel]:
    """The cheapest kernel(s) for one fused block."""
    if all(m.diagonal for m in maps):
        return [_Diagonal(dims, maps)]
    d_block = _joint_dim(dims, wires)
    if d_block * d_block <= sum(m.cost for m in maps):
        return [_Liouville(dims, wires, maps)]
    if len(maps) == 1:
        return [_Kraus(dims, maps[0])]
    if all(m.unitary for m in maps):
        fused = np.eye(d_block, dtype=complex)
        for m in maps:
            fused = _embed(m.kraus, dims, wires, m.wires)[0] @ fused
        return [_Kraus(dims, _unitary_map(wires, classify_gate(fused)))]
    # Too wide for a superoperator: each map in its own cheapest form.
    return [kernel for m in maps for kernel in _lower(dims, m.wires, [m])]


class DensityPlan:
    """A sequence of local maps compiled once into fused block kernels.

    ``run`` applies the kernels in order to the ``dims + dims`` tensor of
    rho; nothing is classified, embedded or planned per call.  Circuits
    cache their plan (:meth:`QuditCircuit.cached_plan`), so repeated
    ``evolve`` calls on an unchanged circuit compile once.
    """

    __slots__ = ("dims", "kernels", "instructions", "gate_counts", "channel_counts")

    def __init__(self, dims: Wires, maps: Sequence[_Map]) -> None:
        self.dims = dims
        self.kernels: tuple[_Kernel, ...] = tuple(
            kernel
            for wires, block in _fuse(maps)
            for kernel in _lower(dims, wires, block)
        )
        self.instructions = len(maps)
        self.gate_counts = Counter(m.kind for m in maps if m.unitary)
        self.channel_counts = Counter(m.kind for m in maps if not m.unitary)

    @classmethod
    def compile(cls, circuit: QuditCircuit) -> DensityPlan:
        """Lower and fuse every instruction of ``circuit``."""
        maps = [_instruction_map(ins, circuit.dims) for ins in circuit]
        return cls(circuit.dims, [m for m in maps if m is not None])

    def run(self, matrix: np.ndarray) -> np.ndarray:
        """Evolve a ``(D, D)`` density matrix; the input is not modified."""
        tensor = matrix.reshape(self.dims + self.dims)
        for kernel in self.kernels:
            tensor = kernel.apply(tensor)
        return tensor.reshape(matrix.shape)

    def record(self) -> None:
        """Count this run's applies (once per run, not per instruction)."""
        for kind, count in self.gate_counts.items():
            _metrics.inc("gate_applies", count, backend="density", kind=kind)
        for kind, count in self.channel_counts.items():
            _metrics.inc("channel_applies", count, backend="density", kind=kind)


class DensityMatrix:
    """A (possibly mixed) state of a mixed-dimension qudit register."""

    def __init__(self, data: np.ndarray, dims: Sequence[int]) -> None:
        self.dims = validate_dims(dims)
        dim = total_dim(self.dims)
        data = np.asarray(data, dtype=complex)
        if data.shape != (dim, dim):
            raise DimensionError(
                f"density matrix shape {data.shape} != ({dim}, {dim})"
            )
        self._matrix = data

    @classmethod
    def _wrap(cls, matrix: np.ndarray, dims: Wires) -> DensityMatrix:
        """A state around an already-checked matrix (no re-validation)."""
        state = cls.__new__(cls)
        state.dims = dims
        state._matrix = matrix
        return state

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, dims: Sequence[int]) -> DensityMatrix:
        """All-|0> pure state as a density matrix."""
        return cls.from_statevector(Statevector.zero(dims))

    @classmethod
    def basis(cls, dims: Sequence[int], digits: Sequence[int]) -> DensityMatrix:
        """Computational-basis pure state ``|digits><digits|``."""
        return cls.from_statevector(Statevector.basis(dims, digits))

    @classmethod
    def from_statevector(cls, state: Statevector) -> DensityMatrix:
        """``|psi><psi|`` from a pure state."""
        vec = state.vector
        return cls(np.outer(vec, vec.conj()), state.dims)

    @classmethod
    def maximally_mixed(cls, dims: Sequence[int]) -> DensityMatrix:
        """``I / D``."""
        dims = validate_dims(dims)
        dim = total_dim(dims)
        return cls(np.eye(dim, dtype=complex) / dim, dims)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The raw density matrix."""
        return self._matrix

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self._matrix.shape[0]

    def copy(self) -> DensityMatrix:
        """Deep copy."""
        return DensityMatrix._wrap(self._matrix.copy(), self.dims)

    def trace(self) -> float:
        """Real part of the trace (1 for physical states)."""
        return float(np.real(np.trace(self._matrix)))

    def purity(self) -> float:
        """``Tr(rho^2)``; 1 iff pure."""
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def _run(self, plan: DensityPlan) -> DensityMatrix:
        if _metrics.enabled or _tracing.enabled:
            plan.record()
            with _tracing.span(
                "density_evolve",
                backend="density",
                blocks=len(plan.kernels),
                instructions=plan.instructions,
            ):
                return DensityMatrix._wrap(plan.run(self._matrix), self.dims)
        return DensityMatrix._wrap(plan.run(self._matrix), self.dims)

    def _apply_map(self, m: _Map) -> DensityMatrix:
        """One-instruction plan, after checking wires and operator shape."""
        n = len(self.dims)
        if len(set(m.wires)) != len(m.wires) or not all(0 <= w < n for w in m.wires):
            raise DimensionError(f"invalid target wires {m.wires} for {n} qudits")
        d = _joint_dim(self.dims, m.wires)
        if m.kraus.shape[1:] != (d, d):
            raise DimensionError(
                f"operator shape {m.kraus.shape[1:]} != ({d}, {d}) on wires {m.wires}"
            )
        return self._run(DensityPlan(self.dims, [m]))

    def apply_unitary(
        self, matrix: np.ndarray, targets: int | Sequence[int]
    ) -> DensityMatrix:
        """Conjugate by a local unitary: ``U rho U†``."""
        structure = classify_gate(np.asarray(matrix, dtype=complex))
        return self._apply_map(_unitary_map(_wires(targets), structure))

    def apply_kraus(
        self, kraus: Sequence[np.ndarray], targets: int | Sequence[int]
    ) -> DensityMatrix:
        """Apply a Kraus channel on local targets."""
        stack = np.stack([np.asarray(k, dtype=complex) for k in kraus])
        return self._apply_map(_channel_map(_wires(targets), stack))

    def apply_channel(
        self, channel: QuditChannel, targets: int | Sequence[int]
    ) -> DensityMatrix:
        """Apply a :class:`QuditChannel` on local targets."""
        return self.apply_kraus(channel.kraus, targets)

    def evolve(self, circuit: QuditCircuit) -> DensityMatrix:
        """Run a circuit, honouring unitary, channel, and reset instructions.

        The circuit's :class:`DensityPlan` is compiled on first use and
        cached on the circuit until it is next mutated; ``measure``
        markers leave the state unchanged.
        """
        if circuit.dims != self.dims:
            raise DimensionError(
                f"circuit dims {circuit.dims} != state dims {self.dims}"
            )
        return self._run(circuit.cached_plan("density", DensityPlan.compile))

    def _reset_wire(self, qudit: int) -> DensityMatrix:
        """Trace out one wire and re-prepare it in |0>."""
        kraus = _reset_kraus(self.dims[qudit])
        return self._apply_map(_channel_map((int(qudit),), kraus, "reset"))

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Diagonal of rho — computational-basis outcome probabilities."""
        return np.real(np.diag(self._matrix)).clip(min=0.0)

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> complex:
        """``Tr(rho O)`` for a global (``targets=None``) or local operator."""
        op = np.asarray(operator, dtype=complex)
        if targets is None:
            if op.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"global operator shape {op.shape} != ({self.dim}, {self.dim})"
                )
            return complex(np.trace(self._matrix @ op))
        if isinstance(targets, (int, np.integer)):
            targets = (int(targets),)
        reduced = self.partial_trace(list(targets))
        return complex(np.trace(reduced @ op))

    def fidelity_with_pure(self, state: Statevector) -> float:
        """``<psi| rho |psi>`` against a pure reference state."""
        if state.dims != self.dims:
            raise DimensionError("fidelity requires matching register dims")
        vec = state.vector
        return float(np.real(vec.conj() @ self._matrix @ vec))

    def partial_trace(self, keep: Sequence[int]) -> np.ndarray:
        """Reduced density matrix over ``keep`` wires (in the given order)."""
        keep = list(keep)
        n = len(self.dims)
        others = [ax for ax in range(n) if ax not in keep]
        tensor = self._matrix.reshape(self.dims + self.dims)
        perm = keep + others + [k + n for k in keep] + [o + n for o in others]
        tensor = np.transpose(tensor, perm)
        d_keep = int(np.prod([self.dims[a] for a in keep])) if keep else 1
        d_rest = int(np.prod([self.dims[a] for a in others])) if others else 1
        tensor = tensor.reshape(d_keep, d_rest, d_keep, d_rest)
        return np.einsum("arbr->ab", tensor)

    def sample(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[tuple[int, ...], int]:
        """Sample computational-basis outcomes from the diagonal."""
        rng = ensure_rng(rng)
        # The diagonal of rho carries tiny negative entries from float
        # rounding; rng.multinomial raises on them, so clip-and-normalise
        # through the shared helper.
        probs = sanitize_probabilities(np.real(np.diag(self._matrix)))
        outcomes = rng.multinomial(shots, probs)
        counts: dict[tuple[int, ...], int] = {}
        for index in np.nonzero(outcomes)[0]:
            counts[index_to_digits(int(index), self.dims)] = int(outcomes[index])
        return counts

    def probability_of(self, digits: Sequence[int]) -> float:
        """Probability of one specific basis outcome."""
        index = digits_to_index(digits, self.dims)
        return float(np.real(self._matrix[index, index]))
