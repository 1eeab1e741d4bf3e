"""Dense statevector simulator with dynamic qubit allocation.

State indices are little-endian over the live-qubit list: the qubit at live
position t owns bit t of the flat index.  Allocation tensor-extends the
state with |0> (or a dirty seed); deallocation verifies the qubit is
disentangled in the expected state and contracts it out.  Computational
basis states are tracked symbolically until a non-permutation,
non-diagonal gate forces a dense vector, which makes purely classical
fragments (copies, flag ladders) cheap at any width.
"""

from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .amplitudes import AngleSet, CSPAngleSet, PartitionNorms
from .circuit_ir import DIRTY, Circuit, Gate, QubitId
from .config import DEFAULT_MAX_LIVE_QUBITS, DEFAULT_TOLERANCES
from .errors import DeallocNotZero, NormDrift, OperandNotLive, PeakQubitsExceeded

_PERMUTATION_OPS = frozenset({"x", "cnot", "swap", "cswap", "toffoli"})
_DIAGONAL_OPS = frozenset({"s", "sdg", "t", "tdg", "phase", "rz", "crz", "ccrz"})

_DIAG_PHASE = {
    "s": 1j,
    "sdg": -1j,
    "t": cmath.exp(1j * math.pi / 4),
    "tdg": cmath.exp(-1j * math.pi / 4),
}


def max_live_cap() -> int:
    env = os.environ.get("QSPREP_MAX_QUBITS")
    return int(env) if env else DEFAULT_MAX_LIVE_QUBITS


@dataclass
class SimReport:
    fidelity: float | None
    ancilla_verdicts: list = field(default_factory=list)  # (qubit id, layer, residual mass)
    peak_live_qubits: int = 0
    dirty_restoration: list = field(default_factory=list)  # (qubit id, restored ok)
    norm_defect: float = 0.0

    def to_json(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "ancilla_verdicts": [[qid, layer, mass] for qid, layer, mass in self.ancilla_verdicts],
            "peak_live_qubits": self.peak_live_qubits,
            "dirty_restoration": [[qid, bool(ok)] for qid, ok in self.dirty_restoration],
            "norm_defect": self.norm_defect,
        }


class SimState:
    """Statevector over a dynamic set of live qubits."""

    def __init__(self, max_live: int | None = None):
        self.live: list[QubitId] = []
        self._pos: dict[int, int] = {}
        self._vec: np.ndarray | None = None  # dense amplitudes, or None in basis mode
        self._basis: int = 0
        self._phase: complex = 1.0 + 0j
        self.max_live = max_live if max_live is not None else max_live_cap()
        self.peak_live = 0

    # -- representation helpers ------------------------------------------------

    @property
    def num_live(self) -> int:
        return len(self.live)

    def _materialize(self) -> None:
        if self._vec is None:
            vec = np.zeros(1 << self.num_live, dtype=complex)
            vec[self._basis] = self._phase
            self._vec = vec

    def norm_defect(self) -> float:
        if self._vec is None:
            return abs(1.0 - abs(self._phase) ** 2)
        return abs(1.0 - float(np.vdot(self._vec, self._vec).real))

    def dominant_basis(self) -> tuple[int, float]:
        """(most likely computational basis index, its probability)."""
        if self._vec is None:
            return self._basis, abs(self._phase) ** 2
        idx = int(np.argmax(np.abs(self._vec)))
        return idx, float(abs(self._vec[idx]) ** 2)

    def statevector(self, order: list[QubitId]) -> np.ndarray:
        """Amplitudes with order[t] owning bit t; order must be the live set."""
        if sorted(q.id for q in order) != sorted(self._pos):
            raise OperandNotLive("statevector order must match the live qubit set")
        self._materialize()
        L = self.num_live
        tensor = self._vec.reshape((2,) * L)
        axes = [0] * L
        for t, q in enumerate(order):
            axes[L - 1 - t] = L - 1 - self._pos[q.id]
        return tensor.transpose(axes).reshape(-1).copy()

    # -- lifecycle ----------------------------------------------------------------

    def alloc(self, q: QubitId, seed=None) -> None:
        if q.id in self._pos:
            raise OperandNotLive(f"{q} already live")
        if self.num_live + 1 > self.max_live:
            raise PeakQubitsExceeded(f"live qubits would exceed cap {self.max_live}")
        if seed is None:
            seed_vec = None  # clean |0>
        else:
            seed_vec = np.asarray(seed, dtype=complex)
            seed_vec = seed_vec / np.linalg.norm(seed_vec)
        p = self.num_live
        if self._vec is None and seed_vec is None:
            pass  # basis bit stays 0
        elif self._vec is None and abs(seed_vec[0]) in (0.0, 1.0) and (abs(seed_vec[0]) == 1.0 or abs(seed_vec[1]) == 1.0):
            if abs(seed_vec[1]) == 1.0:
                self._basis |= 1 << p
                self._phase *= seed_vec[1]
            else:
                self._phase *= seed_vec[0]
        else:
            self._materialize()
            if seed_vec is None:
                seed_vec = np.array([1.0, 0.0], dtype=complex)
            self._vec = np.concatenate([seed_vec[0] * self._vec, seed_vec[1] * self._vec])
        self.live.append(q)
        self._pos[q.id] = p
        self.peak_live = max(self.peak_live, self.num_live)

    def dealloc(self, q: QubitId, seed=None, enforce: bool = True) -> float:
        """Contract a qubit out, verifying it sits in |0> (or the dirty seed).

        Returns the residual mass outside the expected state.
        """
        p = self._pos.get(q.id)
        if p is None:
            raise OperandNotLive(f"{q} not live")
        L = self.num_live
        if seed is None:
            s0, s1 = 1.0 + 0j, 0.0 + 0j
        else:
            sv = np.asarray(seed, dtype=complex)
            sv = sv / np.linalg.norm(sv)
            s0, s1 = complex(sv[0]), complex(sv[1])
        if self._vec is None:
            bit = (self._basis >> p) & 1
            expected = None
            if abs(s1) == 0.0:
                expected = 0
            elif abs(s0) == 0.0:
                expected = 1
            if expected is not None and bit == expected:
                self._basis = ((self._basis >> (p + 1)) << p) | (self._basis & ((1 << p) - 1))
                amp_ = s0 if expected == 0 else s1
                self._phase *= amp_.conjugate() / abs(amp_)
                residual = 0.0
            elif expected is not None and enforce:
                raise DeallocNotZero(q.id, 1.0)
            else:
                self._materialize()
                return self.dealloc(q, seed, enforce)
        else:
            tensor = self._vec.reshape((2,) * L)
            axis = L - 1 - p
            lo = np.moveaxis(tensor, axis, 0)[0]
            hi = np.moveaxis(tensor, axis, 0)[1]
            comp = np.conj(s0) * lo + np.conj(s1) * hi
            total = float(np.vdot(self._vec, self._vec).real)
            kept = float(np.vdot(comp, comp).real)
            residual = max(total - kept, 0.0)
            if residual > DEFAULT_TOLERANCES.dealloc_mass and enforce:
                raise DeallocNotZero(q.id, residual)
            self._vec = np.ascontiguousarray(comp).reshape(-1)
        self.live.pop(p)
        del self._pos[q.id]
        for qq in self.live[p:]:
            self._pos[qq.id] -= 1
        return residual

    def detach(self, order: list[QubitId]) -> tuple[np.ndarray, float]:
        """Split off a product factor over the given qubits and drop them.

        Verifies the state factorizes (within tolerance) as factor x rest;
        returns (factor amplitudes little-endian over order, defect).
        """
        self._materialize()
        L = self.num_live
        k = len(order)
        tensor = self._vec.reshape((2,) * L)
        axes = []
        for q in reversed(order):
            axes.append(L - 1 - self._pos[q.id])
        rest_axes = [a for a in range(L) if a not in axes]
        mat = tensor.transpose(axes + rest_axes).reshape(1 << k, -1)
        gram = mat @ mat.conj().T
        vals, vecs = np.linalg.eigh(gram)
        top = int(np.argmax(vals))
        total = float(np.trace(gram).real)
        defect = max(total - float(vals[top].real), 0.0)
        factor = vecs[:, top]
        anchor = int(np.argmax(np.abs(factor)))
        factor = factor * (np.abs(factor[anchor]) / factor[anchor])
        rest = factor.conj() @ mat
        # remove the detached qubits, highest position first
        for q in sorted(order, key=lambda q: -self._pos[q.id]):
            p = self._pos[q.id]
            self.live.pop(p)
            del self._pos[q.id]
            for qq in self.live[p:]:
                self._pos[qq.id] -= 1
        self._vec = np.ascontiguousarray(rest).reshape(-1)
        return factor, defect

    # -- gates ---------------------------------------------------------------------

    def apply(self, g: Gate) -> None:
        pos = []
        for q in g.qubits:
            p = self._pos.get(q.id)
            if p is None:
                raise OperandNotLive(f"{q} not live")
            pos.append(p)
        if self._vec is None:
            if g.op in _PERMUTATION_OPS:
                self._apply_basis_perm(g.op, pos)
                return
            if g.op in _DIAGONAL_OPS:
                self._apply_basis_diag(g.op, g.params, pos)
                return
            self._materialize()
        self._apply_dense(g.op, g.params, pos)

    def _apply_basis_perm(self, op: str, pos: list[int]) -> None:
        b = self._basis
        if op == "x":
            b ^= 1 << pos[0]
        elif op == "cnot":
            if (b >> pos[0]) & 1:
                b ^= 1 << pos[1]
        elif op == "toffoli":
            if (b >> pos[0]) & 1 and (b >> pos[1]) & 1:
                b ^= 1 << pos[2]
        elif op == "swap":
            b = self._swap_bits(b, pos[0], pos[1])
        elif op == "cswap":
            if (b >> pos[0]) & 1:
                b = self._swap_bits(b, pos[1], pos[2])
        self._basis = b

    @staticmethod
    def _swap_bits(b: int, i: int, j: int) -> int:
        bi, bj = (b >> i) & 1, (b >> j) & 1
        if bi != bj:
            b ^= (1 << i) | (1 << j)
        return b

    def _apply_basis_diag(self, op: str, params, pos: list[int]) -> None:
        b = self._basis
        if op in _DIAG_PHASE:
            if (b >> pos[0]) & 1:
                self._phase *= _DIAG_PHASE[op]
        elif op == "phase":
            if (b >> pos[0]) & 1:
                self._phase *= cmath.exp(1j * params[0])
        else:  # rz family: controls first, rotation on the last operand
            *controls, tgt = pos
            if all((b >> c) & 1 for c in controls):
                sign = 1.0 if (b >> tgt) & 1 else -1.0
                self._phase *= cmath.exp(0.5j * sign * params[0])

    def _slices(self, fixed: dict[int, int]):
        L = self.num_live
        idx = [slice(None)] * L
        for p, v in fixed.items():
            idx[L - 1 - p] = v
        return tuple(idx)

    def _apply_dense(self, op: str, params, pos: list[int]) -> None:
        L = self.num_live
        tensor = self._vec.reshape((2,) * L)
        if op in ("x", "cnot", "toffoli"):
            *controls, tgt = pos
            fixed = {c: 1 for c in controls}
            i0 = self._slices({**fixed, tgt: 0})
            i1 = self._slices({**fixed, tgt: 1})
            a = tensor[i0].copy()
            tensor[i0] = tensor[i1]
            tensor[i1] = a
        elif op in ("swap", "cswap"):
            *controls, t1, t2 = pos
            fixed = {c: 1 for c in controls}
            i01 = self._slices({**fixed, t1: 0, t2: 1})
            i10 = self._slices({**fixed, t1: 1, t2: 0})
            a = tensor[i01].copy()
            tensor[i01] = tensor[i10]
            tensor[i10] = a
        elif op == "h":
            i0 = self._slices({pos[0]: 0})
            i1 = self._slices({pos[0]: 1})
            a, b = tensor[i0].copy(), tensor[i1].copy()
            r = 1.0 / math.sqrt(2.0)
            tensor[i0] = r * (a + b)
            tensor[i1] = r * (a - b)
        elif op in _DIAG_PHASE:
            tensor[self._slices({pos[0]: 1})] *= _DIAG_PHASE[op]
        elif op == "phase":
            tensor[self._slices({pos[0]: 1})] *= cmath.exp(1j * params[0])
        elif op in ("ry", "cry", "ccry"):
            *controls, tgt = pos
            fixed = {c: 1 for c in controls}
            i0 = self._slices({**fixed, tgt: 0})
            i1 = self._slices({**fixed, tgt: 1})
            a, b = tensor[i0].copy(), tensor[i1].copy()
            cth, sth = math.cos(params[0] / 2), math.sin(params[0] / 2)
            tensor[i0] = cth * a - sth * b
            tensor[i1] = sth * a + cth * b
        elif op in ("rz", "crz", "ccrz"):
            *controls, tgt = pos
            fixed = {c: 1 for c in controls}
            ph = cmath.exp(0.5j * params[0])
            tensor[self._slices({**fixed, tgt: 0})] *= ph.conjugate()
            tensor[self._slices({**fixed, tgt: 1})] *= ph
        else:
            raise ValueError(f"unknown op {op}")


def run(
    c: Circuit,
    dirty_seeds: dict[int, object] | None = None,
    target=None,
    target_order: list[QubitId] | None = None,
    max_live: int | None = None,
    detach_plan: list[tuple[int, list[QubitId]]] | None = None,
    enforce_dealloc: bool = True,
    basis_prep: set[int] | None = None,
) -> tuple[SimReport, SimState]:
    """Execute a circuit layer by layer.

    dirty_seeds maps qubit ids to single-qubit seed states for dirty
    allocations; the same seed is enforced at deallocation.  detach_plan
    lists (after_layer, qubits) product factors to split off mid-run, used
    by the multi-copy scheduler to keep the live width bounded.  basis_prep
    ids get an X right after allocation (basis-state enumeration).  When
    target and target_order are given the report carries
    |<target|final restricted state>|.
    """
    dirty_seeds = dirty_seeds or {}
    c = c.compact()
    state = SimState(max_live=max_live)
    report = SimReport(fidelity=None)
    L = c.num_layers()
    detach_at: dict[int, list[list[QubitId]]] = {}
    detached: list[np.ndarray] = []
    if detach_plan:
        for after_layer, qs in detach_plan:
            detach_at.setdefault(after_layer, []).append(list(qs))

    def seed_for(q: QubitId):
        if q.kind == DIRTY:
            return dirty_seeds.get(q.id, (1.0, 0.0))
        return None

    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        for q in deallocs:
            seed = seed_for(q)
            residual = state.dealloc(q, seed=seed, enforce=enforce_dealloc)
            report.ancilla_verdicts.append((q.id, t, residual))
            if q.kind == DIRTY:
                report.dirty_restoration.append((q.id, residual <= DEFAULT_TOLERANCES.dealloc_mass))
        for q in allocs:
            state.alloc(q, seed=seed_for(q))
            if basis_prep and q.id in basis_prep:
                state.apply(Gate("x", (), (q,)))
        if t == L:
            break
        for g in c.layers[t]:
            state.apply(g)
        if enforce_dealloc and (state.num_live <= 18 or t % 16 == 0):
            defect = state.norm_defect()
            if defect > DEFAULT_TOLERANCES.norm_drift:
                raise NormDrift(f"norm defect {defect:.3e} after layer {t}")
        for qs in detach_at.get(t, []):
            factor, defect = state.detach(qs)
            if defect > 1e-8:
                raise DeallocNotZero(tuple(q.id for q in qs), defect,
                                     f"detached register not a product factor (defect {defect:.3e})")
            detached.append(factor)

    report.peak_live_qubits = state.peak_live
    report.norm_defect = state.norm_defect()
    if detach_plan is not None:
        report.detached = detached  # type: ignore[attr-defined]
    if target is not None and target_order is not None:
        out = state.statevector(target_order)
        tvec = np.asarray(target, dtype=complex)
        tvec = tvec / np.linalg.norm(tvec)
        report.fidelity = float(abs(np.vdot(tvec, out)))
    return report, state


# -- independent oracles --------------------------------------------------------

def pair_index(s: int, p: int) -> int:
    """Flat position of angle pair (s, p) in level-concatenated register order."""
    return (1 << s) - 1 + p


def flag_oracle(j: int, m: int) -> dict[tuple[int, int], int]:
    """f[(s, p)] = 1 iff p = j mod 2**s, for 0 <= j < 2**m."""
    if not 0 <= j < (1 << m):
        raise ValueError(f"j={j} outside [0, {1 << m})")
    return {(s, p): int(p == j % (1 << s)) for s in range(m) for p in range(1 << s)}


def _kron_le(factors: list[np.ndarray]) -> np.ndarray:
    """Tensor single-qubit factors so factors[t] owns bit t."""
    vec = np.array([1.0 + 0j])
    for f in factors:
        vec = np.kron(np.asarray(f, dtype=complex), vec)
    return vec


def _angle_state(theta: float) -> np.ndarray:
    return np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)


def spf_oracle(y: PartitionNorms, angles: AngleSet) -> np.ndarray:
    """Target state of the injection fragment, built from the definitions alone.

    Returns sum_j (y_j/||y||) |j> (x) |g_j> over [m data bits, then the
    2**m - 1 angle qubits in pair order], with no circuit involved.
    """
    m = y.m
    norm = float(np.linalg.norm(y.values))
    out = np.zeros((1 << ((1 << m) - 1), 1 << m), dtype=complex)
    for j in range(1 << m):
        f = flag_oracle(j, m)
        factors = [
            np.array([1.0, 0.0], dtype=complex) if f[(s, p)] else _angle_state(angles.theta(s, p))
            for s in range(m)
            for p in range(1 << s)
        ]
        out[:, j] = (y.values[j] / norm) * _kron_le(factors)
    return out.reshape(-1)


def loadf_oracle(angles: CSPAngleSet, k: int, flags) -> np.ndarray:
    """Buffer state (x)_{s,p} Ry(f_sp * theta^(k)_sp)|0> in pair order.

    flags maps (s, p) -> bit (or is a flat sequence in pair order).  When
    the angle set carries phases, the bottom level states pick up the
    per-entry arguments exactly as the loader would imprint them.
    """
    sub = angles.sub_levels
    if not isinstance(flags, dict):
        flat = list(flags)
        flags = {(s, p): flat[pair_index(s, p)] for s in range(sub) for p in range(1 << s)}
    factors = []
    for s in range(sub):
        for p in range(1 << s):
            if not flags[(s, p)]:
                factors.append(np.array([1.0, 0.0], dtype=complex))
                continue
            vec = _angle_state(angles.theta(k, s, p))
            if angles.phases is not None and s == sub - 1:
                vec = vec * np.exp(1j * np.array([angles.phases[k, 2 * p], angles.phases[k, 2 * p + 1]]))
            factors.append(vec)
    return _kron_le(factors)


# -- dense unitaries for decomposition checks ------------------------------------

def gate_unitary(op: str, params=()) -> np.ndarray:
    """Unitary of a single gate; operand t owns bit t of the index."""
    from .circuit_ir import GATE_SIGNATURES

    nq, _ = GATE_SIGNATURES[op]
    dim = 1 << nq
    U = np.zeros((dim, dim), dtype=complex)
    qs = [QubitId(i) for i in range(nq)]
    for i in range(dim):
        st = SimState(max_live=nq + 1)
        for q in qs:
            st.alloc(q)
        st._materialize()
        st._vec[:] = 0
        st._vec[i] = 1.0
        st._apply_dense(op, tuple(params), list(range(nq)))
        U[:, i] = st._vec
    return U


def block_unitary(gates: list[Gate], qubit_order: list[QubitId]) -> np.ndarray:
    """Unitary of a gate list on a small block; qubit_order[t] owns bit t."""
    k = len(qubit_order)
    pos = {q.id: t for t, q in enumerate(qubit_order)}
    dim = 1 << k
    U = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        st = SimState(max_live=k + 1)
        for q in qubit_order:
            st.alloc(q)
        st._materialize()
        st._vec[:] = 0
        st._vec[i] = 1.0
        for g in gates:
            st._apply_dense(g.op, g.params, [pos[q.id] for q in g.qubits])
        U[:, i] = st._vec
    return U
