"""Reference implementations the tests compare the package against.

Each is built from a definition alone, with no circuit or streaming
writer involved:

* hand-built circuits as ``Gate`` tuples: :func:`gate` makes one,
  :func:`place`, :func:`append` and :func:`append_layer` put them in (thin
  wrappers over the circuit's column entries) and :func:`gates` reads a
  layer back;
* the decomposition rules into CNOT and single-qubit gates
  (``DECOMPOSITIONS``) and the ASAP rewrite of a circuit by them
  (:func:`expand`), which any per-op price in a gate set is checked against;
* the circuit JSON document as lists and dicts (:func:`to_json_dict`),
  which ``circuit_ir.json_chunks`` must write byte for byte, and any
  hand-built document as that text (:func:`circuit_json`);
* the IR's whole-circuit walks, one gate or one qubit at a time: the
  faults ``Circuit.validate`` reports, each qubit's latest layer, the live
  profile and the ``ResourceReport``;
* the lifecycle rules one id at a time: what placing or releasing a
  batch raises;
* the rotation angle on pair (s, p), from the masses of a congruence class;
* CNOT copy trees, a slot at a time: their qubit ids, CNOTs and registers;
* the fragments' target states: the FLAG marking, the SPF injection state
  and the LOADF buffer state;
* a dense statevector oracle, from the gates' textbook unitaries: the
  unitaries of single gates and small gate lists (for decomposition and
  time-reversal checks) and whole runs with allocation, release and
  residuals, which the sparse simulator must match.
"""

import json
import math
from itertools import islice
from typing import NamedTuple

import numpy as np

from qsprep.amplitudes import AngleSet, CSPAngleSet, PartitionNorms
from qsprep.circuit_ir import (_ARITY, _OPS, DIRTY, NEVER, ROTATION_OPS, Circuit, GateSetModel, Register,
                               ResourceReport, _pack)
from qsprep.errors import DoubleDealloc, IndexOutOfRange, LayerCollision, OperandNotLive, UseAfterDealloc

# -- hand-built circuits ----------------------------------------------------------


class Gate(NamedTuple):
    op: str
    params: tuple
    qubits: tuple


def gate(op: str, qubits, *params) -> Gate:
    """A gate of a hand-built circuit, its parameters as floats; its rules are checked
    where it is put in."""
    return Gate(op, tuple(map(float, params)), tuple(qubits))


def place(c: Circuit, batch: list[Gate], layer: int) -> int:
    """Put a batch of gates of any ops at one layer: packed into columns (``_pack``), then
    placed as one batch (``Circuit._place``), with their rules and errors."""
    if not batch:
        return layer
    ops, params, qubits = zip(*batch)
    return c._place(*_pack(ops, params, qubits, layer), layer)


def append(c: Circuit, g: Gate) -> int:
    """Place one gate ASAP: at the earliest layer after each operand's latest layer."""
    n = len(c.qubits())
    return place(c, [g], max((c.last_use_layer(q) + 1 for q in g.qubits if 0 <= q < n), default=0))


def append_layer(c: Circuit, batch: list[Gate]) -> int:
    """Add ``batch`` as a new last layer and return its index.  Only what the columns
    cannot hold is checked (``_pack``), so a hand-built layer may break liveness, which
    ``validate`` reports.  Each operand that is a qubit gets the layer as its latest,
    unless it has a later one, so :func:`append` goes after it."""
    t = c.num_layers()
    c._extend(t, *_pack(*(zip(*batch) if batch else ((), (), ())), t))
    ids = np.frombuffer(c._qs[t], np.intc)
    np.maximum.at(np.frombuffer(c._last_use, np.intc), ids[(ids >= 0) & (ids < len(c._last_use))], t)
    return t


def gates(c: Circuit, t: int) -> list[Gate]:
    """Layer ``t``'s gates as ``Gate`` tuples, in the order they were placed."""
    ids, values = iter(c._qs[t]), iter(c._ps[t])
    return [Gate(_OPS[code], tuple(islice(values, _ARITY[code][1])), tuple(islice(ids, _ARITY[code][0])))
            for code in c._ops[t]]


# -- gate-set expansion -----------------------------------------------------------


def _swap_rule(g: Gate):
    a, b = g.qubits
    return [gate("cnot", (a, b)), gate("cnot", (b, a)), gate("cnot", (a, b))]


def _toffoli_rule(g: Gate):
    a, b, t = g.qubits
    return [
        gate("h", (t,)),
        gate("cnot", (b, t)),
        gate("tdg", (t,)),
        gate("cnot", (a, t)),
        gate("t", (t,)),
        gate("cnot", (b, t)),
        gate("tdg", (t,)),
        gate("cnot", (a, t)),
        gate("t", (b,)),
        gate("t", (t,)),
        gate("cnot", (a, b)),
        gate("h", (t,)),
        gate("tdg", (b,)),
        gate("cnot", (a, b)),
        gate("t", (a,)),
    ]


def _cswap_rule(g: Gate):
    c_, a, b = g.qubits
    return [gate("cnot", (b, a)), gate("toffoli", (c_, a, b)), gate("cnot", (b, a))]


def _controlled_rot_rule(g: Gate):
    theta = g.params[0]
    axis = "ry" if g.op.endswith("ry") else "rz"
    if len(g.qubits) == 2:
        c_, t = g.qubits
        flip = [gate("cnot", (c_, t))]
    else:
        c1, c2, t = g.qubits
        flip = [gate("toffoli", (c1, c2, t))]
    t = g.qubits[-1]
    return flip + [gate(axis, (t,), -theta / 2)] + flip + [gate(axis, (t,), theta / 2)]


DECOMPOSITIONS = {
    "swap": _swap_rule,
    "toffoli": _toffoli_rule,
    "cswap": _cswap_rule,
    "cry": _controlled_rot_rule,
    "crz": _controlled_rot_rule,
    "ccry": _controlled_rot_rule,
    "ccrz": _controlled_rot_rule,
}

#: the expansion target keeps single-qubit rotations symbolic; the discrete-set
#: cost of a rotation is charged through GateSetModel instead of synthesized.
U2_CNOT = frozenset({"x", "h", "s", "sdg", "t", "tdg", "ry", "rz", "phase", "cnot"})


def expand_gate(g: Gate, allowed: frozenset) -> list[Gate]:
    if g.op in allowed:
        return [g]
    out = []
    for sub in DECOMPOSITIONS[g.op](g):
        out.extend(expand_gate(sub, allowed))
    return out


def expand(c: Circuit) -> Circuit:
    """Rewrite composite gates into U2_CNOT, repacking ASAP.

    Lifecycle events are carried over at the matching points of the new
    schedule so allocation stays just-in-time.  A layer's allocations are
    made before its deallocations, so a qubit with an empty lifetime is
    released at the layer it is allocated.
    """
    c = c.compact()
    out = Circuit()
    out.meta = dict(c.meta)
    id_map: list[int] = [0] * len(c.qubits())
    L = c.num_layers()
    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        frontier = out.num_layers()
        for q in allocs:
            id_map[q] = out.alloc(c.kind(q), at_layer=frontier)
        for q in deallocs:
            out.dealloc(id_map[q])
        if t == L:
            break
        for g in gates(c, t):
            for sub in expand_gate(g, U2_CNOT):
                append(out, Gate(sub.op, sub.params, tuple(map(id_map.__getitem__, sub.qubits))))
    out.mark_persistent(map(id_map.__getitem__, c.persistent()))
    out.registers = {k: Register(map(id_map.__getitem__, v)) for k, v in c.registers.items()}
    return out


# -- the circuit JSON document -------------------------------------------------


def _layer_json(layer: list[Gate]) -> list[dict]:
    return [{"op": g.op, "params": list(g.params), "qubits": list(g.qubits)} for g in layer]


def to_json_dict(c: Circuit) -> dict:
    """The circuit JSON as a tree of lists and dicts: the reference ``json_chunks`` matches."""
    c = c.compact()
    return {
        "layers": [_layer_json(gates(c, t)) for t in range(c.num_layers())],
        "alloc": [[q, a, c.kind(q)] for q, a in enumerate(c._alloc)],
        "dealloc": [[i, d] for i, d in enumerate(c._dealloc) if d != NEVER],
        "persistent": sorted(c._persistent),
        "registers": {name: list(qs) for name, qs in c.registers.items()},
    }


def circuit_json(doc: dict) -> str:
    """A circuit document as the text ``circuit_ir.write`` writes, the only text
    ``circuit_ir.loads`` reads: its five keys sorted and no whitespace, with an empty
    ``persistent`` list and ``registers`` object where the document leaves them out."""
    return json.dumps({"persistent": [], "registers": {}, **doc}, sort_keys=True, separators=(",", ":"))


# -- the whole-circuit walks, plainly -------------------------------------------


def fault_messages(c: Circuit) -> list[str]:
    """What ``c.validate()`` reports: each qubit whose lifetime leaves 0 <= alloc <= dealloc
    <= the layer count; then, per layer, every gate's infinite or NaN parameters and
    repeated operand, then each gate's distinct operands that are not live there
    (:func:`place_oracle`'s words) or in an earlier gate of the layer; then each
    persistent or register id that is no qubit, and each repeated register id; then
    each qubit never released that is not persistent."""
    n, L = len(c.qubits()), c.num_layers()
    out = []
    for q in c.qubits():
        a, d = c.alloc_layer(q), c.dealloc_layer(q)
        if not 0 <= a <= L:
            out.append(f"qubit {q} allocated at {a}, outside layers 0..{L}")
        elif d is not None and not a <= d <= L:
            out.append(f"qubit {q} lifetime [{a}, {d}] leaves layers 0..{L}")
    for t in range(L):
        operands = []
        for g in gates(c, t):
            out += [f"layer {t}: {g.op} parameter {p!r} is not a finite float" for p in g.params
                    if not math.isfinite(p)]
            if len(set(g.qubits)) < len(g.qubits):
                out.append(f"layer {t}: {g.op} repeats an operand: {list(g.qubits)}")
            operands += dict.fromkeys(g.qubits)
        seen = set()
        for q in operands:
            fault = _liveness_fault(c, q, t)
            if fault is None and q in seen:
                fault = LayerCollision, f"layer {t}: qubit {q} in two gates, one already at layer {t}"
            if fault is not None:
                out.append(fault[1])
            seen.add(q)
    for what, ids in [("persistent", sorted(c.persistent())),
                      *((f"register {name}", list(ids)) for name, ids in c.registers.items())]:
        for k, q in enumerate(ids):
            if q not in c.qubits():
                out.append(f"{what} id {q} is not a qubit of the circuit")
            elif q in ids[:k]:
                out.append(f"{what} lists qubit {q} twice")
    persistent = c.persistent()
    return out + [f"qubit {q} never deallocated and not persistent" for q in c.qubits()
                  if c.dealloc_layer(q) is None and q not in persistent]


def _liveness_fault(c: Circuit, q, t: int):
    """Why qubit id ``q`` cannot take a gate at layer ``t``, as (error class, message):
    it is no qubit of the circuit, or not yet allocated or already released there."""
    if type(q) is not int or q not in c.qubits():
        return OperandNotLive, f"layer {t}: qubit {q!r} is not in the circuit"
    if t < c.alloc_layer(q):
        return OperandNotLive, f"layer {t}: qubit {q} used before allocation at layer {c.alloc_layer(q)}"
    end = c.dealloc_layer(q)
    if end is not None and t >= end:
        return UseAfterDealloc, f"layer {t}: qubit {q} used after deallocation at layer {end}"
    return None


def last_use_oracle(c: Circuit) -> list[int]:
    """Each qubit's latest layer with a gate on it, else its alloc layer - 1."""
    last = [c.alloc_layer(q) - 1 for q in c.qubits()]
    for t in range(c.num_layers()):
        for g in gates(c, t):
            for q in g.qubits:
                last[q] = t
    return last


def place_oracle(c: Circuit, ids, layer: int):
    """What placing gates on ``ids`` at ``layer`` raises, one id at a time in batch
    order, as (error class, message), or None if it passes: each id must be a qubit
    live at ``layer`` (:func:`_liveness_fault`), and its latest gate, which each id
    moves to ``layer`` in turn, must come before ``layer``."""
    latest = {}
    for i in ids:
        fault = _liveness_fault(c, i, layer)
        if fault is not None:
            return fault
        last = latest.get(i, c.last_use_layer(i))
        if last >= layer:
            return LayerCollision, f"layer {layer}: qubit {i} in two gates, one already at layer {last}"
        latest[i] = layer
    return None


def release_oracle(c: Circuit, ids, layers):
    """What releasing each of ``ids`` at its layer raises, one id at a time in batch
    order, as (error class, message), or None if it passes: each id must be a qubit,
    released once, and after its allocation and its latest gate."""
    released = set()
    for q, t in zip(ids, layers):
        if q not in c.qubits():
            return OperandNotLive, f"qubit {q} is not allocated"
        if c.dealloc_layer(q) is not None or q in released:
            return DoubleDealloc, f"qubit {q} deallocated twice"
        if t < c.alloc_layer(q) or t <= c.last_use_layer(q):
            return UseAfterDealloc, f"qubit {q} has activity at or past layer {t}"
        released.add(q)
    return None


def live_oracle(c: Circuit, qubits=None) -> list[int]:
    """Per layer, how many of ``qubits`` (all if None) are allocated and not yet released."""
    qubits = c.qubits() if qubits is None else qubits
    ends = {q: NEVER if c.dealloc_layer(q) is None else c.dealloc_layer(q) for q in qubits}
    return [sum(c.alloc_layer(q) <= t < ends[q] for q in qubits) for t in range(c.num_layers())]


def report_oracle(c: Circuit, model: GateSetModel) -> ResourceReport:
    """``spacetime_allocation(c, model)`` from the definitions: empty layers are dropped,
    each qubit's lifetime [alloc, release) is counted in the layers that remain (to the
    end for one never released), and the discrete gate set widens a rotation layer."""
    L = c.num_layers()
    kept = [t for t in range(L) if gates(c, t)]
    new = [sum(u < t for u in kept) for t in range(L + 1)]
    spans = {q: (new[c.alloc_layer(q)], new[L if c.dealloc_layer(q) is None else c.dealloc_layer(q)])
             for q in c.qubits()}
    live = [sum(a <= t < e for a, e in spans.values()) for t in range(len(kept))]
    rotations = [sum(g.op in ROTATION_OPS for g in gates(c, t)) for t in kept]
    sa = sum(e - a for a, e in spans.values())
    dirty = sum(e - a for q, (a, e) in spans.items() if c.kind(q) == DIRTY)
    width = model.rotation_cost(model.epsilon / sum(rotations)) if model.epsilon and sum(rotations) else 1
    cost = [width if r else 1 for r in rotations]
    return ResourceReport(
        depth=len(kept),
        size=c.size(),
        qubit_count=max(live, default=0),
        sa_exact=sa,
        sa_approx=sum(map(int.__mul__, live, cost)),
        clean_sa=sa - dirty,
        dirty_sa=dirty,
        depth_approx=sum(cost),
        rotation_gates=sum(rotations),
        rotation_layers=sum(map(bool, rotations)),
        lower_bound_refs={
            "size_lower_bound": "Omega(2^n) two-qubit gates for arbitrary targets",
            "depth_lower_bound": "Omega(n + log(1/eps)) in the discrete gate set",
            "n_data_qubits": len(c.registers.get("D", [])) or len(c.persistent()),
        },
    )


# -- fragment oracles -----------------------------------------------------------


def pair_index(s: int, p: int) -> int:
    """Flat position of angle pair (s, p) in level-concatenated register order."""
    return (1 << s) - 1 + p


def class_split_oracle(values, s: int, p: int) -> float:
    """theta[s, p] from its definition: 2*arccos of the root of the mass fraction of the
    subclass j = p (mod 2**(s+1)) inside the class j = p (mod 2**s), 0 for an empty class."""
    sq = [abs(v) ** 2 for v in values]
    cls = sum(sq[p::1 << s])
    sub = sum(sq[p::1 << (s + 1)])
    return 2 * math.acos(min(math.sqrt(sub / cls), 1.0)) if cls else 0.0


def copy_tree_oracle(c: Circuit, roots, size: int, starts, halving: bool, tree_major: bool):
    """CNOT copy trees a slot at a time: tree k fans roots[k] out to ``size`` slots, its
    copy layer t at starts[k] + t.  A halving tree (a power-of-two size) copies slot
    j*size/2**t onto the slot half that stride further; a doubling tree copies slot j
    onto slot j + 2**t, cut short at ``size``.  Each copy layer's fresh slots, in pair
    order, are allocated by ``c.alloc``, all of one tree before the next (``tree_major``)
    or a circuit layer at a time, tree by tree.  Returns the registers in slot order and
    {layer: flat CNOT operands, tree by tree}."""
    def pairs(t):
        if halving:
            step = size >> t
            return [(j * step, j * step + step // 2) for j in range(1 << t)]
        return [(j, j + (1 << t)) for j in range(1 << t) if j + (1 << t) < size]

    grows = [(k, t) for k in range(len(roots)) for t in range((size - 1).bit_length())]
    if not tree_major:
        grows.sort(key=lambda kt: starts[kt[0]] + kt[1])
    slots = [[root] + [None] * (size - 1) for root in roots]
    for k, t in grows:
        for _, dst in pairs(t):
            slots[k][dst] = c.alloc(at_layer=starts[k] + t)
    cnots = {}
    for k, t in sorted(grows):
        cnots.setdefault(starts[k] + t, []).extend(slots[k][q] for pair in pairs(t) for q in pair)
    return slots, cnots


def flag_oracle(j: int, m: int) -> dict[tuple[int, int], int]:
    """f[(s, p)] = 1 iff p = j mod 2**s, for 0 <= j < 2**m."""
    if not 0 <= j < (1 << m):
        raise IndexOutOfRange(f"j={j} outside [0, {1 << m})")
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


# -- a dense statevector oracle ---------------------------------------------------


def _controlled(u: np.ndarray, controls: int) -> np.ndarray:
    """``u`` on the last operands when the first ``controls`` operands are all 1."""
    on = (1 << controls) - 1
    idx = [on | (j << controls) for j in range(len(u))]
    m = np.eye(len(u) << controls, dtype=complex)
    m[np.ix_(idx, idx)] = u
    return m


def gate_unitary(op: str, params=()) -> np.ndarray:
    """Unitary of a single gate from its textbook definition; operand t owns bit t of the index."""
    theta = params[0] if params else 0.0
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    base = {
        "x": [[0, 1], [1, 0]], "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        "s": np.diag([1, 1j]), "sdg": np.diag([1, -1j]),
        "t": np.diag([1, np.exp(1j * math.pi / 4)]), "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
        "ry": [[c, -s], [s, c]], "rz": np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]),
        "phase": np.diag([1, np.exp(1j * theta)]), "swap": np.eye(4)[[0, 2, 1, 3]],
    }
    controls, name = {"cnot": (1, "x"), "toffoli": (2, "x"), "cswap": (1, "swap"), "cry": (1, "ry"),
                      "crz": (1, "rz"), "ccry": (2, "ry"), "ccrz": (2, "rz")}.get(op, (0, op))
    return _controlled(np.array(base[name], dtype=complex), controls)


def _apply_dense(psi: np.ndarray, axes: list[int], g: Gate) -> np.ndarray:
    """``g`` on a state tensor whose axis i is qubit axes[i]'s bit (and any further
    axes after those, untouched)."""
    k = len(g.qubits)
    at = [axes.index(q) for q in reversed(g.qubits)]  # the unitary's axes run from operand k-1 down
    out = np.tensordot(gate_unitary(g.op, g.params).reshape((2,) * 2 * k), psi, axes=(list(range(k, 2 * k)), at))
    return np.moveaxis(out, list(range(k)), at)


def _dense_vector(psi: np.ndarray, axes: list[int], order: list[int]) -> np.ndarray:
    """The state tensor as a vector (a matrix, with a further axis) with order[t] owning bit t."""
    return psi.transpose([axes.index(q) for q in reversed(order)] + list(range(len(axes), psi.ndim))) \
        .reshape((1 << len(order),) + psi.shape[len(axes):])


def _seed_vector(seed) -> np.ndarray:
    v = np.array((1.0, 0.0) if seed is None else seed, dtype=complex)
    return v / np.linalg.norm(v)


def dense_run(c: Circuit, seeds: dict | None = None):
    """A circuit run on a dense tensor over its live qubits, from the definitions: each
    layer releases (in id order), then allocates, then applies its gates one by one.  A
    qubit is allocated in its seed (|0> by default); a release contracts the qubit with
    its expected state, its seed if dirty and |0> if clean, and its residual is the mass
    lost.  An empty lifetime is skipped.  Returns ([(qubit, layer, residual)], the final
    state as a function of an order of the live qubits)."""
    seeds = seeds or {}
    c = c.compact()
    psi, axes, verdicts = np.ones((), dtype=complex), [], []
    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        for q in deallocs:
            if c.alloc_layer(q) == t:
                continue
            before = np.vdot(psi, psi).real
            expected = _seed_vector(seeds.get(q) if c.kind(q) == DIRTY else None)
            psi = np.tensordot(psi, expected.conj(), axes=([axes.index(q)], [0]))
            axes.remove(q)
            verdicts.append((q, t, before - np.vdot(psi, psi).real))
        for q in allocs:
            if c.dealloc_layer(q) != t:
                psi = np.multiply.outer(psi, _seed_vector(seeds.get(q)))
                axes.append(q)
        if t == c.num_layers():
            break
        for g in gates(c, t):
            psi = _apply_dense(psi, axes, g)
    return verdicts, lambda order: _dense_vector(psi, axes, order)


def block_unitary(block: list[Gate], qubit_order: list[int]) -> np.ndarray:
    """Unitary of a gate list on a small block; qubit_order[t] owns bit t."""
    k = len(qubit_order)
    psi = np.eye(1 << k, dtype=complex).reshape((2,) * k + (1 << k,))  # a column per basis input
    axes = list(reversed(qubit_order))
    for g in block:
        psi = _apply_dense(psi, axes, g)
    return _dense_vector(psi, axes, qubit_order)
