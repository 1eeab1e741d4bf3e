"""Reference implementations the tests compare the package against.

Each is built from a definition alone, with no circuit or streaming
writer involved:

* the circuit JSON document as lists and dicts (:func:`to_json_dict`),
  which ``circuit_ir.json_chunks`` must write byte for byte;
* the rotation angle on pair (s, p), from the masses of a congruence class;
* the fragments' target states: the FLAG marking, the SPF injection state
  and the LOADF buffer state;
* dense unitaries of single gates and small gate lists, for decomposition
  and time-reversal checks.
"""

import math

import numpy as np

from qsprep.amplitudes import AngleSet, CSPAngleSet, PartitionNorms
from qsprep.circuit_ir import GATE_SIGNATURES, NEVER, Circuit, Gate, gate
from qsprep.errors import IndexOutOfRange
from qsprep.sim import SimState

# -- the circuit JSON document -------------------------------------------------


def _layer_json(gates) -> list[dict]:
    return [{"op": g.op, "params": list(g.params), "qubits": list(g.qubits)} for g in gates]


def to_json_dict(c: Circuit) -> dict:
    """The circuit JSON as a tree of lists and dicts: the reference ``json_chunks`` matches."""
    c = c.compact()
    return {
        "layers": [_layer_json(c.gates(t)) for t in range(c.num_layers())],
        "alloc": [[q, a, c.kind(q)] for q, a in enumerate(c._alloc)],
        "dealloc": [[i, d] for i, d in enumerate(c._dealloc) if d != NEVER],
        "persistent": sorted(c._persistent),
        "registers": {name: list(qs) for name, qs in c.registers.items()},
    }


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


# -- dense unitaries for decomposition checks ------------------------------------


def gate_unitary(op: str, params=()) -> np.ndarray:
    """Unitary of a single gate; operand t owns bit t of the index."""
    qs = list(range(GATE_SIGNATURES[op][0]))
    return block_unitary([gate(op, qs, *params)], qs)


def block_unitary(gates: list[Gate], qubit_order: list[int]) -> np.ndarray:
    """Unitary of a gate list on a small block; qubit_order[t] owns bit t."""
    k = len(qubit_order)
    U = np.zeros((1 << k, 1 << k), dtype=complex)
    for i in range(1 << k):
        st = SimState()
        for t, q in enumerate(qubit_order):
            st.alloc(q, seed=(0.0, 1.0) if (i >> t) & 1 else None)
        for g in gates:
            st.apply(g)
        U[:, i] = st.statevector(qubit_order)
    return U
