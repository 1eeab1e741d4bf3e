"""Properties of the IR: its time reversal, gate expansion and block mirror under the
simulator, and its whole-circuit walks against plain references.

Each random circuit of the simulator properties uses every op of
``GATE_SIGNATURES`` at least once and allocates and releases qubits
mid-circuit.  The simulator checks every release: a clean qubit must come
back in |0>, a dirty one in its seed; on random circuits whose releases
leave residuals it matches the dense oracle of ``tests/reference.py``
verdict by verdict and in its final state.  The walks (``validate``, the latest
layers, the live profiles and ``spacetime_allocation``) are checked on
random lifecycles with empty layers and one injected defect against the
gate-by-gate and qubit-by-qubit references of ``tests/reference.py``, and
so are the batch lifecycle test's verdicts on placing and releasing
random batches.  A circuit built by random builder calls that ``validate``
passes reads back through ``loads`` byte for byte.
"""

import math
from array import array
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsprep import circuit_ir as cir
from qsprep.circuit_ir import CLEAN, DIRTY, GATE_SIGNATURES, Block, Circuit, GateSetModel
from qsprep.errors import CircuitError
from qsprep.sim import run
from reference import (U2_CNOT, Gate, append, append_layer, circuit_json, dense_run, expand, fault_messages, gate,
                       gates, last_use_oracle, live_oracle, place_oracle, release_oracle, report_oracle)

OPS = list(GATE_SIGNATURES)
ANGLES = st.floats(-math.pi, math.pi, allow_nan=False)
SEEDS = st.tuples(st.floats(0, math.pi), st.floats(0, 2 * math.pi)).map(
    lambda a: (math.cos(a[0] / 2), complex(math.cos(a[1]), math.sin(a[1])) * math.sin(a[0] / 2)))
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


def op_order(draw) -> list[str]:
    """Every op once, plus a few more, in a random order."""
    return draw(st.permutations(OPS + draw(st.lists(st.sampled_from(OPS), max_size=6))))


def inverse(g: Gate) -> Gate:
    """``g``'s inverse by the IR's one rule, the one ``adjoint`` and ``Block.mirror``
    use: the op code translated through ``_INVERSE``, the parameters negated."""
    return gate(cir._OPS[cir._INVERSE[cir._CODE[g.op]]], g.qubits, *(-p for p in g.params))


def random_gate(draw, op: str, first: list[int], others: list[int]) -> Gate:
    """``op`` on one qubit of ``first`` and distinct others, with random angles."""
    nq, npar = GATE_SIGNATURES[op]
    qubits = [draw(st.sampled_from(first))]
    qubits += draw(st.permutations([q for q in others if q not in qubits]))[:nq - 1]
    return gate(op, draw(st.permutations(qubits)), *(draw(ANGLES) for _ in range(npar)))


@st.composite
def circuits(draw) -> Circuit:
    """Gates appended ASAP on three persistent data qubits (register D).  Some gates
    act on a fresh ancilla allocated mid-circuit, and are undone right after it
    (compute, then uncompute) so that it is released in |0>; one late qubit may be
    allocated mid-circuit and kept (register L)."""
    c = Circuit()
    live = list(c.alloc_many(3, at_layer=0))
    c.mark_persistent(live)
    c.add_register("D", live)
    for op in op_order(draw):
        step = draw(st.sampled_from(["gate", "ancilla", "late"]))
        if step == "late" and "L" not in c.registers:
            late = c.alloc(at_layer=draw(st.integers(0, c.num_layers())))
            c.mark_persistent([late])
            c.add_register("L", [late])
            live.append(late)
        if step == "ancilla":
            anc = c.alloc(at_layer=draw(st.integers(0, c.num_layers())))
            compute = [random_gate(draw, op, [anc], live),
                       random_gate(draw, draw(st.sampled_from(OPS)), [anc], live)]
            for g in compute + [inverse(g) for g in reversed(compute)]:
                append(c, g)
            c.dealloc(anc)
        else:
            append(c, random_gate(draw, op, live, live))
    return c


def kept(c: Circuit) -> list[int]:
    return c.registers["D"] + c.registers.get("L", [])


def final_state(c: Circuit, seeds: list) -> np.ndarray:
    """The state of the kept qubits after a run from the data register in ``seeds``."""
    report, state = run(c, seeds=dict(zip(c.registers["D"], seeds)))
    assert all(mass < 1e-10 for _, _, mass in report.ancilla_verdicts)
    return state.statevector(kept(c))


def product(seeds: list) -> np.ndarray:
    """The product state with ``seeds[t]`` on bit t."""
    vec = np.ones(1, dtype=complex)
    for a0, a1 in seeds:
        vec = np.kron(np.array([a0, a1], dtype=complex), vec)
    return vec


@PROPERTY
@given(c=circuits(), seeds=st.lists(SEEDS, min_size=3, max_size=3))
def test_circuit_then_adjoint_is_the_identity(c, seeds):
    """c, then c.adjoint(): the kept qubits are shared by the two halves, and a late
    qubit is released where the adjoint mirrors its allocation, in |0> (one allocated
    at layer 0 is kept to the end, in |0>)."""
    T = c.num_layers()
    adj = c.adjoint()
    both = Circuit()
    ids = both.embed(c, lambda t: t)
    shared = {q: ids[q] for q in kept(c)}
    both.embed(adj, lambda t: T + t, shared)
    for q, at in shared.items():
        if adj.dealloc_layer(q) is not None:
            both.dealloc(at, at_layer=T + adj.dealloc_layer(q))
    both.add_register("D", [ids[q] for q in c.registers["D"]])
    both.add_register("L", [ids[q] for q in c.registers.get("L", []) if adj.dealloc_layer(q) is None])
    assert both.validate() == []
    zeros = [(1.0, 0.0)] * len(both.registers["L"])
    assert np.allclose(final_state(both, seeds), product(seeds + zeros), atol=1e-9)


@PROPERTY
@given(c=circuits(), seeds=st.lists(SEEDS, min_size=3, max_size=3))
def test_expand_preserves_the_final_state(c, seeds):
    out = expand(c)
    assert {g.op for t in range(out.num_layers()) for g in gates(out, t)} <= U2_CNOT
    assert np.allclose(final_state(out, seeds), final_state(c, seeds), atol=1e-9)


def put_random_batch(draw, target, live: list[int], ops: list[str], layer: int) -> None:
    """Take ops off the front of ``ops`` onto disjoint qubits drawn from ``live`` until the
    next does not fit or a draw stops the batch, and put them on ``target`` (a ``Circuit``
    or a ``Block``) at ``layer``, one put per run of one op."""
    free, batch = draw(st.permutations(live)), []
    while ops and GATE_SIGNATURES[ops[0]][0] <= len(free):
        nq, npar = GATE_SIGNATURES[ops[0]]
        batch.append(gate(ops.pop(0), free[:nq], *(draw(ANGLES) for _ in range(npar))))
        free = free[nq:]
        if draw(st.booleans()):
            break
    for op, run_of_op in groupby(batch, attrgetter("op")):
        gates = list(run_of_op)
        target.put(op, [q for g in gates for q in g.qubits], layer, [p for g in gates for p in g.params])


@st.composite
def blocks(draw) -> tuple[Circuit, int]:
    """A ``Block`` over three persistent data qubits, mirrored: at each of its layers
    it allocates a few clean or dirty ancillae and puts a batch of gates on disjoint
    live qubits, one put per run of one op, until every op has been put; the mirror
    follows a gap of empty layers.  Returns the circuit and the number of dirty ancillae."""
    c = Circuit()
    data = list(c.alloc_many(3, at_layer=0))
    c.mark_persistent(data)
    c.add_register("D", data)
    block, live, ops, dirty = Block(c, 0), list(data), op_order(draw), 0
    layer = 0
    while ops:
        kind = draw(st.sampled_from([CLEAN, DIRTY]))
        fresh = list(block.alloc_many(draw(st.integers(0, 2)), kind, at_layer=layer))
        dirty += len(fresh) if kind == DIRTY else 0
        live += fresh
        put_random_batch(draw, block, live, ops, layer)
        layer += 1
    assert block.mirror(layer + draw(st.integers(0, 2)), layer) == c.num_layers()
    return c, dirty


@PROPERTY
@given(built=blocks(), seeds=st.lists(SEEDS, min_size=3, max_size=3), dirty_seed=SEEDS)
def test_mirrored_block_returns_every_ancilla(built, seeds, dirty_seed):
    c, dirty = built
    data = c.registers["D"]
    ancillae = [q for q in c.qubits() if q not in data]
    assert all(c.dealloc_layer(q) is not None for q in ancillae)
    assert c.validate() == []
    seeded = {q: dirty_seed for q in c.of_kind(DIRTY)} | dict(zip(data, seeds))
    report, state = run(c, seeds=seeded)
    assert sorted(q for q, _, _ in report.ancilla_verdicts) == ancillae
    assert all(mass < 1e-10 for _, _, mass in report.ancilla_verdicts)
    assert [ok for _, ok in report.dirty_restoration] == [True] * dirty
    assert np.allclose(state.statevector(data), product(seeds), atol=1e-9)


@st.composite
def open_circuits(draw) -> Circuit:
    """Layers over three persistent data qubits (register D): at each, up to two clean
    or dirty ancillae come in while fewer than nine qubits are live, a batch of random
    gates on disjoint live qubits is put, one put per run of one op, until every op has
    been put, and up to two live ancillae are released at the next layer in whatever
    state they are in, so their residuals need not be 0."""
    c = Circuit()
    data = list(c.alloc_many(3, at_layer=0))
    c.mark_persistent(data)
    c.add_register("D", data)
    live, ancillae, ops, layer = list(data), [], op_order(draw), 0
    while ops:
        if len(live) < 9:
            fresh = list(c.alloc_many(draw(st.integers(0, 2)), draw(st.sampled_from([CLEAN, DIRTY])), at_layer=layer))
            live += fresh
            ancillae += fresh
        put_random_batch(draw, c, live, ops, layer)
        layer += 1
        for q in draw(st.lists(st.sampled_from(ancillae), unique=True, max_size=2)) if ancillae else []:
            c.dealloc(q, at_layer=layer)
            live.remove(q)
            ancillae.remove(q)
    return c


@PROPERTY
@given(c=open_circuits(), data=st.data())
def test_sparse_run_matches_the_dense_oracle(c, data):
    """``run`` (releases unenforced) and the dense oracle give the same verdicts in the
    same order, the same residuals and the same final state, within 1e-12; the data
    and the dirty qubits start in random seeds."""
    seeds = {q: data.draw(SEEDS) for q in c.registers["D"] + c.of_kind(DIRTY)}
    report, state = run(c, seeds=seeds, enforce_dealloc=False)
    verdicts, vector = dense_run(c, seeds)
    assert [(q, t) for q, t, _ in report.ancilla_verdicts] == [(q, t) for q, t, _ in verdicts]
    assert all(abs(got[2] - want[2]) <= 1e-12 for got, want in zip(report.ancilla_verdicts, verdicts))
    live = [q for q in c.qubits() if c.dealloc_layer(q) is None]
    assert np.max(np.abs(state.statevector(live) - vector(live))) <= 1e-12


def test_full_support_run_matches_the_dense_oracle():
    """h on 12 qubits, cnots on pairs, rz and h again: all 4,096 basis keys are branches."""
    c = Circuit()
    qs = list(c.alloc_many(12, at_layer=0))
    c.mark_persistent(qs)
    c.put("h", qs, 0)
    c.put("cnot", qs, 1)
    c.put("rz", qs, 2, [float(a) for a in np.random.default_rng(3).uniform(0, 6, 12)])
    c.put("h", qs, 3)
    _, state = run(c)
    _, vector = dense_run(c)
    assert len(state._amp) == 1 << 12
    assert np.max(np.abs(state.statevector(qs) - vector(qs))) <= 1e-12


@st.composite
def lifecycles(draw) -> Circuit:
    """A circuit on two persistent data qubits (register D) and up to eight clean or
    dirty qubits allocated at any layer up to the end.  Each layer that is not left
    empty gets a few random gates on distinct qubits allocated by then, and the last
    layer always gets one.  Every qubit but the data is then released at a layer
    after its last gate (the end, and an empty lifetime, included) or kept."""
    L = draw(st.integers(1, 7))
    c = Circuit()
    data = list(c.alloc_many(2, at_layer=0))
    c.mark_persistent(data)
    c.add_register("D", data)
    for a in draw(st.lists(st.integers(0, L), max_size=8)):
        c.alloc(draw(st.sampled_from([CLEAN, DIRTY])), at_layer=a)
    for t in range(L):
        if t < L - 1 and draw(st.booleans()):
            continue
        free = draw(st.permutations([q for q in c.qubits() if c.alloc_layer(q) <= t]))
        for op in draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=4)):
            nq, npar = GATE_SIGNATURES[op]
            if nq <= len(free):
                c.put(op, free[:nq], t, [draw(ANGLES) for _ in range(npar)])
                free = free[nq:]
        if t == L - 1 and set(data) <= set(free):
            c.put("cnot", data, t)
    for q in c.qubits()[2:]:
        last = max(c.last_use_layer(q) + 1, c.alloc_layer(q))
        release = draw(st.one_of(st.none(), st.integers(last, L)))
        if release is None:
            c.mark_persistent([q])
        else:
            c.dealloc(q, at_layer=release)
    return c


#: defect -> the faulty gates it puts in a new last layer, given the circuit, a qubit
#: live there, a qubit released before it (None if there is none) and the layer's index;
#: a gate on the id one past the circuit's also has an operand that is not live
DEFECTS = {
    "collision": lambda c, live, gone, t: [Gate("x", (), (live,)), Gate("h", (), (live,))],
    "before_allocation": lambda c, live, gone, t: [Gate("h", (), (c.alloc(at_layer=t + 1),))],
    "not_in_circuit": lambda c, live, gone, t: [Gate("h", (), (len(c.qubits()),))],
    "after_deallocation": lambda c, live, gone, t: [Gate("ry", (0.5,), (gone,))],
    "nan": lambda c, live, gone, t: [Gate("rz", (math.nan,), (live,))],
    "inf": lambda c, live, gone, t: [Gate("cry", (-math.inf,), (live, len(c.qubits())))],
    "repeated_operand": lambda c, live, gone, t: [Gate("cswap", (), (live, len(c.qubits()), live))],
}


@PROPERTY
@given(c=lifecycles(), defect=st.sampled_from(list(DEFECTS)), data=st.data())
def test_walks_match_their_plain_references(c, defect, data):
    """A circuit without faults validates, its latest layers (as ``loads``, ``compact``
    and ``adjoint`` set them) and its report equal the references, and its adjoint's
    adjoint is itself; with one defective layer appended (among valid gates on other live
    qubits), ``validate`` reports exactly the reference's messages in its order."""
    assert c.validate() == fault_messages(c) == []
    assert cir.loads(cir.dumps(c))._last_use.tolist() == last_use_oracle(c.compact())
    for other in (c.compact(), c.adjoint()):
        assert other._last_use.tolist() == last_use_oracle(other)
    assert cir.dumps(c.adjoint().adjoint()) == cir.dumps(c)
    for model in (GateSetModel(), GateSetModel(1e-3)):
        assert cir.spacetime_allocation(c, model) == report_oracle(c, model)

    t = c.num_layers()
    live = [q for q in c.qubits() if c.dealloc_layer(q) is None]
    gone = [q for q in c.qubits() if c.dealloc_layer(q) is not None]
    assume(gone or defect != "after_deallocation")
    q = data.draw(st.sampled_from(live))
    bad = DEFECTS[defect](c, q, data.draw(st.sampled_from(gone)) if gone else None, t)
    others = data.draw(st.permutations([p for p in live if p != q]))
    valid = [Gate("x", (), (p,)) for p in others[:data.draw(st.integers(0, len(others)))]]
    layer = data.draw(st.permutations(valid + bad))
    append_layer(c, layer)
    assert c.validate() == fault_messages(c) != []
    dirty = c.of_kind(DIRTY)
    assert dirty == [p for p in c.qubits() if c.kind(p) == DIRTY]
    assert c.live_profile() == live_oracle(c)
    assert c.live_profile(dirty) == live_oracle(c, dirty)


def tables(c: Circuit) -> tuple:
    """Everything placing or releasing a batch may write, as bytes."""
    return (bytes(c._kind), c._alloc.tobytes(), c._dealloc.tobytes(), c._last_use.tobytes(),
            [(bytes(o), q.tobytes(), p.tobytes()) for o, q, p in zip(c._ops, c._qs, c._ps)])


def verdict(add, c: Circuit):
    """``add(c)``'s error as (class, message), or None if it passes."""
    try:
        add(c)
    except CircuitError as e:
        return type(e), str(e)
    return None


@PROPERTY
@given(c=lifecycles(), data=st.data())
def test_batches_pass_exactly_the_per_id_rules(c, data):
    """A random batch of ids (in the circuit or not, allocated yet or not, released or
    not, repeated, or already used at the layer) is placed by ``put`` and released by
    ``dealloc_many`` (at one layer, and at one layer per id) just when the per-id
    references accept it.  Otherwise the first (class, message) is theirs, and every
    table is byte for byte as it was."""
    n, L = len(c.qubits()), c.num_layers()
    ids = data.draw(st.lists(st.integers(-1, n + 1), max_size=5))
    layer = data.draw(st.integers(0, L + 1))
    per_id = data.draw(st.lists(st.integers(0, L + 1), min_size=len(ids), max_size=len(ids)))
    for add, want, wrote in (
            (lambda d: d.put("x", ids, layer), place_oracle(c, ids, layer),
             lambda d: [d.last_use_layer(i) for i in ids] == [layer] * len(ids)),
            (lambda d: d.dealloc_many(ids, layer), release_oracle(c, ids, [layer] * len(ids)),
             lambda d: [d.dealloc_layer(q) for q in ids] == [layer] * len(ids)),
            (lambda d: d.dealloc_many(ids, array("i", per_id)), release_oracle(c, ids, per_id),
             lambda d: [d.dealloc_layer(q) for q in ids] == per_id)):
        d = c.copy()
        before = tables(d)
        assert verdict(add, d) == want
        assert tables(d) == before if want else wrote(d)


@PROPERTY
@given(c=lifecycles(), data=st.data())
def test_a_release_fault_read_from_json_is_deallocs(c, data):
    """A dealloc table entry that ``Circuit.dealloc`` would refuse (a qubit not in the
    circuit, released twice, or released at or before its allocation or a gate on it),
    put in id order after any row of the same qubit, makes ``loads`` raise ``dealloc``'s
    class."""
    n, L = len(c.qubits()), c.num_layers()
    q, t = data.draw(st.integers(-1, n + 1)), data.draw(st.integers(0, L + 1))
    fault = release_oracle(c, [q], [t])
    assume(fault is not None)
    rows = [[p, c.dealloc_layer(p)] for p in c.qubits() if c.dealloc_layer(p) is not None]
    doc = {"alloc": [[p, c.alloc_layer(p), c.kind(p)] for p in c.qubits()],
           "dealloc": sorted(rows + [[q, t]], key=lambda row: row[0]),
           "layers": [[{"op": g.op, "params": list(g.params), "qubits": list(g.qubits)} for g in gates(c, u)]
                      for u in range(L)] + [[], []]}
    with pytest.raises(fault[0]):
        cir.loads(circuit_json(doc))


#: an id a builder may be handed: a qubit or not, or a bool
ANY_ID = st.one_of(st.integers(-1, 5), st.booleans())


@st.composite
def built(draw) -> Circuit:
    """A circuit made by random calls of the public builders: ``alloc_many``, ``put``,
    ``append_layer``, ``dealloc_many``, ``add_register`` and ``mark_persistent``, with
    ids out of range, repeated or bools and layers up to two past the last.  A call that
    a builder refuses (a ``CircuitError``) is skipped."""
    c = Circuit()
    for _ in range(draw(st.integers(1, 10))):
        ids = draw(st.lists(ANY_ID, max_size=3))
        layer = draw(st.integers(-1, c.num_layers() + 2))
        call = draw(st.sampled_from([
            lambda: c.alloc_many(draw(st.integers(0, 2)), draw(st.sampled_from([CLEAN, DIRTY])), layer),
            lambda: c.put("x", ids, layer),
            lambda: append_layer(c, [Gate("h", (), (i,)) for i in ids]),
            lambda: c.dealloc_many(ids, layer),
            lambda: c.add_register(draw(st.sampled_from("RS")), ids),
            lambda: c.mark_persistent(ids),
        ]))
        try:
            call()
        except CircuitError:
            pass
    return c


@PROPERTY
@given(c=built())
def test_a_valid_circuit_reads_back_byte_identical(c):
    """``validate`` and ``loads`` state one rule set: a circuit built through the public
    API that ``validate`` finds no fault in is read back by ``loads`` and written again
    byte for byte."""
    if c.validate() == []:
        text = cir.dumps(c)
        assert cir.dumps(cir.loads(text)) == text
