import contextlib
import gc
import io
import json
import math
import os
import re
import tracemalloc
from array import array
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsprep import circuit_ir as cir
from qsprep import protocols as proto
from qsprep.amplitudes import make_target
from qsprep.circuit_ir import Circuit
from qsprep.cli import _load_circuit, main
from qsprep.errors import (
    CircuitError,
    DoubleDealloc,
    DuplicateOperand,
    LayerCollision,
    LeakedQubit,
    MalformedCircuit,
    OperandNotLive,
    UseAfterDealloc,
)
from qsprep.sim import run
from qsprep.subroutines import copy
from reference import (DECOMPOSITIONS, U2_CNOT, Gate, append, append_layer, block_unitary, circuit_json, expand,
                       expand_gate, gate, gate_unitary, gates, place, to_json_dict)
from test_golden import GOLDEN, golden_target


def two_qubit_circuit():
    c = Circuit()
    a = c.alloc(at_layer=0)
    b = c.alloc(at_layer=0)
    c.mark_persistent([a, b])
    return c, a, b


class TestAppend:
    def test_single_gate_depth(self):
        c, a, b = two_qubit_circuit()
        append(c, gate("cnot", (a, b)))
        assert c.depth() == 1

    def test_disjoint_gates_pack(self):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(4)]
        c.mark_persistent(qs)
        append(c, gate("cnot", (qs[0], qs[1])))
        append(c, gate("cnot", (qs[2], qs[3])))
        assert c.depth() == 1

    def test_groups_are_the_gates_by_op(self):
        """``groups`` holds a layer's gates per op, in op-code order, each op's gates in
        the order they were placed; a one-op layer is one group, an empty layer none."""
        c = Circuit()
        qs = c.alloc_many(6, at_layer=0)
        place(c, [gate("cnot", (qs[0], qs[1])), gate("ry", (qs[2],), 0.5), gate("cnot", (qs[4], qs[3])),
                 gate("x", (qs[5],))], 0)
        c.put("h", qs, 1)
        assert [(op, ids.tolist(), params.tolist()) for op, ids, params in c.groups(0)] == [
            ("x", [[5]], [[]]), ("ry", [[2]], [[0.5]]), ("cnot", [[0, 1], [4, 3]], [[], []])]
        assert [(op, ids.tolist(), params.shape) for op, ids, params in c.groups(1)] == [
            ("h", [[q] for q in qs], (6, 0))]
        c.put("x", qs[:1], 3)
        assert c.groups(2) == []

    def test_shared_operand_serializes(self):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(3)]
        c.mark_persistent(qs)
        append(c, gate("cnot", (qs[0], qs[1])))
        append(c, gate("cnot", (qs[1], qs[2])))
        assert c.depth() == 2

    def test_asap_never_deeper_than_new_layer(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            seq = []
            for _ in range(15):
                i, j = rng.choice(6, size=2, replace=False)
                seq.append((int(i), int(j)))
            depths = []
            for asap in (True, False):
                c = Circuit()
                qs = [c.alloc(at_layer=0) for _ in range(6)]
                c.mark_persistent(qs)
                for i, j in seq:
                    g = gate("cnot", (qs[i], qs[j]))
                    if asap:
                        append(c, g)
                    else:
                        place(c, [g], c.num_layers())
                depths.append(c.depth())
            assert depths[0] <= depths[1]

    def test_duplicate_operand_rejected(self):
        """A gate that repeats an operand is one fault, of one class and one message,
        whether it is put or read from circuit JSON."""
        c, a, b = two_qubit_circuit()
        message = r"^layer 0: cnot repeats an operand: \[0, 0\]$"
        with pytest.raises(DuplicateOperand, match=message):
            c.put("cnot", [a, a], 0)
        assert c.size() == 0
        doc = {"alloc": [[0, 0, "clean"], [1, 0, "clean"]], "dealloc": [], "persistent": [0, 1],
               "layers": [[{"op": "cnot", "params": [], "qubits": [0, 0]}]]}
        with pytest.raises(DuplicateOperand, match=message):
            cir.loads(circuit_json(doc))

    def test_collision_rejected(self):
        c, a, b = two_qubit_circuit()
        place(c, [gate("x", (a,))], 0)
        with pytest.raises(LayerCollision):
            place(c, [gate("cnot", (a, b))], 0)

    def test_out_of_order_place_rejected(self):
        c, a, b = two_qubit_circuit()
        place(c, [gate("x", (a,))], 3)
        place(c, [gate("x", (b,))], 1)
        with pytest.raises(LayerCollision):
            place(c, [gate("cnot", (a, b))], 2)

    def test_append_goes_after_an_appended_layer(self):
        """``append_layer`` moves each operand's latest layer, so an ``append`` on the same
        qubit lands in the next layer, not in the appended one."""
        c = Circuit()
        q = c.alloc(at_layer=0)
        c.mark_persistent([q])
        append_layer(c, [gate("x", (q,))])
        assert append(c, gate("h", (q,))) == 1
        assert c.validate() == []


class TestLifecycle:
    def test_interval_contributes_length(self):
        c = Circuit()
        base = c.alloc(at_layer=0)
        c.mark_persistent([base])
        for _ in range(10):
            place(c, [gate("x", (base,))], c.num_layers())
        q = c.alloc(at_layer=5)
        place(c, [gate("x", (q,))], 5)
        c.dealloc(q, at_layer=9)
        r = cir.spacetime_allocation(c)
        assert r.sa_exact == 10 + 4

    def test_double_dealloc(self):
        c = Circuit()
        q = c.alloc(at_layer=0)
        c.dealloc(q, at_layer=1)
        with pytest.raises(DoubleDealloc):
            c.dealloc(q, at_layer=2)

    def test_use_at_dealloc_layer_rejected(self):
        c = Circuit()
        q = c.alloc(at_layer=0)
        place(c, [gate("x", (q,))], 3)
        c.dealloc(q, at_layer=9)
        with pytest.raises(UseAfterDealloc):
            place(c, [gate("x", (q,))], 9)

    def test_gate_before_alloc_rejected(self):
        c = Circuit()
        q = c.alloc(at_layer=4)
        with pytest.raises(OperandNotLive):
            place(c, [gate("x", (q,))], 2)

    def test_leak_detection(self):
        c = Circuit()
        q = c.alloc(at_layer=0)
        place(c, [gate("x", (q,))], 0)
        with pytest.raises(LeakedQubit):
            cir.spacetime_allocation(c)

    def test_alloc_many_is_one_id_range(self):
        c = Circuit()
        first = c.alloc(at_layer=0)
        qs = c.alloc_many(3, cir.DIRTY, at_layer=2)
        assert qs == range(first + 1, first + 4)
        assert [c.kind(q) for q in qs] == [cir.DIRTY] * 3
        assert [c.alloc_layer(q) for q in qs] == [2, 2, 2]

    def test_alloc_many_takes_a_layer_per_qubit(self):
        c = Circuit()
        c.alloc(at_layer=0)
        qs = c.alloc_many(3, cir.DIRTY, at_layer=array("i", [4, 1, 2]))
        assert qs == range(1, 4)
        assert [c.alloc_layer(q) for q in qs] == [4, 1, 2]
        assert [c.last_use_layer(q) for q in qs] == [3, 0, 1]
        assert [c.kind(q) for q in qs] == [cir.DIRTY] * 3
        with pytest.raises(MalformedCircuit):
            c.alloc_many(2, at_layer=[1, 2, 3])
        assert len(c.qubits()) == 4

    def test_dealloc_many_releases_at_one_layer(self):
        c = Circuit()
        qs = c.alloc_many(3, at_layer=0)
        place(c, [gate("x", (qs[1],))], 2)
        c.dealloc_many(qs, 3)
        assert [c.dealloc_layer(q) for q in qs] == [3, 3, 3]
        more = c.alloc_many(2, at_layer=3)
        c.dealloc_many(iter(more), 4)  # any iterable of ids, read once
        assert [c.dealloc_layer(q) for q in more] == [4, 4]

    @pytest.mark.parametrize("release, error", [
        (lambda c, qs: c.dealloc_many([qs[0], qs[0]], 3), DoubleDealloc),
        (lambda c, qs: c.dealloc_many(qs, 2), UseAfterDealloc),
        (lambda c, qs: c.dealloc_many([qs[0], 7], 3), OperandNotLive),
        (lambda c, qs: c.dealloc_many([-1], 3), OperandNotLive),
        (lambda c, qs: c.dealloc(-1, at_layer=3), OperandNotLive),
    ])
    def test_dealloc_many_raises_the_per_qubit_error(self, release, error):
        c = Circuit()
        qs = c.alloc_many(2, at_layer=0)
        place(c, [gate("x", (qs[1],))], 2)
        with pytest.raises(error):
            release(c, qs)

    @pytest.mark.parametrize("read", [list, iter], ids=["list", "iterator"])
    @pytest.mark.parametrize("batch, error", [
        (lambda c, qs, read: c.dealloc_many(qs, read([2, 5])), UseAfterDealloc),
        (lambda c, qs, read: c.alloc_many(2, at_layer=read([0, -1])), OperandNotLive),
    ], ids=["dealloc_many", "alloc_many"])
    def test_per_qubit_layers_are_read_once(self, batch, error, read):
        """Layers given one per qubit as an iterator fail with the error a list gets."""
        c = Circuit()
        qs = c.alloc_many(2, at_layer=0)
        place(c, [gate("x", (qs[0],))], 3)
        with pytest.raises(error):
            batch(c, qs, read)

    def test_rejected_put_changes_nothing(self):
        """A batch with a qubit not yet allocated leaves its live qubit's latest layer
        alone, so placing that qubit alone there afterwards is no collision."""
        c = Circuit()
        a = c.alloc(at_layer=0)
        late = c.alloc(at_layer=2)
        with pytest.raises(OperandNotLive):
            c.put("x", [a, late], 1)
        assert c.last_use_layer(a) == -1 and c.size() == 0
        c.put("x", [a], 1)
        assert c.last_use_layer(a) == 1

    def test_rejected_release_changes_nothing(self):
        """A release with one qubit used past its layer releases none of the batch."""
        c = Circuit()
        a, b = c.alloc_many(2, at_layer=0)
        c.put("x", [b], 4)
        with pytest.raises(UseAfterDealloc):
            c.dealloc_many([a, b], 3)
        assert c.dealloc_layer(a) is None and c.dealloc_layer(b) is None
        c.dealloc_many([a], 3)
        assert c.dealloc_layer(a) == 3

    @pytest.mark.parametrize("operand", [-1, 2])
    def test_operand_outside_the_alloc_table_rejected(self, operand):
        c = Circuit()
        c.alloc_many(2, at_layer=0)
        with pytest.raises(OperandNotLive):
            place(c, [Gate("x", (), (operand,))], 0)
        with pytest.raises(OperandNotLive):
            append(c, Gate("x", (), (operand,)))


class TestMetrics:
    def test_empty_circuit(self):
        c = Circuit()
        assert c.depth() == 0 and c.size() == 0

    def test_copy_depth_and_sa(self):
        for csize in (2, 4, 8, 16, 32):
            c = Circuit()
            src = c.alloc(at_layer=0)
            c.mark_persistent([src])
            reg, end = copy(c, src, csize, start=0)
            c.mark_persistent(reg[1:])
            assert c.depth() == int(math.log2(csize))
            assert c.size() == csize - 1
            r = cir.spacetime_allocation(c)
            assert r.sa_exact == 2 * csize - 2

    def test_double_count_identity(self):
        rng = np.random.default_rng(2)
        c = Circuit()
        qs = [c.alloc(at_layer=int(rng.integers(0, 3))) for _ in range(8)]
        for _ in range(30):
            i, j = rng.choice(8, size=2, replace=False)
            try:
                append(c, gate("cnot", (qs[i], qs[j])))
            except (OperandNotLive, UseAfterDealloc):
                pass
        for q in qs:
            c.dealloc(q)
        r = cir.spacetime_allocation(c)
        prof = c.compact().live_profile()
        assert r.sa_exact == sum(prof)

    def test_size_le_sa_le_width_times_depth(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        reg, _ = copy(c, src, 16, start=0)
        c.mark_persistent(reg[1:])
        r = cir.spacetime_allocation(c)
        assert r.size <= r.sa_exact <= r.qubit_count * r.depth

    def test_exact_vs_approx_rotation_width(self):
        c = Circuit()
        q = c.alloc(at_layer=0)
        c.mark_persistent([q])
        place(c, [gate("ry", (q,), 0.3)], 0)
        exact = cir.spacetime_allocation(c)
        assert exact.sa_exact == 1
        model = cir.GateSetModel(epsilon=2.0**-16)
        approx = cir.spacetime_allocation(c, model)
        assert approx.sa_approx == 64
        assert approx.depth_approx == 64

    def test_approx_sa_monotone_in_epsilon(self):
        c = Circuit()
        q = c.alloc(at_layer=0)
        c.mark_persistent([q])
        place(c, [gate("ry", (q,), 0.3)], 0)
        place(c, [gate("x", (q,))], 1)
        values = [cir.spacetime_allocation(c, cir.GateSetModel(eps)).sa_approx
                  for eps in (1e-2, 1e-4, 1e-8, 1e-12)]
        assert values == sorted(values) and len(set(values)) == len(values)


class TestValidate:
    def test_well_formed_is_clean(self):
        c, a, b = two_qubit_circuit()
        append(c, gate("cnot", (a, b)))
        assert c.validate() == []

    def test_hand_built_collision_reported(self):
        c, a, b = two_qubit_circuit()
        append_layer(c, [gate("x", (a,)), gate("cnot", (a, b))])
        assert any("two gates" in v for v in c.validate())

    def test_register_size_violation(self):
        c, a, b = two_qubit_circuit()
        c.add_register("B0", [a])
        c.meta["expected_register_sizes"] = {"B0": 3}
        out = c.validate()
        assert any("register B0" in v for v in out)

    @pytest.mark.parametrize("defect, found", [
        ("collision", "in two gates"),
        ("before_alloc", "used before allocation"),
        ("after_dealloc", "used after deallocation"),
        ("nan_param", "not a finite float"),
        ("numpy_param", "not a finite float"),
        ("unknown_op", "unknown op"),
        ("operand_count", "takes 2 qubits and 0 params"),
        ("repeated_operand", "repeats an operand"),
        ("unhashable_operand", "is not an int qubit id"),
    ])
    def test_unchecked_hand_built_defect_reported(self, defect, found):
        # gates built as bare ``Gate`` tuples and added through append_layer skip the
        # liveness check; a defect the columns cannot hold is raised where the layer is
        # packed, any other one is reported by validate(), each with its class
        error = {"collision": LayerCollision, "before_alloc": OperandNotLive,
                 "after_dealloc": UseAfterDealloc, "nan_param": MalformedCircuit,
                 "numpy_param": MalformedCircuit, "unknown_op": MalformedCircuit,
                 "operand_count": DuplicateOperand, "repeated_operand": DuplicateOperand,
                 "unhashable_operand": OperandNotLive}[defect]
        c, a, b = two_qubit_circuit()
        late = c.alloc(at_layer=1)
        gone = c.alloc(at_layer=0)
        c.dealloc(gone, at_layer=1)
        c.mark_persistent([late])
        bad = {
            "collision": [Gate("x", (), (a,)), Gate("cnot", (), (a, b))],
            "before_alloc": [Gate("x", (), (late,))],
            "after_dealloc": [Gate("x", (), (gone,))],
            "nan_param": [Gate("ry", (math.nan,), (a,))],
            "numpy_param": [Gate("ry", (np.float64(0.5),), (a,))],
            "unknown_op": [Gate("sqrtx", (), (a,))],
            "operand_count": [Gate("cnot", (), (a,))],
            "repeated_operand": [Gate("cnot", (), (a, a))],
            "unhashable_operand": [Gate("x", (), ([0],))],
        }[defect]
        layers = [[Gate("x", (), (b,))], [Gate("x", (), (late,))]]
        layers[0 if defect == "before_alloc" else 1] += bad
        try:
            for layer in layers:
                append_layer(c, layer)
        except CircuitError as e:
            faults = [(type(e), str(e))]
        else:
            faults = list(c._faults())
            assert [message for _, message in faults] == c.validate()
        assert faults and all(message.startswith("layer ") for _, message in faults)
        assert any(cls is error and found in message for cls, message in faults), faults


def one_qubit_circuit(layers: int = 1):
    """A persistent qubit allocated at layer 0, with an x on it at each of ``layers`` layers."""
    c = Circuit()
    q = c.alloc(at_layer=0)
    c.mark_persistent([q])
    for t in range(layers):
        c.put("x", [q], t)
    return c, q


#: defect -> how to build it through the public API into ``one_qubit_circuit()``
STORED_DEFECTS = {
    "register_repeats_a_qubit": lambda c, q: c.add_register("R", [q, q]),
    "register_id_not_a_qubit": lambda c, q: c.add_register("R", [7]),
    "persistent_id_not_a_qubit": lambda c, q: c.mark_persistent([7]),
    "release_past_the_last_layer": lambda c, q: c.dealloc(c.alloc(at_layer=0), 5),
    "lifetime_past_the_last_layer": lambda c, q: c.dealloc(c.alloc(at_layer=4), 9),
    "qubit_never_released_nor_persistent": lambda c, q: c.alloc(at_layer=0),
}

#: argument -> (error class, the call on ``one_qubit_circuit(3)`` that must refuse it)
REFUSED_ARGUMENTS = {
    "negative_alloc_layer": (OperandNotLive, lambda c, q: c.alloc(at_layer=-3)),
    "alloc_layer_past_int32": (OperandNotLive, lambda c, q: c.alloc_many(1, at_layer=2**31)),
    "alloc_layers_past_int32": (OperandNotLive, lambda c, q: c.alloc_many(2, at_layer=[0, -2**40])),
    "unknown_kind": (MalformedCircuit, lambda c, q: c.alloc_many(2, "bogus")),
    "negative_count": (MalformedCircuit, lambda c, q: c.alloc_many(-1)),
    **{f"alloc_layer_{name}": (OperandNotLive, partial(lambda at, c, q: c.alloc_many(1, at_layer=at), at))
       for name, at in [("str", "x"), ("float", 1.5), ("bool", True), ("bool_list", [True]), ("float_list", [1.5])]},
    # qubit 1 is persistent, with no gate: a release at any layer index would pass
    **{f"release_layer_{name}": (OperandNotLive, partial(lambda at, c, q: c.dealloc_many([1], at), at))
       for name, at in [("str", "x"), ("str_list", ["x"]), ("float_list", [1.5]), ("float", 2.0),
                        ("bool", True), ("bool_list", [True]), ("negative", -3)]},
    "release_layer_count": (MalformedCircuit, lambda c, q: c.dealloc_many([1], [1, 2])),
    "bool_release": (OperandNotLive, lambda c, q: c.dealloc_many([True], 3)),
    "bool_persistent": (OperandNotLive, lambda c, q: c.mark_persistent([True])),
    "bool_register": (OperandNotLive, lambda c, q: c.add_register("R", [q, False])),
    "register_id_past_int32": (OperandNotLive, lambda c, q: c.add_register("R", [2**31])),
}


class TestOneRuleSet:
    """What ``loads`` refuses, ``validate`` reports, and the builders refuse what the
    tables cannot hold at the call."""

    @pytest.mark.parametrize("name", list(STORED_DEFECTS))
    def test_validate_reports_what_loads_raises(self, name):
        c, q = one_qubit_circuit()
        STORED_DEFECTS[name](c, q)
        faults = list(c._faults())
        assert faults and [message for _, message in faults] == c.validate()
        with pytest.raises(CircuitError) as info:
            cir.loads(cir.dumps(c))
        assert (info.type, str(info.value)) == faults[0]

    @pytest.mark.parametrize("edit, error, message", [
        ({"alloc": [[0, 1.5, "clean"], [1, 0, "weird"], [2, 1, "clean"]]}, OperandNotLive,
         "alloc layer 1.5 is not a layer index"),
        ({"dealloc": [[2, True]]}, OperandNotLive, "qubit 2 deallocated at True, not a layer index"),
    ], ids=["first_faulty_row_of_a_piece", "release_layer_true"])
    def test_table_rows_go_through_the_builders_rules(self, edit, error, message):
        """The reader allocates and releases through the builder: a piece of rows with two
        faulty ones raises the first row's error, and a release layer ``true`` is refused."""
        with pytest.raises(error) as info:
            cir.loads(circuit_json({**in_layer_doc(), **edit}))
        assert (info.type, str(info.value)) == (error, message)

    @pytest.mark.parametrize("name", list(REFUSED_ARGUMENTS))
    def test_builder_refuses_at_the_call(self, name):
        error, call = REFUSED_ARGUMENTS[name]
        c, q = one_qubit_circuit(3)
        c.mark_persistent([c.alloc(at_layer=0)])
        before = cir.dumps(c), set(c.registers)
        with pytest.raises(error):
            call(c, q)
        assert (cir.dumps(c), set(c.registers)) == before and c.validate() == []


#: hand-built gate -> (error class, message) it raises where it is packed: each is a
#: defect the columns cannot hold, reported as validate()'s walk reported it before
UNPACKABLE = {
    "unknown_op": (Gate("sqrtx", (), (0,)), MalformedCircuit, "layer 0: unknown op 'sqrtx'"),
    "operand_count": (Gate("cnot", (), (0,)), DuplicateOperand,
                      "layer 0: cnot takes 2 qubits and 0 params, got 1 and 0"),
    "param_count": (Gate("ry", (), (0,)), MalformedCircuit,
                    "layer 0: ry takes 1 qubits and 1 params, got 1 and 0"),
    "numpy_param": (Gate("ry", (np.float64(0.5),), (0,)), MalformedCircuit,
                    "layer 0: ry parameter np.float64(0.5) is not a finite float"),
    "int_param": (Gate("rz", (1,), (0,)), MalformedCircuit, "layer 0: rz parameter 1 is not a finite float"),
    "bool_operand": (Gate("x", (), (True,)), OperandNotLive, "layer 0: x operand True is not an int qubit id"),
    "numpy_operand": (Gate("x", (), (np.int64(0),)), OperandNotLive,
                      "layer 0: x operand np.int64(0) is not an int qubit id"),
}


#: the faults of ``UNPACKABLE`` that circuit JSON can hold: it has no numpy scalars,
#: and the reader takes an int parameter as a float
IN_JSON = {"unknown_op", "operand_count", "param_count", "bool_operand"}


def with_batch(c: Circuit, batch: list[Gate], layer: int) -> str:
    """``c`` as circuit JSON, its layers as they are (not compacted), with ``batch``
    added to layer ``layer`` (and empty layers up to it)."""
    layers = [[g._asdict() for g in gates(c, t)] for t in range(c.num_layers())]
    layers += [[] for _ in range(layer + 1 - len(layers))]
    layers[layer] += [g._asdict() for g in batch]
    return circuit_json({"alloc": [[q, c.alloc_layer(q), c.kind(q)] for q in c.qubits()],
                         "dealloc": [[q, c.dealloc_layer(q)] for q in c.qubits() if c.dealloc_layer(q) is not None],
                         "layers": layers, "persistent": [q for q in c.qubits() if c.dealloc_layer(q) is None]})


def add_batch(c: Circuit, entry: str, batch: list[Gate], layer: int) -> None:
    """Add ``batch`` at ``layer`` through one entry: ``put`` takes it as one batch of its
    op (the first gate's), from flat operands and parameters; ``place`` and
    ``append_layer`` pack it as the JSON reader does (``_pack``) and place it
    (``_place``) or add it unchecked (``_extend``); ``loads`` reads ``c``'s JSON with
    the batch added."""
    if entry == "put":
        c.put(batch[0].op, [q for g in batch for q in g.qubits], layer, [p for g in batch for p in g.params])
    elif entry == "place":
        place(c, batch, layer)
    elif entry == "append_layer":
        assert layer == c.num_layers()
        append_layer(c, batch)
    else:
        cir.loads(with_batch(c, batch, layer))


class TestPackedBoundary:
    """A batch is packed into the layer columns where it is placed or read: what they
    cannot hold is rejected there, with the class and message validate() gave before.
    ``put`` takes a batch of one op, so it is given the faulty gate alone."""

    @pytest.mark.parametrize("entry, name", [
        pytest.param(entry, name, id=f"{entry}-{name}") for entry in ["place", "append_layer", "put", "loads"]
        for name in UNPACKABLE if entry != "loads" or name in IN_JSON])
    def test_rejected_where_packed(self, name, entry):
        bad, error, message = UNPACKABLE[name]
        c = Circuit()
        c.alloc_many(2, at_layer=0)
        batch = [bad] if entry == "put" else [gate("x", (1,)), bad]
        with pytest.raises(error) as info:
            add_batch(c, entry, batch, 0)
        assert (info.type, str(info.value)) == (error, message)
        assert c.size() == 0 and c.last_use_layer(1) == -1

    @pytest.mark.parametrize("qubit", [2**31, 2**40, -2**40])
    @pytest.mark.parametrize("entry", ["place", "append_layer", "put", "loads"])
    def test_id_past_the_column_is_not_live(self, qubit, entry):
        c = Circuit()
        c.alloc_many(2, at_layer=0)
        with pytest.raises(OperandNotLive, match=f"layer 0: qubit {qubit} is not in the circuit"):
            add_batch(c, entry, [Gate("x", (), (qubit,))], 0)
        assert c.size() == 0

    @pytest.mark.parametrize("fault, error, message", [
        ("dead", OperandNotLive, "layer 1: qubit 2 used before allocation at layer 2"),
        ("released", UseAfterDealloc, "layer 1: qubit 3 used after deallocation at layer 1"),
        ("collided", LayerCollision, "layer 1: qubit 1 in two gates, one already at layer 1"),
    ])
    @pytest.mark.parametrize("entry", ["place", "put", "loads"])
    def test_operand_not_live_there_is_rejected_alike(self, fault, error, message, entry):
        c = Circuit()
        a, b = c.alloc_many(2, at_layer=0)
        late = c.alloc(at_layer=2)
        gone = c.alloc(at_layer=0)
        place(c, [gate("x", (gone,))], 0)  # no layer is empty, as in the text write writes
        c.dealloc(gone, at_layer=1)
        place(c, [gate("x", (b,))], 1)
        bad = {"dead": late, "released": gone, "collided": b}[fault]
        with pytest.raises(error) as info:
            add_batch(c, entry, [gate("ry", (a,), 0.5), gate("ry", (bad,), 0.25)], 1)
        assert (info.type, str(info.value)) == (error, message)
        assert c.size() == 2 and len(gates(c, 1)) == 1


class TestPut:
    """``Circuit.put`` places a batch of one op from flat operands and parameters."""

    def test_batch_lands_as_its_gates(self):
        c = Circuit()
        qs = c.alloc_many(4, at_layer=0)
        assert c.put("cry", qs, 2, (0.5, -0.25)) == 2
        assert gates(c, 2) == [gate("cry", (0, 1), 0.5), gate("cry", (2, 3), -0.25)]
        assert c.put("x", [], 5) == 5 and c.num_layers() == 3

    @pytest.mark.parametrize("op, ids, params, error, message", [
        ("sqrtx", [0, 1], (), MalformedCircuit, "layer 0: unknown op 'sqrtx'"),
        ("cnot", [0, 1, 2], (), DuplicateOperand, "layer 0: cnot takes 2 qubits and 0 params, got 3 and 0"),
        ("ry", [0, 1], (0.5,), MalformedCircuit, "layer 0: ry takes 1 qubits and 1 params, got 2 and 1"),
        ("ry", [0], (0.5, 0.25), MalformedCircuit, "layer 0: ry takes 1 qubits and 1 params, got 1 and 2"),
        ("x", [0, 2**31], (), OperandNotLive, "layer 0: qubit 2147483648 is not in the circuit"),
        ("x", [0, -2**31 - 1], (), OperandNotLive, "layer 0: qubit -2147483649 is not in the circuit"),
    ], ids=["unknown_op", "operand_count", "param_count_short", "param_count_long",
            "id_past_int32", "id_below_int32"])
    def test_batch_form_fault_is_typed(self, op, ids, params, error, message):
        c = Circuit()
        c.alloc_many(3, at_layer=0)
        with pytest.raises(error) as info:
            c.put(op, ids, 0, params)
        assert (info.type, str(info.value)) == (error, message)
        assert c.size() == 0 and c.num_layers() == 0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", [list, partial(array, "d")], ids=["list", "array"])
    @pytest.mark.parametrize("alloc_at", [0, 2], ids=["live", "dead"])
    def test_non_finite_parameter_is_refused(self, value, kind, alloc_at):
        """A parameter that is no finite float is refused by ``put`` (and ``Block.put``),
        whether or not the operands are live there, with the walk's words."""
        message = f"layer 0: ry parameter {value!r} is not a finite float"
        c = Circuit()
        qs = c.alloc_many(2, at_layer=alloc_at)
        for put in (c.put, cir.Block(c, 0).put):
            with pytest.raises(MalformedCircuit) as info:
                put("ry", qs, 0, kind([0.5, value]))
            assert str(info.value) == message
            assert c.size() == 0 and c.num_layers() == 0
        c.put("ry", qs, alloc_at, [0.5, 0.25])
        c.params(alloc_at)[1] = value  # a view the caller may still write: the walk reports it
        c.mark_persistent(qs)
        assert c.validate() == [message.replace("layer 0", f"layer {alloc_at}")]

    def test_block_records_put_batches_for_its_mirror(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        block = cir.Block(c, 0)
        (anc,) = block.alloc_many(1, at_layer=0)
        block.put("cry", [src, anc], 0, [0.5])
        block.put("x", [], 1)
        block.put("h", [anc], 1)
        assert block.mirror(2, 2) == 4
        assert gates(c, 2) == [gate("h", (anc,))]
        assert gates(c, 3) == [gate("cry", (src, anc), -0.5)]
        assert c.dealloc_layer(anc) == 4


class TestExpansion:
    def test_swap_size(self):
        c, a, b = two_qubit_circuit()
        append(c, gate("swap", (a, b)))
        assert expand(c).size() == 3

    def test_toffoli_t_count(self):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(3)]
        c.mark_persistent(qs)
        append(c, gate("toffoli", tuple(qs)))
        out = expand(c)
        t_type = sum(1 for t in range(out.num_layers()) for g in gates(out, t) if g.op in ("t", "tdg"))
        assert t_type == 7

    def test_cswap_rule_shape(self):
        g = gate("cswap", (0, 1, 2))
        seq = DECOMPOSITIONS["cswap"](g)
        assert [x.op for x in seq] == ["cnot", "toffoli", "cnot"]

    @pytest.mark.parametrize("op,params", [
        ("swap", ()),
        ("toffoli", ()),
        ("cswap", ()),
        ("cry", (0.7,)),
        ("ccry", (1.1,)),
        ("crz", (0.4,)),
        ("ccrz", (2.2,)),
    ])
    def test_expansion_preserves_unitary(self, op, params):
        nq = cir.GATE_SIGNATURES[op][0]
        qs = [i for i in range(nq)]
        g = gate(op, tuple(qs), *params)
        expanded = expand_gate(g, U2_CNOT)
        ref = gate_unitary(op, params)
        got = block_unitary(expanded, qs)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_expand_keeps_lifecycle(self):
        c = Circuit()
        a = c.alloc(at_layer=0)
        c.mark_persistent([a])
        b = c.alloc(at_layer=0)
        append(c, gate("cswap", (a, b, c.alloc(at_layer=0))))
        q3 = c.qubits()[2]
        c.dealloc(b, at_layer=c.num_layers())
        c.dealloc(q3, at_layer=c.num_layers())
        out = expand(c)
        cir.spacetime_allocation(out)  # no leak
        assert out.size() > c.size()


class TestSerialization:
    def build(self):
        c = Circuit()
        a = c.alloc(at_layer=0)
        b = c.alloc("dirty", at_layer=0)
        c.mark_persistent([a])
        append(c, gate("ry", (a,), 0.12345678901234))
        append(c, gate("cnot", (a, b)))
        c.dealloc(b, at_layer=c.num_layers())
        c.add_register("D", [a])
        return c

    def test_round_trip_is_byte_identical(self):
        c = self.build()
        text = cir.dumps(c)
        again = cir.dumps(cir.loads(text))
        assert text == again

    def test_round_trip_spcsp_paper_layout_dirty_b1(self):
        rng = np.random.default_rng(6)
        target = make_target(rng.random(64) + 0.02)
        c = proto.spcsp(target, proto.ProtocolConfig(n=6, dirty_b1=True))
        text = cir.dumps(c)
        assert '"dirty"' in text
        assert text == circuit_json(to_json_dict(c))
        assert cir.dumps(cir.loads(text)) == text

    def test_round_trip_preserves_structure(self):
        c = self.build()
        c2 = cir.loads(cir.dumps(c))
        assert c2.depth() == c.depth()
        assert c2.size() == c.size()
        assert c2.kind(c2.qubits()[1]) == "dirty"
        assert [q for q in c2.registers["D"]] == [0]

    @pytest.mark.parametrize("theta", [-0.0, 5e-324, 1e16, 0.1 + 0.2, -1e-300])
    def test_gate_text_matches_json_encoder(self, theta):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(3)]
        c.mark_persistent(qs)
        append(c, gate("ccrz", qs, theta))
        append(c, gate("phase", (qs[0],), theta))
        append(c, gate("cry", (qs[1], qs[2]), theta))
        text = cir.dumps(c)
        assert text == circuit_json(to_json_dict(c))
        assert cir.dumps(cir.loads(text)) == text


class TestBlock:
    def test_mirrored_copy_tree_returns_every_copy(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        place(c, [gate("ry", (src,), 0.9)], 0)
        block = cir.Block(c, 1)
        reg, end = copy(block, src, 8, start=1)
        span = end - 1
        at = end + 2
        assert block.mirror(at, span) == at + span
        for q in reg[1:]:
            assert c.dealloc_layer(q) - at == span - (c.alloc_layer(q) - 1)
        report, state = run(c)
        assert sorted(qid for qid, _, _ in report.ancilla_verdicts) == sorted(q for q in reg[1:])
        assert all(mass < 1e-12 for _, _, mass in report.ancilla_verdicts)
        assert len(state._pos) == 1
        vec = state.statevector([src])
        assert np.max(np.abs(vec - [math.cos(0.45), math.sin(0.45)])) < 1e-12


SPCSP_CONFIGS = st.integers(2, 6).flatmap(lambda n: st.fixed_dictionaries({
    "n": st.just(n),
    "m": st.none() | st.integers(1, n - 1),
    "fanout": st.booleans(),
    "dirty_b1": st.booleans(),
    "complex_mode": st.booleans(),
    "loadf_first_optimized": st.booleans(),
}))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(cfg=SPCSP_CONFIGS, seed=st.integers(0, 2**16))
def test_spcsp_json_round_trips(cfg, seed):
    rng = np.random.default_rng(seed)
    n = cfg["n"]
    amps = rng.random(1 << n) + 0.02
    if cfg["complex_mode"]:
        amps = amps * np.exp(1j * rng.uniform(0, 2 * math.pi, 1 << n))
        if cfg["m"] is None and proto.ProtocolConfig(n=n).resolved_m() is None:
            cfg["m"] = n - 1
    c = proto.spcsp(make_target(amps), proto.ProtocolConfig(**cfg))
    text = cir.dumps(c)
    assert text == circuit_json(to_json_dict(c))
    assert cir.dumps(cir.loads(text)) == text


class TestEmbed:
    def source(self) -> Circuit:
        src = Circuit()
        d = src.alloc(at_layer=0)
        src.mark_persistent([d])
        anc = src.alloc("dirty", at_layer=1)
        late = src.alloc(at_layer=2)
        src.mark_persistent([late])
        place(src, [gate("ry", (d,), 0.5)], 0)
        place(src, [gate("cnot", (d, anc))], 1)
        place(src, [gate("cnot", (anc, late))], 2)
        src.dealloc(anc, at_layer=3)
        return src

    def test_shifted_lifecycles_and_gates(self):
        dst = Circuit()
        dst.alloc(at_layer=0)  # ids here start at 1
        mapping = dst.embed(self.source(), lambda t: t if t < 2 else t + 4)
        assert mapping == [1, 2, 3]
        assert [dst.alloc_layer(q) for q in mapping] == [0, 1, 6]
        # released right after its shifted last layer: shift(3 - 1) + 1
        assert [dst.dealloc_layer(q) for q in mapping] == [None, 7, None]
        assert dst.kind(2) == cir.DIRTY
        assert dst.persistent() == {1, 3}
        assert [[g.qubits for g in gates(dst, t)] for t in range(dst.num_layers())] == [
            [(1,)], [(1, 2)], [], [], [], [], [(2, 3)]]

    def test_shared_qubits_keep_their_lifecycle(self):
        dst = Circuit()
        outer = dst.alloc(at_layer=0)
        dst.alloc_many(3, at_layer=0)
        mapping = dst.embed(self.source(), lambda t: 10 + t, shared={0: outer})
        assert mapping[0] == outer
        assert dst.persistent() == {mapping[2]}
        assert dst.dealloc_layer(outer) is None and dst.dealloc_layer(mapping[1]) == 13
        assert dst.alloc_layer(mapping[1]) == 11 and gates(dst, 10) == [gate("ry", (outer,), 0.5)]


class TestAdjoint:
    def test_adjoint_inverts_unitary(self):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(2)]
        c.mark_persistent(qs)
        append(c, gate("h", (qs[0],)))
        append(c, gate("cnot", (qs[0], qs[1])))
        append(c, gate("ry", (qs[1],), 0.7))
        adj = c.adjoint()
        fwd_gates = [g for t in range(c.num_layers()) for g in gates(c, t)]
        rev_gates = [g for t in range(adj.num_layers()) for g in gates(adj, t)]
        U = block_unitary(fwd_gates, qs)
        V = block_unitary(rev_gates, qs)
        assert np.max(np.abs(V @ U - np.eye(4))) < 1e-12


def in_layer_doc() -> dict:
    """q0, q1 live throughout; q2 allocated at layer 1 and released at layer 2."""
    return {
        "layers": [[{"op": "ry", "params": [0.5], "qubits": [0]}],
                   [{"op": "cnot", "params": [], "qubits": [0, 1]},
                    {"op": "x", "params": [], "qubits": [2]}],
                   [{"op": "h", "params": [], "qubits": [1]}]],
        "alloc": [[0, 0, "clean"], [1, 0, "clean"], [2, 1, "clean"]],
        "dealloc": [[2, 2]],
        "persistent": [0, 1],
        "registers": {"D": [0, 1]},
    }


#: defect -> (error class a gate-by-gate reader raises, edit of ``in_layer_doc``)
IN_LAYER_DEFECTS = {
    "qubit_in_two_gates": (LayerCollision, lambda d: d["layers"][1].append(
        {"op": "h", "params": [], "qubits": [1]})),
    "repeated_operands": (DuplicateOperand, lambda d: d["layers"][1][0].update(qubits=[1, 1])),
    "gate_before_alloc": (OperandNotLive, lambda d: d["layers"][0].append(
        {"op": "x", "params": [], "qubits": [2]})),
    "gate_at_dealloc": (UseAfterDealloc, lambda d: d["layers"][2].append(
        {"op": "x", "params": [], "qubits": [2]})),
    "gate_after_dealloc": (UseAfterDealloc, lambda d: (d["layers"].append(
        [{"op": "x", "params": [], "qubits": [2]}]), d["persistent"].append(2))),
    "wrong_operand_count": (DuplicateOperand, lambda d: d["layers"][2][0].update(qubits=[1, 0])),
    "wrong_param_count": (MalformedCircuit, lambda d: d["layers"][0][0].update(params=[])),
    "bool_qubit_id": (OperandNotLive, lambda d: d["layers"][2][0].update(qubits=[True])),
    "str_qubit_id": (OperandNotLive, lambda d: d["layers"][2][0].update(qubits=["1"])),
    "negative_qubit_id": (OperandNotLive, lambda d: d["layers"][2][0].update(qubits=[-1])),
}


class TestLoadsLayerChecks:
    def test_base_document_loads(self):
        c = cir.loads(circuit_json(in_layer_doc()))
        assert (c.size(), c.num_layers()) == (4, 3)

    @pytest.mark.parametrize("name", list(IN_LAYER_DEFECTS))
    def test_in_layer_defect_error_class(self, name):
        error, edit = IN_LAYER_DEFECTS[name]
        doc = in_layer_doc()
        edit(doc)
        with pytest.raises(error) as info:
            cir.loads(circuit_json(doc))
        assert info.type is error

    def test_loaded_layers_continue_in_time_order(self):
        c = cir.loads(circuit_json(in_layer_doc()))
        a, b, _ = c.qubits()
        with pytest.raises(LayerCollision):
            place(c, [gate("x", (b,))], 2)
        place(c, [gate("x", (b,))], 3)
        assert append(c, gate("cnot", (a, b))) == 4


def released_doc() -> dict:
    """Two qubits; qubit 1 is released after the last layer."""
    return {
        "layers": [[{"op": "ry", "params": [0.5], "qubits": [0]}],
                   [{"op": "cnot", "params": [], "qubits": [0, 1]}]],
        "alloc": [[0, 0, "clean"], [1, 0, "clean"]],
        "dealloc": [[1, 2]],
        "persistent": [0],
        "registers": {"D": [0]},
    }


#: where an int of the circuit JSON sits -> how to put a value there
INT_FIELDS = {
    "gate_qubit": lambda d, v: d["layers"][1][0].update(qubits=[0, v]),
    "alloc_id": lambda d, v: d["alloc"][1].__setitem__(0, v),
    "alloc_layer": lambda d, v: d["alloc"][1].__setitem__(1, v),
    "dealloc_id": lambda d, v: d["dealloc"][0].__setitem__(0, v),
    "dealloc_layer": lambda d, v: d["dealloc"][0].__setitem__(1, v),
    "register_id": lambda d, v: d["registers"]["D"].append(v),
    "persistent_id": lambda d, v: d["persistent"].append(v),
}


class TestColumnRange:
    """Ints of the circuit JSON that the int32 columns cannot hold are typed input errors."""

    @pytest.mark.parametrize("value", [2**31 - 1, 2**31, 2**40, -2**40, 2**70])
    @pytest.mark.parametrize("field", list(INT_FIELDS))
    def test_out_of_range_int_is_a_circuit_error(self, field, value):
        doc = released_doc()
        INT_FIELDS[field](doc, value)
        with pytest.raises((OperandNotLive, MalformedCircuit)):
            cir.loads(circuit_json(doc))


def spcsp_n(n: int) -> Circuit:
    rng = np.random.default_rng(10)
    return proto.spcsp(make_target(rng.random(1 << n) + 0.05), proto.ProtocolConfig(n=n))


class TestFootprint:
    """The columnar IR costs at most 40 traced bytes per gate, its whole-circuit passes
    a few bytes of scratch per gate, and reading a circuit from its file never holds the
    file's bytes or text whole."""

    @pytest.mark.parametrize("how", ["built", "loaded"])
    def test_ir_bytes_per_gate(self, how):
        text = cir.dumps(spcsp_n(10))  # and the modules the build imports on first use
        gc.collect()
        tracemalloc.start()
        try:
            c = cir.loads(text) if how == "loaded" else spcsp_n(10)
            gc.collect()  # also empties the free lists, whose blocks stay traced
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert c.size() > 15_000
        assert held <= 40 * c.size()

    @pytest.mark.parametrize("walk, bound", [(Circuit.validate, 2.1), (cir.spacetime_allocation, 3)],
                             ids=["validate", "spacetime_allocation"])
    def test_whole_circuit_pass_scratch_per_gate(self, walk, bound):
        """A whole-circuit pass makes no Python object per qubit id: at n=12 (72,790 gates)
        its tracemalloc peak above the circuit is a few bytes per gate.  ``validate`` peaks
        at 1.7 B a gate (one layer's gathers and a mark per qubit); a copy of the alloc
        table and one layer's ids as intp indices took it to 4.1, and a set of a layer's
        ids and list copies of the lifecycle tables to 20."""
        c = spcsp_n(12)
        gc.collect()
        tracemalloc.start()
        try:
            walk(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.size() == 72790
        assert peak < bound * c.size()

    def test_reading_a_file_peaks_below_its_size(self, tmp_path):
        path = tmp_path / "n12.json"
        path.write_text(cir.dumps(spcsp_n(12)))
        gc.collect()
        tracemalloc.start()
        try:
            c, _ = _load_circuit(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.size() > 70_000
        assert peak < path.stat().st_size


def gapped_circuit() -> Circuit:
    """Two persistent data qubits and a dirty ancilla, with an empty layer between gates."""
    c = Circuit()
    data = list(c.alloc_many(2, at_layer=0))
    c.mark_persistent(data)
    anc = c.alloc(cir.DIRTY, at_layer=0)
    c.put("cry", [data[0], anc], 0, [0.5])
    c.put("cnot", [anc, data[1]], 2)
    c.dealloc(anc, at_layer=3)
    return c


#: a whole-circuit pass -> what it is called with
PASSES = {
    "validate": Circuit.validate,
    "spacetime_allocation": cir.spacetime_allocation,
    "live_profile": Circuit.live_profile,
    "live_profile_dirty": lambda c: c.live_profile(c.of_kind(cir.DIRTY)),
    "of_kind": lambda c: c.of_kind(cir.CLEAN),
    "compact": Circuit.compact,
    "adjoint": Circuit.adjoint,
    "loads": lambda c: cir.loads(cir.dumps(c)),
}


class TestTablesStayResizable:
    """The whole-circuit passes read the tables and columns through numpy views, and
    an array cannot be resized while a view of it exists (``BufferError``): after each
    pass, the circuit it read and the one it returns still take qubits, gates and
    releases."""

    @pytest.mark.parametrize("name", list(PASSES))
    def test_circuit_grows_after_the_pass(self, name):
        c = gapped_circuit()
        out = PASSES[name](c)
        for circuit in [c] + [out] * isinstance(out, Circuit):
            last = circuit.num_layers() - 1
            fresh = circuit.alloc_many(2, cir.DIRTY, at_layer=last)
            circuit.put("cnot", fresh, last)
            circuit.dealloc_many(fresh, last + 1)
            assert circuit.validate() == []


class TestOfKind:
    def test_matches_the_kind_of_each_qubit(self):
        c = proto.spcsp(make_target(np.arange(1.0, 65.0)), proto.ProtocolConfig(n=6, dirty_b1=True))
        dirty = c.of_kind(cir.DIRTY)
        assert dirty and dirty == [q for q in c.qubits() if c.kind(q) == cir.DIRTY]
        assert sorted(dirty + c.of_kind(cir.CLEAN)) == list(c.qubits())


#: the text of ``in_layer_doc`` as the writer writes it, the one layout ``loads`` reads
IN_LAYER_TEXT = circuit_json(in_layer_doc())

#: a JSON number
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?")


def spelled(text: str) -> str:
    """``text`` with each number spelled as the writer spells it: ``repr`` of its int or float."""
    return NUMBER.sub(lambda m: repr(int(m[0]) if m[0].lstrip("-").isdigit() else float(m[0])), text)


def read_one_edit(base: str, at: int, edit: str, char: str) -> None:
    """Read ``base`` edited at ``at`` as a ``str``, as ``bytes`` and from a file: each gives a
    circuit that passes ``validate()`` or a ``CircuitError``, the same one each way, and
    never any other exception.  A circuit it gives is written back as the edited text, but
    for the spelling of its numbers (:func:`spelled`) and whitespace after its end."""
    text = base[:at] + {"delete": "", "insert": char + base[at:at + 1], "replace": char}[edit] + base[at + 1:]
    data = text.encode("utf-8", "surrogatepass")
    outcomes = []
    for source in (text, data, io.BytesIO(data)):
        try:
            c = cir.loads(source)
        except CircuitError as e:
            outcomes.append((type(e), str(e)))
        else:
            assert c.validate() == []
            outcomes.append(cir.dumps(c))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if isinstance(outcomes[0], str):
        assert spelled(outcomes[0]) == spelled(text.rstrip(" \t\n\r"))


def refused_at(data: str | bytes, at: int | None = None) -> MalformedCircuit:
    """``loads`` refuses ``data`` with ``MalformedCircuit`` naming byte ``at``, by default the
    first byte where it leaves ``IN_LAYER_TEXT``; returns the error."""
    if at is None:
        at = len(os.path.commonprefix([data, IN_LAYER_TEXT.encode() if isinstance(data, bytes) else IN_LAYER_TEXT]))
    with pytest.raises(MalformedCircuit, match=f"^circuit JSON byte {at}: ") as info:
        cir.loads(data)
    return info.value


_RAW_REGISTER = IN_LAYER_TEXT.replace('{"D":[0,1]}', '{"D":[0,1],"é":[1]}')

#: a departure from the layout -> (the text that makes it of ``in_layer_doc``, the byte that
#: ``loads`` names, if not the first where the text leaves ``IN_LAYER_TEXT``)
DEPARTURES = {
    "missing_key": (IN_LAYER_TEXT.replace('"persistent":[0,1],', ""), None),
    "missing_table": (IN_LAYER_TEXT.replace('"dealloc":[[2,2]],', ""), None),
    "extra_key_first": ('{"aaa":1,' + IN_LAYER_TEXT[1:], None),
    "extra_key_between": (IN_LAYER_TEXT.replace(',"layers"', ',"extra":1,"layers"'), None),
    "utf8_bom": (b"\xef\xbb\xbf" + IN_LAYER_TEXT.encode(), 0),
    "utf16": (IN_LAYER_TEXT.encode("utf-16"), 0),
    "raw_non_ascii_register_name": (_RAW_REGISTER, _RAW_REGISTER.index("é")),
    "raw_non_ascii_register_name_bytes": (_RAW_REGISTER.encode(), _RAW_REGISTER.index("é")),
    "space_in_a_row": (IN_LAYER_TEXT.replace('[2,1,"clean"]', '[2,1, "clean"]'), None),
    "space_in_a_gate": (IN_LAYER_TEXT.replace('"qubits":[0,1]', '"qubits":[0, 1]'), None),
    "space_in_the_registers": (IN_LAYER_TEXT.replace('{"D":[0,1]}', '{"D": [0,1]}'), None),
    "empty_layer": (IN_LAYER_TEXT.replace('"layers":[', '"layers":[[],'), None),
    "layer_not_a_list": (IN_LAYER_TEXT.replace('[{"op":"h"', '{"op":"h"').replace('[1]}]]', '[1]}]'), None),
    "trailing_comma": (IN_LAYER_TEXT.replace('[1]}]]', '[1]},]]'), IN_LAYER_TEXT.index('[1]}]]') + 5),
    "deep_registers": (IN_LAYER_TEXT.replace('{"D":[0,1]}', "[" * 100_000 + "]" * 100_000),
                       IN_LAYER_TEXT.index('{"D"')),
    "repeated_register_name": (IN_LAYER_TEXT.replace('{"D":[0,1]}', '{"D":[0,1],"D":[0]}'),
                               IN_LAYER_TEXT.index('"D"') + len('"D":[0,1],')),
    "unsorted_register_names": (IN_LAYER_TEXT.replace('{"D":[0,1]}', '{"D":[0,1],"C":[0]}'),
                                IN_LAYER_TEXT.index('"D"') + len('"D":[0,1],')),
    "register_name_no_string": (IN_LAYER_TEXT.replace('{"D":[0,1]}', '{1:[0,1]}'), None),
    "persistent_id_a_string": (IN_LAYER_TEXT.replace('"persistent":[0,1]', '"persistent":[0,"1"]'), None),
    "persistent_id_true": (IN_LAYER_TEXT.replace('"persistent":[0,1]', '"persistent":[0,1,true]'),
                           IN_LAYER_TEXT.index('"persistent":') + len('"persistent":[0,1,')),
    "register_id_null": (IN_LAYER_TEXT.replace('{"D":[0,1]}', '{"D":[0,1,null]}'),
                         IN_LAYER_TEXT.index('"D":') + len('"D":[0,1,')),
    "register_id_a_list": (IN_LAYER_TEXT.replace('{"D":[0,1]}', '{"D":[[0],1]}'), None),
}


def released_pair_doc() -> dict:
    """``in_layer_doc`` with qubit 1 released too, after its last gate."""
    doc = in_layer_doc()
    doc.update(dealloc=[[1, 3], [2, 2]], persistent=[0])
    return doc


#: the writer's text of ``released_pair_doc`` with every qubit persistent and two registers
TAIL_TEXT = circuit_json({**released_pair_doc(), "persistent": [0, 1, 2], "registers": {"C": [1], "D": [0, 1]}})


def gate_text(gate: str) -> str:
    """``IN_LAYER_TEXT`` with its last gate written as ``gate``."""
    return IN_LAYER_TEXT.replace('{"op":"h","params":[],"qubits":[1]}', gate)


#: a text that breaks the order or the form ``write`` writes in -> (the text, the error class,
#: how its message starts)
OUT_OF_WRITE_ORDER = {
    "persistent_repeated": (IN_LAYER_TEXT.replace('"persistent":[0,1]', '"persistent":[0,1,1]'),
                            MalformedCircuit, "persistent ids"),
    "persistent_descending": (IN_LAYER_TEXT.replace('"persistent":[0,1]', '"persistent":[1,0]'),
                              MalformedCircuit, "persistent ids"),
    "dealloc_descending": (circuit_json({**released_pair_doc(), "dealloc": [[2, 2], [1, 3]]}),
                           MalformedCircuit, "dealloc ids"),
    "dealloc_repeated": (circuit_json({**released_pair_doc(), "dealloc": [[1, 3], [1, 3], [2, 2]]}),
                         DoubleDealloc, "qubit 1 deallocated twice"),
    "alloc_out_of_order": (IN_LAYER_TEXT.replace('[[0,0,"clean"],[1,0,"clean"]', '[[1,0,"clean"],[0,0,"clean"]'),
                           OperandNotLive, "alloc list must cover dense qubit ids"),
    "alloc_id_missing": (IN_LAYER_TEXT.replace('[1,0,"clean"],[2,1,"clean"]', '[2,1,"clean"]'),
                         OperandNotLive, "alloc list must cover dense qubit ids"),
    "int_parameter": (IN_LAYER_TEXT.replace("[0.5]", "[1]"), MalformedCircuit, "layer 0: ry parameter 1 is not"),
    **{name: (gate_text(gate), MalformedCircuit, "layer 2: ") for name, gate in [
        ("repeated_op", '{"op":"x","params":[],"op":"h","qubits":[1]}'),
        ("repeated_params", '{"op":"h","params":[],"params":[],"qubits":[1]}'),
        ("repeated_qubits", '{"op":"h","params":[],"qubits":[0],"qubits":[1]}'),
        ("extra_gate_key", '{"op":"h","params":[],"qubits":[1],"x":1}')]},
}


class TestStreamingReader:
    """``loads`` reads the text the writer writes, and only that: it steps over the layout
    literally and decodes the tables and each layer a piece at a time.  Any other text
    is ``MalformedCircuit`` naming the byte where it leaves the layout."""

    @pytest.mark.parametrize("order", [
        ("alloc", "dealloc", "layers", "persistent", "registers"),
        ("layers", "alloc", "dealloc", "persistent", "registers"),
        ("alloc", "layers", "dealloc", "registers", "persistent"),
        ("registers", "persistent", "dealloc", "layers", "alloc"),
    ], ids=lambda order: "-".join(order))
    def test_any_key_order(self, order):
        """The keys in sorted order read; in any other order, the first key out of place is
        refused."""
        doc = in_layer_doc()
        text = json.dumps({key: doc[key] for key in order}, separators=(",", ":"))
        if list(order) == sorted(order):
            assert cir.dumps(cir.loads(text)) == text == IN_LAYER_TEXT
        else:
            refused_at(text)

    @pytest.mark.parametrize("indent", [None, 0, 2, "\t"])
    def test_whitespace_anywhere(self, indent):
        """Whitespace is refused wherever JSON allows it, except after the closing brace."""
        refused_at(json.dumps(in_layer_doc(), indent=indent, sort_keys=True))
        refused_at(" " + IN_LAYER_TEXT, 0)
        assert cir.dumps(cir.loads(IN_LAYER_TEXT + " \n\t\r")) == IN_LAYER_TEXT

    @pytest.mark.parametrize("name", list(DEPARTURES))
    def test_departure_names_its_byte(self, name):
        data, at = DEPARTURES[name]
        refused_at(data, at)

    def test_register_named_layers(self):
        doc = in_layer_doc()
        doc["registers"]["layers"] = [1]
        c = cir.loads(circuit_json(doc))
        assert {k: list(v) for k, v in c.registers.items()} == {"D": [0, 1], "layers": [1]}
        assert c.num_layers() == 3
        assert cir.dumps(c) == circuit_json(doc)

    def test_register_name_with_a_space_reads_back(self):
        c, _ = one_qubit_circuit()
        c.add_register("my register", [0])
        text = cir.dumps(c)
        assert '"my register":[0]' in text and cir.dumps(cir.loads(text)) == text

    @pytest.mark.parametrize("key", ["alloc", "dealloc", "layers", "persistent", "registers", "extra"])
    def test_repeated_key_is_malformed(self, key):
        """A key after ``registers``, repeated or not, is refused where it starts."""
        value = {**in_layer_doc(), "extra": 1}[key]
        refused_at(IN_LAYER_TEXT[:-1] + ',"%s":%s}' % (key, json.dumps(value, separators=(",", ":"))),
                   len(IN_LAYER_TEXT) - 1)

    @pytest.mark.parametrize("trailing", ["x", "{}", "]", " 0", ",", "\x00"])
    def test_trailing_data_is_a_decode_error(self, trailing):
        """Text after the closing brace and any whitespace is refused where it starts."""
        error = refused_at(IN_LAYER_TEXT + trailing, len(IN_LAYER_TEXT) + len(trailing) - len(trailing.lstrip(" ")))
        assert str(error).endswith("expected the end of the text")

    def test_tail_text_reads_back(self):
        """The base of the tail's one-edit property is a valid circuit in ``write``'s order."""
        assert cir.dumps(cir.loads(TAIL_TEXT)) == TAIL_TEXT

    @pytest.mark.parametrize("name", list(OUT_OF_WRITE_ORDER))
    def test_out_of_write_order_is_refused(self, name):
        """Rows and ids out of the order ``write`` writes them in, an int parameter and a gate
        key repeated or extra are refused, read as a ``str``, as ``bytes`` and from a file
        alike; a gate's fault names its layer."""
        text, error, message = OUT_OF_WRITE_ORDER[name]
        for source in (text, text.encode(), io.BytesIO(text.encode())):
            with pytest.raises(error) as info:
                cir.loads(source)
            assert info.type is error and str(info.value).startswith(message)

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(at=st.integers(0, len(IN_LAYER_TEXT)), edit=st.sampled_from(["delete", "insert", "replace"]),
           char=st.sampled_from(list('{}[],:" \n\t0123456789.-eEtrufalsnNIx')) | st.characters())
    @example(at=IN_LAYER_TEXT.index('{"op"'), edit="insert", char="[")
    @example(at=IN_LAYER_TEXT.index("0.5"), edit="replace", char="N")
    def test_one_edit_reads_or_is_a_circuit_error(self, at, edit, char):
        """Any one-character edit of the canonical text reads one way from every source, and
        a circuit it gives is written back as read (:func:`read_one_edit`)."""
        read_one_edit(IN_LAYER_TEXT, at, edit, char)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(at=st.integers(TAIL_TEXT.index('"dealloc"'), len(TAIL_TEXT)),
           edit=st.sampled_from(["delete", "insert", "replace"]), char=st.sampled_from(list('{}[],:"0123CDE')))
    @example(at=TAIL_TEXT.index("[2,2]") + 1, edit="replace", char="0")      # dealloc ids out of order
    @example(at=TAIL_TEXT.index("1,2]"), edit="replace", char="0")          # a persistent id twice
    @example(at=TAIL_TEXT.index('"C"') + 1, edit="replace", char="D")       # a register name twice
    @example(at=TAIL_TEXT.index('"C"') + 1, edit="replace", char="E")       # register names out of order
    def test_one_edit_of_the_tail_reads_back_as_written(self, at, edit, char):
        """The one-edit property on a text with two dealloc rows, three persistent ids and two
        registers, edited from its dealloc table on."""
        read_one_edit(TAIL_TEXT, at, edit, char)

    @pytest.mark.parametrize("order", ["layers_first", "canonical"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(at=st.floats(0, 1), edit=st.sampled_from(["delete", "insert", "replace"]),
           char=st.sampled_from(list('{}[],:" \n0123456789.-eEtrufalsnNx')))
    @example(at=0.5, edit="insert", char="[")
    def test_one_edit_fails_to_decode_as_json_loads_does(self, order, at, edit, char):
        """A one-character edit that ``json.loads`` cannot decode is ``MalformedCircuit``, which
        names a byte no later than where ``json.loads`` stops or else the layer whose gates break
        the schema; one it decodes reads as a circuit that passes ``validate()`` or is a
        ``CircuitError``.  An edit of the text with
        ``layers`` first is always refused."""
        doc = {"persistent": [], "registers": {}, **in_layer_doc()}
        keys = sorted(doc, key=lambda key: key != "layers") if order == "layers_first" else sorted(doc)
        text = json.dumps({key: doc[key] for key in keys}, separators=(",", ":"))
        i = int(at * (len(text) - 1))
        text = text[:i] + {"delete": "", "insert": char + text[i], "replace": char}[edit] + text[i + 1:]
        try:
            json.loads(text)
        except json.JSONDecodeError as e:
            with pytest.raises(MalformedCircuit) as ours:
                cir.loads(text)
            named = re.match(r"circuit JSON byte (\d+): ", str(ours.value))
            assert named is None or int(named.group(1)) <= e.pos
        else:
            try:
                c = cir.loads(text)
            except CircuitError:
                pass
            else:
                assert order == "canonical" and c.validate() == []

    def test_every_proper_prefix_is_a_decode_error(self):
        """A truncated text is refused at a byte no later than its end."""
        for cut in range(len(IN_LAYER_TEXT)):
            with pytest.raises(MalformedCircuit) as info:
                cir.loads(IN_LAYER_TEXT[:cut])
            assert int(re.match(r"circuit JSON byte (\d+): ", str(info.value)).group(1)) <= cut

    @pytest.mark.parametrize("encode", [
        lambda s: b"\xef\xbb\xbf" + s.encode(),
        lambda s: s.encode("utf-16"),
        lambda s: s.encode("utf-16-le"),
        lambda s: s.encode("utf-32"),
        lambda s: s.encode(),
        lambda s: "\ufeff" + s,
    ], ids=["utf8_bom", "utf16", "utf16le", "utf32", "utf8", "str_with_bom"])
    def test_encodings_as_json_loads(self, encode):
        """``json.loads`` detects the encoding of bytes; ``loads`` reads ASCII alone and refuses
        every other encoding where it leaves that text, at its BOM or its first NUL."""
        data = encode(IN_LAYER_TEXT)
        if isinstance(data, bytes):
            assert json.loads(data) == in_layer_doc()
        if data == IN_LAYER_TEXT.encode():
            assert cir.dumps(cir.loads(data)) == IN_LAYER_TEXT
        else:
            refused_at(data)

    def test_a_fault_in_the_first_block_stops_the_read(self):
        """A large file is read a block at a time, and a fault is raised as soon as it is
        met: a departure, an unknown kind or a syntax error (an unclosed string, a bad
        literal) in the first block is raised before the next block is read, where the
        whole file takes several."""

        class Counted(io.BytesIO):
            def read(self, *args):
                self.reads += 1
                return super().read(*args)

        text = cir.dumps(spcsp_n(10))
        reads = []
        for edited in (text, text[:1] + " " + text[1:], text.replace('"clean"', '"bogus"', 1),
                       text.replace('"clean"', '"clean', 1), text.replace('"clean"', "tru", 1)):
            source = Counted(edited.encode())
            source.reads = 0
            with contextlib.suppress(MalformedCircuit):
                cir.loads(source)
            reads.append(source.reads)
        assert reads == [len(text) // cir._BLOCK + 2, 1, 1, 1, 1]

    @pytest.mark.parametrize("chunk", [1, 64, 1 << 16])
    def test_first_faulty_gate_names_the_error_however_the_layer_is_cut(self, monkeypatch, chunk):
        """An unknown op, then a gate with no ``qubits``, in one layer: the first gate's error
        is raised whether the reader decodes them in one piece or apart (``_CHUNK``)."""
        doc = in_layer_doc()
        doc["layers"][1][0]["op"] = "nop"
        del doc["layers"][1][1]["qubits"]
        doc["layers"][1].append({"op": "x", "params": [], "qubits": [2]})  # a piece ends at "},"
        monkeypatch.setattr(cir, "_CHUNK", chunk)
        with pytest.raises(MalformedCircuit, match="layer 1: unknown op 'nop'"):
            cir.loads(circuit_json(doc))

    @pytest.mark.parametrize("param", [True, "a", None], ids=["true", "string", "null"])
    def test_parameter_that_is_no_number_names_its_layer_and_op(self, param):
        """A parameter that is no float is worded as every other gate fault the reader
        reports (:func:`_form_faults`): led by its layer and op."""
        doc = in_layer_doc()
        doc["layers"][2].append({"op": "ry", "params": [param], "qubits": [0]})
        with pytest.raises(MalformedCircuit) as info:
            cir.loads(circuit_json(doc))
        assert str(info.value) == f"layer 2: ry parameter {param!r} is not a finite float"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_parameter_is_malformed(self, literal):
        text = IN_LAYER_TEXT.replace("0.5", literal)
        assert literal in text
        with pytest.raises(MalformedCircuit):
            cir.loads(text)

    @pytest.mark.parametrize("layer", ['[[{"op":"x","params":[],"qubits":[0]}],%s]',
                                       '[[{"op":"x","params":%s,"qubits":[0]}]]'],
                             ids=["streamed", "in_a_gate"])
    def test_deep_nesting_inside_a_layer(self, layer):
        text = '{"alloc":[],"dealloc":[],"layers":%s,"persistent":[],"registers":{}}' % (
            layer % ("[" * 100_000 + "]" * 100_000))
        with pytest.raises(MalformedCircuit, match="nested too deeply"):
            cir.loads(text)

    @pytest.mark.parametrize("order, bound", [("canonical", 0.5)], ids=["canonical"])
    def test_peak_memory_is_under_half_of_json_loads(self, order, bound):
        """The parsed document never exists whole: ``loads``'s traced peak (the circuit
        it builds plus one decoded piece) stays under half of ``json.loads``'s."""
        rng = np.random.default_rng(10)
        text = cir.dumps(proto.spcsp(make_target(rng.random(1 << 10) + 0.05), proto.ProtocolConfig(n=10)))

        def traced_peak(parse) -> int:
            tracemalloc.start()
            try:
                parse(text)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(cir.loads) <= bound * traced_peak(json.loads)


@pytest.mark.parametrize("flags", list(GOLDEN), ids=lambda flags: "_".join(flags) or "default")
def test_golden_circuits_read_back_byte_identical(tmp_path, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "target.json").write_text(json.dumps(golden_target()))
    assert main(["synth", "--in", "target.json", *flags, "--out", "circuit.json", "--report", "r.json"]) == 0
    text = (tmp_path / "circuit.json").read_text()
    assert cir.dumps(cir.loads(text)) == text
    assert "".join(cir.json_chunks(cir.loads(text))) == text
