import gc
import json
import math
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsprep import circuit_ir as cir
from qsprep import protocols as proto
from qsprep.amplitudes import make_target
from qsprep.circuit_ir import Circuit, Gate, gate
from qsprep.cli import _load_circuit, main
from qsprep.errors import (
    CircuitError,
    DoubleDealloc,
    DuplicateOperand,
    LayerCollision,
    LeakedQubit,
    MalformedCircuit,
    MalformedInput,
    OperandNotLive,
    UseAfterDealloc,
)
from qsprep.sim import run
from qsprep.subroutines import copy
from reference import block_unitary, gate_unitary, to_json_dict
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
        c.append(gate("cnot", (a, b)))
        assert c.depth() == 1

    def test_disjoint_gates_pack(self):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(4)]
        c.mark_persistent(qs)
        c.append(gate("cnot", (qs[0], qs[1])))
        c.append(gate("cnot", (qs[2], qs[3])))
        assert c.depth() == 1

    def test_groups_are_the_gates_by_op(self):
        """``groups`` holds a layer's gates per op, in op-code order, each op's gates in
        the order they were placed; a one-op layer is one group, an empty layer none."""
        c = Circuit()
        qs = c.alloc_many(6, at_layer=0)
        c.place([gate("cnot", (qs[0], qs[1])), gate("ry", (qs[2],), 0.5), gate("cnot", (qs[4], qs[3])),
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
        c.append(gate("cnot", (qs[0], qs[1])))
        c.append(gate("cnot", (qs[1], qs[2])))
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
                        c.append(g)
                    else:
                        c.place([g], c.num_layers())
                depths.append(c.depth())
            assert depths[0] <= depths[1]

    def test_duplicate_operand_rejected(self):
        c, a, b = two_qubit_circuit()
        with pytest.raises(DuplicateOperand):
            gate("cnot", (a, a))

    def test_collision_rejected(self):
        c, a, b = two_qubit_circuit()
        c.place([gate("x", (a,))], 0)
        with pytest.raises(LayerCollision):
            c.place([gate("cnot", (a, b))], 0)

    def test_out_of_order_place_rejected(self):
        c, a, b = two_qubit_circuit()
        c.place([gate("x", (a,))], 3)
        c.place([gate("x", (b,))], 1)
        with pytest.raises(LayerCollision):
            c.place([gate("cnot", (a, b))], 2)

    def test_append_goes_after_an_appended_layer(self):
        """``append_layer`` moves each operand's latest layer, so an ``append`` on the same
        qubit lands in the next layer, not in the appended one."""
        c = Circuit()
        q = c.alloc(at_layer=0)
        c.append_layer([gate("x", (q,))])
        assert c.append(gate("h", (q,))) == 1
        assert c.validate() == []


class TestLifecycle:
    def test_interval_contributes_length(self):
        c = Circuit()
        base = c.alloc(at_layer=0)
        c.mark_persistent([base])
        for _ in range(10):
            c.place([gate("x", (base,))], c.num_layers())
        q = c.alloc(at_layer=5)
        c.place([gate("x", (q,))], 5)
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
        c.place([gate("x", (q,))], 3)
        c.dealloc(q, at_layer=9)
        with pytest.raises(UseAfterDealloc):
            c.place([gate("x", (q,))], 9)

    def test_gate_before_alloc_rejected(self):
        c = Circuit()
        q = c.alloc(at_layer=4)
        with pytest.raises(OperandNotLive):
            c.place([gate("x", (q,))], 2)

    def test_leak_detection(self):
        c = Circuit()
        q = c.alloc(at_layer=0)
        c.place([gate("x", (q,))], 0)
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
        c.place([gate("x", (qs[1],))], 2)
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
        c.place([gate("x", (qs[1],))], 2)
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
        c.place([gate("x", (qs[0],))], 3)
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
            c.place([Gate("x", (), (operand,))], 0)
        with pytest.raises(OperandNotLive):
            c.append(Gate("x", (), (operand,)))


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
                c.append(gate("cnot", (qs[i], qs[j])))
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
        c.place([gate("ry", (q,), 0.3)], 0)
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
        c.place([gate("ry", (q,), 0.3)], 0)
        c.place([gate("x", (q,))], 1)
        values = [cir.spacetime_allocation(c, cir.GateSetModel(eps)).sa_approx
                  for eps in (1e-2, 1e-4, 1e-8, 1e-12)]
        assert values == sorted(values) and len(set(values)) == len(values)


class TestValidate:
    def test_well_formed_is_clean(self):
        c, a, b = two_qubit_circuit()
        c.append(gate("cnot", (a, b)))
        assert c.validate() == []

    def test_hand_built_collision_reported(self):
        c, a, b = two_qubit_circuit()
        c.append_layer([gate("x", (a,)), gate("cnot", (a, b))])
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
                c.append_layer(layer)
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
}

#: argument -> (error class, the call on ``one_qubit_circuit(3)`` that must refuse it)
REFUSED_ARGUMENTS = {
    "negative_alloc_layer": (OperandNotLive, lambda c, q: c.alloc(at_layer=-3)),
    "alloc_layer_past_int32": (OperandNotLive, lambda c, q: c.alloc_many(1, at_layer=2**31)),
    "alloc_layers_past_int32": (OperandNotLive, lambda c, q: c.alloc_many(2, at_layer=[0, -2**40])),
    "unknown_kind": (MalformedCircuit, lambda c, q: c.alloc_many(2, "bogus")),
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

    @pytest.mark.parametrize("name", list(REFUSED_ARGUMENTS))
    def test_builder_refuses_at_the_call(self, name):
        error, call = REFUSED_ARGUMENTS[name]
        c, q = one_qubit_circuit(3)
        c.alloc(at_layer=0)
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


def add_batch(c: Circuit, entry: str, gates: list[Gate], layer: int) -> None:
    """Add ``gates`` at ``layer`` through one entry; ``put`` takes them as one batch of
    their op (the first gate's), from their flat operands and parameters."""
    if entry == "put":
        c.put(gates[0].op, [q for g in gates for q in g.qubits], layer, [p for g in gates for p in g.params])
    elif entry == "place":
        c.place(gates, layer)
    else:
        assert layer == c.num_layers()
        c.append_layer(gates)


class TestPackedBoundary:
    """A batch is packed into the layer columns where it is placed: what they cannot
    hold is rejected there, with the class and message validate() gave before.
    ``put`` takes a batch of one op, so it is given the faulty gate alone."""

    @pytest.mark.parametrize("name", list(UNPACKABLE))
    @pytest.mark.parametrize("entry", ["place", "append_layer", "put"])
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
    @pytest.mark.parametrize("entry", ["place", "append_layer", "put"])
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
    @pytest.mark.parametrize("entry", ["place", "put"])
    def test_operand_not_live_there_is_rejected_alike(self, fault, error, message, entry):
        c = Circuit()
        a, b = c.alloc_many(2, at_layer=0)
        late = c.alloc(at_layer=2)
        gone = c.alloc(at_layer=0)
        c.dealloc(gone, at_layer=1)
        c.place([gate("x", (b,))], 1)
        bad = {"dead": late, "released": gone, "collided": b}[fault]
        with pytest.raises(error) as info:
            add_batch(c, entry, [gate("ry", (a,), 0.5), gate("ry", (bad,), 0.25)], 1)
        assert (info.type, str(info.value)) == (error, message)
        assert c.size() == 1 and len(list(c.gates(1))) == 1


class TestPut:
    """``Circuit.put`` places a batch of one op from flat operands and parameters."""

    def test_batch_lands_as_its_gates(self):
        c = Circuit()
        qs = c.alloc_many(4, at_layer=0)
        assert c.put("cry", qs, 2, (0.5, -0.25)) == 2
        assert list(c.gates(2)) == [gate("cry", (0, 1), 0.5), gate("cry", (2, 3), -0.25)]
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
        assert list(c.gates(2)) == [gate("h", (anc,))]
        assert list(c.gates(3)) == [gate("cry", (src, anc), -0.5)]
        assert c.dealloc_layer(anc) == 4


class TestExpansion:
    def test_swap_size(self):
        c, a, b = two_qubit_circuit()
        c.append(gate("swap", (a, b)))
        assert cir.expand(c).size() == 3

    def test_toffoli_t_count(self):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(3)]
        c.mark_persistent(qs)
        c.append(gate("toffoli", tuple(qs)))
        out = cir.expand(c)
        t_type = sum(1 for t in range(out.num_layers()) for g in out.gates(t) if g.op in ("t", "tdg"))
        assert t_type == 7

    def test_cswap_rule_shape(self):
        g = gate("cswap", (0, 1, 2))
        seq = cir.DECOMPOSITIONS["cswap"](g)
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
        expanded = cir.expand_gate(g, cir.U2_CNOT)
        ref = gate_unitary(op, params)
        got = block_unitary(expanded, qs)
        assert np.max(np.abs(got - ref)) < 1e-10

    def test_expand_keeps_lifecycle(self):
        c = Circuit()
        a = c.alloc(at_layer=0)
        c.mark_persistent([a])
        b = c.alloc(at_layer=0)
        c.append(gate("cswap", (a, b, c.alloc(at_layer=0))))
        q3 = c.qubits()[2]
        c.dealloc(b, at_layer=c.num_layers())
        c.dealloc(q3, at_layer=c.num_layers())
        out = cir.expand(c)
        cir.spacetime_allocation(out)  # no leak
        assert out.size() > c.size()


class TestSerialization:
    def build(self):
        c = Circuit()
        a = c.alloc(at_layer=0)
        b = c.alloc("dirty", at_layer=0)
        c.mark_persistent([a])
        c.append(gate("ry", (a,), 0.12345678901234))
        c.append(gate("cnot", (a, b)))
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
        assert text == json.dumps(to_json_dict(c), sort_keys=True, separators=(",", ":"))
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
        c.append(gate("ccrz", qs, theta))
        c.append(gate("phase", (qs[0],), theta))
        c.append(gate("cry", (qs[1], qs[2]), theta))
        text = cir.dumps(c)
        assert text == json.dumps(to_json_dict(c), sort_keys=True, separators=(",", ":"))
        assert cir.dumps(cir.loads(text)) == text

    def test_text_dump_mentions_gates(self):
        text = cir.to_text(self.build())
        assert "cnot q0, q1" in text
        assert "ry(" in text


class TestBlock:
    def test_mirrored_copy_tree_returns_every_copy(self):
        c = Circuit()
        src = c.alloc(at_layer=0)
        c.mark_persistent([src])
        c.place([gate("ry", (src,), 0.9)], 0)
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
    assert text == json.dumps(to_json_dict(c), sort_keys=True, separators=(",", ":"))
    assert cir.dumps(cir.loads(text)) == text


class TestEmbed:
    def source(self) -> Circuit:
        src = Circuit()
        d = src.alloc(at_layer=0)
        src.mark_persistent([d])
        anc = src.alloc("dirty", at_layer=1)
        late = src.alloc(at_layer=2)
        src.mark_persistent([late])
        src.place([gate("ry", (d,), 0.5)], 0)
        src.place([gate("cnot", (d, anc))], 1)
        src.place([gate("cnot", (anc, late))], 2)
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
        assert [[g.qubits for g in dst.gates(t)] for t in range(dst.num_layers())] == [
            [(1,)], [(1, 2)], [], [], [], [], [(2, 3)]]

    def test_shared_qubits_keep_their_lifecycle(self):
        dst = Circuit()
        outer = dst.alloc(at_layer=0)
        dst.alloc_many(3, at_layer=0)
        mapping = dst.embed(self.source(), lambda t: 10 + t, shared={0: outer})
        assert mapping[0] == outer
        assert dst.persistent() == {mapping[2]}
        assert dst.dealloc_layer(outer) is None and dst.dealloc_layer(mapping[1]) == 13
        assert dst.alloc_layer(mapping[1]) == 11 and list(dst.gates(10)) == [gate("ry", (outer,), 0.5)]


class TestAdjoint:
    def test_adjoint_inverts_unitary(self):
        c = Circuit()
        qs = [c.alloc(at_layer=0) for _ in range(2)]
        c.mark_persistent(qs)
        c.append(gate("h", (qs[0],)))
        c.append(gate("cnot", (qs[0], qs[1])))
        c.append(gate("ry", (qs[1],), 0.7))
        adj = c.adjoint()
        fwd_gates = [g for t in range(c.num_layers()) for g in c.gates(t)]
        rev_gates = [g for t in range(adj.num_layers()) for g in adj.gates(t)]
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
        c = cir.loads(json.dumps(in_layer_doc()))
        assert (c.size(), c.num_layers()) == (4, 3)

    @pytest.mark.parametrize("name", list(IN_LAYER_DEFECTS))
    def test_in_layer_defect_error_class(self, name):
        error, edit = IN_LAYER_DEFECTS[name]
        doc = in_layer_doc()
        edit(doc)
        with pytest.raises(error) as info:
            cir.loads(json.dumps(doc))
        assert info.type is error

    def test_loaded_layers_continue_in_time_order(self):
        c = cir.loads(json.dumps(in_layer_doc()))
        a, b, _ = c.qubits()
        with pytest.raises(LayerCollision):
            c.place([gate("x", (b,))], 2)
        c.place([gate("x", (b,))], 3)
        assert c.append(gate("cnot", (a, b))) == 4


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
            cir.loads(json.dumps(doc))


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


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def indented(order: str) -> str:
    """``in_layer_doc`` as indented text, its keys as written ("layers_first") or sorted ("canonical")."""
    return json.dumps(in_layer_doc(), indent=1, sort_keys=order == "canonical")


_CANONICAL_TEXT = indented("canonical")
#: where the canonical text opens layer 0's first gate, as an ``at`` of the one-edit test:
#: a "[" inserted there is a syntax error that ``json.loads`` reports further on
FIRST_GATE_AT = (_CANONICAL_TEXT.index("{", _CANONICAL_TEXT.index('"layers"')) + 0.5) / (len(_CANONICAL_TEXT) - 1)


class TestStreamingReader:
    """``loads`` reads the top-level object key by key and ``layers`` element by
    element, and accepts and rejects what ``json.loads`` does."""

    @pytest.mark.parametrize("order", [
        ("alloc", "dealloc", "layers", "persistent", "registers"),
        ("layers", "alloc", "dealloc", "persistent", "registers"),
        ("alloc", "layers", "dealloc", "registers", "persistent"),
        ("registers", "persistent", "dealloc", "layers", "alloc"),
    ], ids=lambda order: "-".join(order))
    def test_any_key_order(self, order):
        doc = in_layer_doc()
        text = json.dumps({key: doc[key] for key in order})
        assert cir.dumps(cir.loads(text)) == canonical(doc)

    @pytest.mark.parametrize("indent", [None, 0, 2, "\t"])
    def test_whitespace_anywhere(self, indent):
        doc = in_layer_doc()
        text = " \n\t" + json.dumps(doc, indent=indent, separators=(" , ", " : ")) + "\r\n "
        assert cir.dumps(cir.loads(text)) == canonical(doc)

    def test_register_named_layers(self):
        doc = in_layer_doc()
        doc["registers"]["layers"] = [1]
        c = cir.loads(canonical(doc))
        assert {k: list(v) for k, v in c.registers.items()} == {"D": [0, 1], "layers": [1]}
        assert c.num_layers() == 3
        assert cir.dumps(c) == canonical(doc)

    @pytest.mark.parametrize("key", ["alloc", "dealloc", "layers", "persistent", "registers", "extra"])
    def test_repeated_key_is_malformed(self, key):
        doc = {**in_layer_doc(), "extra": 1}
        text = canonical(doc)[:-1] + ',"%s":%s}' % (key, json.dumps(doc[key]))
        json.loads(text)  # which json.loads accepted, keeping the last value
        with pytest.raises(MalformedCircuit, match="repeats the key"):
            cir.loads(text)

    @pytest.mark.parametrize("trailing", ["x", "{}", "]", " 0", ",", "\x00"])
    def test_trailing_data_is_a_decode_error(self, trailing):
        text = canonical(in_layer_doc()) + trailing
        with pytest.raises(json.JSONDecodeError) as ours:
            cir.loads(text)
        with pytest.raises(json.JSONDecodeError) as theirs:
            json.loads(text)
        assert (ours.value.msg, ours.value.pos) == (theirs.value.msg, theirs.value.pos)

    @pytest.mark.parametrize("order", ["layers_first", "canonical"])
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(at=st.floats(0, 1), edit=st.sampled_from(["delete", "insert", "replace"]),
           char=st.sampled_from(list('{}[],:" \n0123456789.-eEtrufalsnNx')))
    @example(at=FIRST_GATE_AT, edit="insert", char="[")
    def test_one_edit_fails_to_decode_as_json_loads_does(self, order, at, edit, char):
        text = indented(order)
        i = int(at * (len(text) - 1))
        text = text[:i] + {"delete": "", "insert": char + text[i], "replace": char}[edit] + text[i + 1:]
        try:
            json.loads(text)
        except json.JSONDecodeError as e:
            with pytest.raises(json.JSONDecodeError) as ours:
                cir.loads(text)
            assert (ours.value.msg, ours.value.pos) == (e.msg, e.pos)
        else:
            try:
                cir.loads(text)
            except json.JSONDecodeError:
                pytest.fail("loads rejects text json.loads decodes")
            except CircuitError:
                pass

    def test_every_proper_prefix_is_a_decode_error(self):
        text = json.dumps(in_layer_doc(), indent=1)
        for cut in range(len(text.rstrip())):
            with pytest.raises(json.JSONDecodeError):
                cir.loads(text[:cut])

    @pytest.mark.parametrize("encode", [
        lambda s: b"\xef\xbb\xbf" + s.encode(),
        lambda s: s.encode("utf-16"),
        lambda s: s.encode("utf-16-le"),
        lambda s: s.encode("utf-32"),
        lambda s: s.encode(),
        lambda s: "\ufeff" + s,
    ], ids=["utf8_bom", "utf16", "utf16le", "utf32", "utf8", "str_with_bom"])
    def test_encodings_as_json_loads(self, encode):
        doc = in_layer_doc()
        data = encode(json.dumps(doc))
        try:
            json.loads(data)
        except json.JSONDecodeError:
            with pytest.raises(json.JSONDecodeError):
                cir.loads(data)
        else:
            assert cir.dumps(cir.loads(data)) == canonical(doc)

    @pytest.mark.parametrize("chunk", [1, 64, 1 << 16])
    def test_first_faulty_gate_names_the_error_however_the_layer_is_cut(self, monkeypatch, chunk):
        """An unknown op, then a gate with no ``qubits``, in one layer: the first gate's error
        is raised whether the reader decodes them in one chunk or apart (``_CHUNK``)."""
        doc = in_layer_doc()
        doc["layers"][1][0]["op"] = "nop"
        del doc["layers"][1][1]["qubits"]
        doc["layers"][1].append({"op": "x", "params": [], "qubits": [2]})  # a chunk ends at "},"
        monkeypatch.setattr(cir, "_CHUNK", chunk)
        with pytest.raises(MalformedCircuit, match="layer 1: unknown op 'nop'"):
            cir.loads(canonical(doc))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_parameter_is_malformed(self, literal):
        text = canonical(in_layer_doc()).replace("0.5", literal)
        assert literal in text
        with pytest.raises(MalformedCircuit):
            cir.loads(text)

    @pytest.mark.parametrize("layers_first", [False, True], ids=["streamed", "layers_first"])
    def test_deep_nesting_inside_a_layer(self, layers_first):
        deep = "[" * 100_000 + "]" * 100_000
        tables = '"alloc":[],"dealloc":[]'
        text = '{"layers":[[],%s],%s}' % (deep, tables) if layers_first else \
            '{%s,"layers":[[],%s]}' % (tables, deep)
        with pytest.raises(MalformedInput):
            cir.loads(text)

    @pytest.mark.parametrize("order, bound", [("canonical", 0.5), ("layers_first", 0.75)],
                             ids=["canonical", "layers_first"])
    def test_peak_memory_is_under_half_of_json_loads(self, order, bound):
        """The parsed document never exists whole: ``loads``'s traced peak (the circuit
        it builds plus one parsed layer, and the parsed tables while they wait for each
        other) stays under half of ``json.loads``'s in canonical key order, and under
        three quarters when ``layers`` comes first, before the tables are read."""
        rng = np.random.default_rng(10)
        text = cir.dumps(proto.spcsp(make_target(rng.random(1 << 10) + 0.05), proto.ProtocolConfig(n=10)))
        if order == "layers_first":
            doc = json.loads(text)
            text = json.dumps({"layers": doc.pop("layers"), **doc}, separators=(",", ":"))

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
    assert cir.dumps(cir.loads(json.dumps(json.loads(text), indent=1))) == text
    assert "".join(cir.json_chunks(cir.loads(text))) == text
