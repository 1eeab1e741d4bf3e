"""Layered circuit IR with qubit lifecycle events and resource accounting.

A circuit is a list of layers plus, per qubit, an allocation layer, an
optional deallocation layer, and a clean/dirty kind.  A qubit is its int
id, an index into those per-qubit tables: the ids are 0..n-1 in
allocation order, the same ints the circuit JSON carries.  Lifetimes are
half-open: a qubit allocated at layer a and deallocated at layer d may
carry gates on layers a..d-1 and contributes d-a to the spacetime
allocation.  Qubits never deallocated must be marked persistent (data
registers); they accrue from allocation to the end of the circuit.

Storage is columnar, the layout of Stim's circuits (Gidney, "Stim: a fast
stabilizer circuit simulator", Quantum 2021): a layer is three flat
columns, a ``bytearray`` of op codes, an ``array('i')`` of qubit ids and
an ``array('d')`` of parameters, and each op's code fixes how many ids
and parameters it takes (``GATE_SIGNATURES``).  The per-qubit tables are
flat arrays as well, with ``NEVER`` as the release layer of a qubit that
is never released.  A gate costs about 12 bytes of columns and a qubit 13
bytes of tables.  Every check and whole-circuit pass reads the columns
and tables through numpy views that share their memory (:func:`_view`);
serialization takes the columns an id at a time in C, and
:meth:`Circuit.groups` reads a layer back as one id and parameter matrix
per op (the simulator's input).

The check boundary: a valid circuit is one the walk :meth:`Circuit._faults`
finds no fault in (lifetimes within the layers, gates on live qubits,
persistent and register ids that are qubits, and every qubit never released
persistent); :meth:`Circuit.validate` reports its faults and :func:`loads`
raises the first.  What the columns and tables cannot hold is refused where
it is put in: a gate that breaks :func:`_form_faults` where a batch is
packed (and by :meth:`Circuit.put`, a parameter that is not finite), and ids
that are not ints, alloc layers outside ``_INDEX`` and unknown kinds at the
builder's call.  The reader checks only that and the layout of the text,
in the order :func:`write` writes it.  Placement and release test a batch at once
(:func:`_claim`), and a batch that fails changes nothing; one per-id
diagnosis, :meth:`Circuit._id_faults`, names their faults, and a failed
placement and the walk word a layer through one per-layer one,
:meth:`Circuit._layer_faults`.

Gates enter a circuit one way: a batch of one op goes through
:meth:`Circuit.put` as flat operands and parameters, and :meth:`Circuit.embed`
and :meth:`Block.mirror` place column slices through the same
:meth:`Circuit._place`.  :func:`loads` reads circuit JSON (a ``str``,
``bytes``, or a binary file read in blocks) in the one layout :func:`write`
writes, into the columns and tables a piece of each array at a time, and
the loaded circuit passes the walk; :func:`checked` refuses an emitted
circuit that does not.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import stat
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import itemgetter, neg
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BadEpsilon,
    CircuitError,
    DoubleDealloc,
    DuplicateOperand,
    InternalInvariant,
    LayerCollision,
    LeakedQubit,
    MalformedCircuit,
    OperandNotLive,
    UseAfterDealloc,
)

CLEAN = "clean"
DIRTY = "dirty"

#: op name -> (number of qubits, number of parameters)
GATE_SIGNATURES = {
    "x": (1, 0), "h": (1, 0), "s": (1, 0), "sdg": (1, 0), "t": (1, 0), "tdg": (1, 0),
    "ry": (1, 1), "rz": (1, 1), "phase": (1, 1),
    "cnot": (2, 0), "swap": (2, 0), "cswap": (3, 0), "toffoli": (3, 0),
    "cry": (2, 1), "crz": (2, 1), "ccry": (3, 1), "ccrz": (3, 1),
}

#: the ops that take a parameter, an angle: each one's inverse negates it
ROTATION_OPS = frozenset(op for op, (_, npar) in GATE_SIGNATURES.items() if npar)

_FLOAT = frozenset({float})
_INT = frozenset({int})
_LIST = frozenset({list})
_STR = frozenset({str})

_INVERSE_PAIR = {"s": "sdg", "sdg": "s", "t": "tdg", "tdg": "t"}

#: op code -> op name; a code is the op's index in ``GATE_SIGNATURES``
_OPS = tuple(GATE_SIGNATURES)
_CODE = {op: code for code, op in enumerate(_OPS)}
#: op code -> (number of qubits, number of parameters)
_ARITY = tuple(GATE_SIGNATURES.values())
#: ``codes.translate(_QUBIT_COUNT)`` are the codes' numbers of qubits, and likewise of parameters
_QUBIT_COUNT = bytes(nq for nq, _ in _ARITY).ljust(256, b"\0")
_PARAM_COUNT = bytes(npar for _, npar in _ARITY).ljust(256, b"\0")
#: (op, number of qubits, number of parameters) of every well-formed gate -> its op code
_SHAPE_CODE = {(op, nq, npar): code for code, (op, (nq, npar)) in enumerate(GATE_SIGNATURES.items())}
#: ``codes.translate(_INVERSE)`` are the codes of the inverse ops; their parameters are negated
_INVERSE = bytes(_CODE[_INVERSE_PAIR.get(op, op)] for op in _OPS).ljust(256, b"\0")
_ROTATION_CODES = bytes(sorted(map(_CODE.__getitem__, ROTATION_OPS)))

#: kind code -> kind name
_KINDS = (CLEAN, DIRTY)
_KIND_CODE = {kind: code for code, kind in enumerate(_KINDS)}

#: the release layer of a qubit that is never released: the largest ``array('i')`` value
NEVER = 2**31 - 1
#: the ints a qubit id or a layer index can be, and the ints a column can hold
_INDEX = range(NEVER)
_I32 = range(-2**31, NEVER)


def _view(column: array) -> np.ndarray:
    """An ``array('i')`` column or table as a numpy array that shares its memory.  The
    array cannot be resized while a view of it exists (``BufferError``), so each
    whole-circuit pass drops its views when it returns."""
    return np.frombuffer(column, np.intc)


def _ids(ids: Sequence[int]) -> array:
    """A batch's qubit ids as an ``array('i')``: the batch itself if it is one, else a copy
    (``OverflowError`` for an id that does not fit, ``TypeError`` for one that is no int)."""
    return ids if isinstance(ids, array) and ids.typecode == "i" else array("i", ids)


def _sequence(values: Iterable) -> Sequence:
    """``values`` read once into something that can be read again: itself if it is an
    ``array``, ``range`` or ``list``, else a list of them."""
    return values if isinstance(values, (array, range, list)) else list(values)


def _all_ints(ids: Sequence) -> bool:
    """Whether every id is an int, not a bool: at once for an ``array('i')`` or a ``range``."""
    return type(ids) is range or isinstance(ids, array) and ids.typecode == "i" or set(map(type, ids)) <= _INT


def _int_ids(ids: Iterable[int], what: str) -> "Register":
    """The persistent or register ids ``ids`` as a :class:`Register` if each is an int it
    can hold, else ``OperandNotLive``; that each is a qubit is left to the walk."""
    ids = _sequence(ids)
    try:
        if _all_ints(ids):
            return Register(ids)
    except OverflowError:
        pass
    bad = next(i for i in ids if type(i) is not int or i not in _I32)
    raise OperandNotLive(f"{what} id {bad!r} is not an int qubit id")


def _distinct(ids: np.ndarray, top: int) -> bool:
    """Whether no id of ``ids`` (each in 0..top) repeats: a repeated id marks one flag twice."""
    marks = np.zeros(top + 1, np.bool_)
    marks[ids] = True
    return np.count_nonzero(marks) == len(ids)


def _first(faults: Iterable[tuple[type[CircuitError], str]], prefix: str = "") -> CircuitError:
    """The first of ``faults`` as its typed error led by ``prefix``, else an ``InternalInvariant``."""
    for error, message in faults:
        return error(prefix + message)
    return InternalInvariant(f"{prefix}a batch failed its test without a fault")


def _claim(ids: np.ndarray, t, last_use: np.ndarray, dealloc: np.ndarray, release: bool = False) -> bool:
    """The lifecycle rules, tested on a whole batch of qubit ids (numpy views, like the
    tables) at once: every id is a qubit, none repeats, and each is live at ``t`` after
    its latest gate, ``last_use[ids] < t < dealloc[ids]``.  A gate batch then writes
    ``last_use[ids] = t``; a release, whose ``t`` may be one layer per id, also needs the
    qubits not yet released (``dealloc[ids] == NEVER``) and writes ``dealloc[ids] = t``.
    A batch that fails changes nothing.  A qubit's latest layer is at least its alloc
    layer - 1, so ``last_use < t`` also proves it allocated by then."""
    if not len(ids):
        return True
    top = int(ids.view(np.uintc).max())  # a negative id reads as one past 2**31 - 1
    if top >= len(last_use):
        return False
    if release:  # t may be one layer per id; int32 indices, which numpy buffers, copy no ids
        live = np.max(t) < NEVER == dealloc[ids].min() and (last_use[ids] < t).all()
    else:  # numpy gathers and scatters fastest through intp indices
        ids = ids.astype(np.intp)
        live = np.take(last_use, ids).max() < t < np.take(dealloc, ids).min()
    if not (live and _distinct(ids, top)):
        return False
    (dealloc if release else last_use)[ids] = t
    return True


def _live_counts(alloc: np.ndarray, ends: np.ndarray, L: int) -> list[int]:
    """The live count per layer 0..L-1 of the lifetimes [alloc, ends) (``ends`` at most
    ``L``): a running sum of steps up at allocs and down at releases (``np.add.at``)."""
    steps = np.zeros(max(L, int(alloc.max(initial=0))) + 1, np.int64)
    np.add.at(steps, alloc, 1)
    np.subtract.at(steps, ends, 1)
    return np.cumsum(steps[:L]).tolist()


def _before(layers: array) -> array:
    """A copy of a table of layers, each one less: the latest layer of a qubit allocated
    there that has no gate yet."""
    out = layers[:]
    earlier = _view(out)
    earlier -= 1
    return out


class Register(array):
    """A register's qubit ids: an ``array('i')`` that, like a list, concatenates with any
    iterable of ids."""

    def __new__(cls, ids: Iterable[int] = ()):
        return super().__new__(cls, "i", ids)

    def __add__(self, other: Iterable[int]) -> "Register":
        return Register(chain(self, other))


def _form_faults(op, params, qubits, gates: int = 1) -> Iterator[tuple[type[CircuitError], str]]:
    """The per-gate rules the columns hold by construction, each one ``gates`` gates of
    one op, given as flat operands and parameters, break as (error class, message): a
    known op with its operand and parameter counts, ``float`` parameters (not
    ``np.float64``), and int operands (not ``bool``)."""
    sig = GATE_SIGNATURES.get(op) if type(op) is str else None
    if sig is None:
        yield MalformedCircuit, f"unknown op {op!r}"
    elif (len(qubits), len(params)) != (gates * sig[0], gates * sig[1]):
        yield (DuplicateOperand if len(qubits) != gates * sig[0] else MalformedCircuit,
               f"{op} takes {sig[0]} qubits and {sig[1]} params, got {len(qubits)} and {len(params)}")
    for p in params:
        if type(p) is not float:
            yield MalformedCircuit, f"{op} parameter {p!r} is not a finite float"
    for i in qubits:
        if type(i) is not int:
            yield OperandNotLive, f"{op} operand {i!r} is not an int qubit id"


def _value_faults(op, params, qubits) -> Iterator[tuple[type[CircuitError], str]]:
    """The per-gate rules left to the walk, for a gate that keeps :func:`_form_faults`:
    finite parameters and distinct operands."""
    for p in params:
        if not math.isfinite(p):
            yield MalformedCircuit, f"{op} parameter {p!r} is not a finite float"
    if len(set(qubits)) != len(qubits):
        yield DuplicateOperand, f"{op} repeats an operand: {list(qubits)}"


def _pack(ops, params, qubits, t: int) -> tuple[bytes, list[int], list[float]]:
    """A batch of gates, given as parallel sequences of ops, parameter lists and operand
    lists, as columns: (op codes, flat qubit ids, flat parameters).

    The batch is checked as a whole, one pass per rule; only a batch that fails is walked
    gate by gate, which raises its first :func:`_form_faults` fault as ``layer t: ...``.
    """
    try:
        codes = bytes(map(_SHAPE_CODE.__getitem__, zip(ops, map(len, qubits), map(len, params))))
        ids, values = list(chain.from_iterable(qubits)), list(chain.from_iterable(params))
        if set(map(type, ids)) <= _INT and set(map(type, values)) <= _FLOAT:
            return codes, ids, values
    except (KeyError, TypeError):  # an unknown shape, or an unhashable op
        pass
    raise _first(chain.from_iterable(map(_form_faults, ops, params, qubits)), f"layer {t}: ")


class Circuit:
    """Mutable layered circuit builder.

    Gates are put a batch of one op at a time at an explicit layer
    (``num_layers()`` for a fresh one), after each operand's latest gate,
    which is how the subroutine emitters realize their published
    schedules.  Qubits are the ints 0..n-1 that :meth:`alloc` and
    :meth:`alloc_many` hand out; their kinds are read through :meth:`kind`.
    """

    def __init__(self):
        self._ops: list[bytearray] = []     # per layer: op codes
        self._qs: list[array] = []          # per layer: the operands, ``_ARITY`` of them per op
        self._ps: list[array] = []          # per layer: the parameters, ``_ARITY`` of them per op
        self._kind = bytearray()            # per qubit id: kind code
        self._alloc = array("i")
        self._dealloc = array("i")          # NEVER for a qubit never released
        self._last_use = array("i")         # latest layer with a gate (or alloc - 1) on the qubit
        self._persistent: set[int] = set()
        self.registers: dict[str, Register] = {}
        self.meta: dict = {}

    # -- lifecycle ------------------------------------------------------------

    def alloc(self, kind: str = CLEAN, at_layer: int | None = None) -> int:
        return self.alloc_many(1, kind, at_layer)[0]

    def alloc_many(self, count: int, kind: str = CLEAN, at_layer: int | Sequence[int] | None = None) -> range:
        """Allocate ``count`` fresh qubits of one kind at one layer ``at_layer`` (by default
        the next new one), or each at its own (``at_layer`` a sequence of ``count``
        layers); returns their ids.  A kind that is not clean or dirty, or a layer
        outside ``_INDEX``, is refused."""
        if kind not in _KINDS:
            raise MalformedCircuit(f"unknown kind {kind!r}")
        if at_layer is None:
            at_layer = self.num_layers()
        one = isinstance(at_layer, (int, np.integer))
        at_layer = at_layer if one else _sequence(at_layer)
        try:
            layers = array("i", (at_layer,)) * count if one else _ids(at_layer)
            fits = not layers or 0 <= _view(layers).min() and _view(layers).max() < NEVER
        except OverflowError:
            fits = False
        if not fits:
            bad = next(t for t in ((at_layer,) if one else at_layer) if t not in _INDEX)
            raise OperandNotLive(f"alloc layer {bad} is not a layer index")
        if len(layers) != count:
            raise MalformedCircuit(f"{count} qubits need {count} alloc layers, got {len(layers)}")
        return self._add_qubits(bytes((_KIND_CODE[kind],)) * count, layers)

    def _add_qubits(self, kinds: bytes, layers: array) -> range:
        """Allocate fresh qubits, one per kind code and alloc layer; returns their ids."""
        first = len(self._alloc)
        self._kind += kinds
        self._alloc += layers
        self._dealloc += array("i", (NEVER,)) * len(layers)
        self._last_use += _before(layers)
        return range(first, len(self._alloc))

    def dealloc(self, q: int, at_layer: int | None = None) -> None:
        """:meth:`dealloc_many` of one qubit, by default right after its latest gate."""
        if at_layer is None:  # a qubit not in the circuit is refused before its layer is read
            at_layer = self._last_use[q] + 1 if 0 <= q < len(self._last_use) else 0
        self.dealloc_many((q,), at_layer)

    def dealloc_many(self, qubits: Sequence[int], at) -> None:
        """Release qubits at one layer ``at``, or each at its own (``at`` a sequence as long
        as ``qubits``), if the batch passes :func:`_claim`; else release none and raise the
        first fault in batch order (:meth:`_id_faults`), a ``bool`` id included."""
        one = isinstance(at, (int, np.integer))
        qubits, at = _sequence(qubits), at if one else _sequence(at)
        try:
            if _all_ints(qubits) and _claim(_view(_ids(qubits)), at if one else _view(_ids(at)),
                                            _view(self._last_use), _view(self._dealloc), release=True):
                return
        except (TypeError, OverflowError):  # an id or a layer that is no int32
            pass
        raise _first(self._id_faults(qubits, at, self._last_use, release=True))

    def mark_persistent(self, qubits: Iterable[int]) -> None:
        """Keep qubits live to the end of the circuit, unreleased (:func:`_int_ids`)."""
        self._persistent.update(_int_ids(qubits, "persistent"))

    def persistent(self) -> set[int]:
        return set(self._persistent)

    def add_register(self, name: str, qubits: Iterable[int]) -> None:
        """Name a register of qubits (:func:`_int_ids`)."""
        self.registers[name] = _int_ids(qubits, f"register {name}")

    # -- gate placement ---------------------------------------------------------

    def num_layers(self) -> int:
        return len(self._ops)

    def _grow(self, layer: int) -> None:
        while len(self._ops) <= layer:
            self._ops.append(bytearray())
            self._qs.append(array("i"))
            self._ps.append(array("d"))

    def put(self, op: str, ids: Sequence[int], layer: int, params: Sequence[float] = ()) -> int:
        """Put a batch of one op at one explicit layer, given as its flat operands (the
        op's arity of them per gate) and flat parameters: every operand must be live
        there, after its latest gate (:meth:`_place`).  Its op, counts and types, and
        that its parameters are finite, are checked as a whole, at once for an
        ``array('i')`` or ``range`` of operands and an ``array('d')`` of parameters; the
        first :func:`_form_faults` fault, else the first parameter
        :func:`_value_faults` finds, is raised.  A rejected batch, like an empty one,
        changes nothing."""
        sig = GATE_SIGNATURES.get(op) if type(op) is str else None
        n = len(ids) // sig[0] if sig else 0
        if not (sig and (len(ids), len(params)) == (n * sig[0], n * sig[1]) and _all_ints(ids)
                and (np.isfinite(np.frombuffer(params)).all() if isinstance(params, array) and params.typecode == "d"
                     else set(map(type, params)) <= _FLOAT and all(map(math.isfinite, params)))):
            raise _first(chain(_form_faults(op, params, ids, n), _value_faults(op, params, ())), f"layer {layer}: ")
        return self._place(bytes((_CODE[op],)) * n, ids, params, layer)

    def _place(self, codes, ids, values, layer: int) -> int:
        """Put a batch already in columns (``ids`` any sequence of ints, an ``array('i')``
        read in place) at ``layer``: written only if its ids pass :func:`_claim`, else its
        first fault (:meth:`_layer_faults`) is raised."""
        if not codes:
            return layer
        try:
            qs = _ids(ids)
            placed = _claim(_view(qs), layer, _view(self._last_use), _view(self._dealloc))
        except OverflowError:  # an id that is no int32
            placed = False
        if not placed:
            raise _first(self._layer_faults(layer, codes, ids, values, self._last_use))
        if layer >= len(self._ops):
            self._grow(layer)
        self._ops[layer] += codes
        self._qs[layer] += qs
        self._ps[layer].extend(values)
        return layer

    def _layer_faults(self, t: int, codes, ids: Iterable, values: Iterable,
                      latest: Sequence[int] | None = None) -> Iterator[tuple[type[CircuitError], str]]:
        """The faults of gates at layer ``t`` given as columns, as (error class, message)
        led by ``layer t: ``: first each gate's :func:`_value_faults`, then
        :meth:`_id_faults` over each gate's distinct operands, with ``latest`` as there.
        The walk words a layer with it, and so does a placement that fails its test."""
        ids, values = iter(ids), iter(values)
        gates = [(_OPS[code], tuple(islice(values, _ARITY[code][1])), tuple(islice(ids, _ARITY[code][0])))
                 for code in codes]
        for g in gates:
            yield from ((error, f"layer {t}: {message}") for error, message in _value_faults(*g))
        yield from self._id_faults(chain.from_iterable(dict.fromkeys(qubits) for _, _, qubits in gates), t, latest)

    def _id_faults(self, ids: Iterable, at, latest: Sequence[int] | None = None,
                   release: bool = False) -> Iterator[tuple[type[CircuitError], str]]:
        """For each id of a batch, in batch order, the first lifecycle rule it breaks, as
        (error class, message).  A gate at layer ``at`` takes a live qubit whose latest
        layer (``at`` if earlier in the batch, else ``latest``; the walk has none) comes
        before ``at``; a release (``at`` one layer or one per id) a qubit released
        neither yet nor earlier in the batch, past its ``latest`` layer.  Reads only."""
        n, seen = len(self._alloc), set()
        for i, t in zip(ids, repeat(at) if isinstance(at, (int, np.integer)) else at):
            if type(i) is not int or not 0 <= i < n:
                yield OperandNotLive, f"qubit {i!r} is not allocated" if release else \
                    f"layer {t}: qubit {i!r} is not in the circuit"
                continue
            if release:
                if self._dealloc[i] != NEVER or i in seen:
                    yield DoubleDealloc, f"qubit {i} deallocated twice"
                elif t <= latest[i]:
                    yield UseAfterDealloc, f"qubit {i} has activity at or past layer {t}"
                elif t >= NEVER:
                    yield OperandNotLive, f"qubit {i} deallocated at {t}, not a layer index"
            elif t < self._alloc[i]:
                yield OperandNotLive, f"layer {t}: qubit {i} used before allocation at layer {self._alloc[i]}"
            elif t >= self._dealloc[i]:
                yield UseAfterDealloc, f"layer {t}: qubit {i} used after deallocation at layer {self._dealloc[i]}"
            elif i in seen or latest is not None and latest[i] >= t:
                yield LayerCollision, f"layer {t}: qubit {i} in two gates, one already at layer " \
                    f"{t if i in seen else latest[i]}"
            seen.add(i)

    def _extend(self, t: int, codes: bytes, ids: list[int], values: list[float]) -> None:
        """Append a packed batch to layer ``t``'s columns, unchecked, growing the
        circuit to that layer.  The id list goes straight into the id column
        (``fromlist`` leaves the column as it was if an id does not fit); an id
        outside the column's range is no qubit (:meth:`_id_faults`) and adds no layer."""
        layers = len(self._ops)
        self._grow(t)
        try:
            self._qs[t].fromlist(ids)
        except OverflowError:
            del self._ops[layers:], self._qs[layers:], self._ps[layers:]
            raise _first(self._id_faults([i for i in ids if i not in _I32], t)) from None
        self._ops[t] += codes
        self._ps[t].fromlist(values)

    def _ends(self, layer: int) -> tuple[int, int, int]:
        """The lengths of layer ``layer``'s columns; zeros past the last layer."""
        if layer >= len(self._ops):
            return 0, 0, 0
        return len(self._ops[layer]), len(self._qs[layer]), len(self._ps[layer])

    # -- views ------------------------------------------------------------------

    def groups(self, t: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
        """Layer ``t``'s gates as one (op, ids, params) group per op in it, in op-code order:
        ``ids`` holds each of the op's n gates' operands as an (n, qubits) array and
        ``params`` its parameters as an (n, parameters) array, in the order they were
        placed.  Both are copies, so the circuit can change while a caller holds them."""
        ops = self._ops[t]
        codes = np.frombuffer(ops, np.uint8)  # the op of each id and of each parameter:
        id_op = codes.repeat(np.frombuffer(ops.translate(_QUBIT_COUNT), np.uint8))
        value_op = codes.repeat(np.frombuffer(ops.translate(_PARAM_COUNT), np.uint8))
        ids, values = _view(self._qs[t]), np.frombuffer(self._ps[t])
        out = []
        for code in sorted(set(ops)):
            nq, npar = _ARITY[code]
            op_ids = ids[id_op == code].reshape(-1, nq)
            out.append((_OPS[code], op_ids, values[value_op == code].reshape(len(op_ids), npar)))
        return out

    def params(self, t: int) -> np.ndarray:
        """Layer ``t``'s parameter column as a writable numpy array (see :func:`_view`)."""
        return np.frombuffer(self._ps[t])

    def qubits(self) -> range:
        return range(len(self._alloc))

    def kind(self, q: int) -> str:
        return _KINDS[self._kind[q]]

    def of_kind(self, kind: str) -> list[int]:
        """The qubits of one kind, in id order: one pass over the kind table."""
        return np.flatnonzero(np.frombuffer(self._kind, np.uint8) == _KIND_CODE[kind]).tolist()

    def alloc_layer(self, q: int) -> int:
        return self._alloc[q]

    def dealloc_layer(self, q: int) -> int | None:
        d = self._dealloc[q]
        return None if d == NEVER else d

    def last_use_layer(self, q: int) -> int:
        """The latest layer with a gate on ``q``, or its alloc layer - 1 if none."""
        return self._last_use[q]

    def lifecycle(self) -> list[tuple[list[int], list[int]]]:
        """Per layer 0..num_layers(), the (allocated, deallocated) qubits there, in id order."""
        buckets = [([], []) for _ in range(self.num_layers() + 1)]
        for q, a in enumerate(self._alloc):
            buckets[a][0].append(q)
        for q, d in enumerate(self._dealloc):
            if d != NEVER:
                buckets[d][1].append(q)
        return buckets

    def depth(self, stop: int | None = None) -> int:
        """The number of non-empty layers, among the first ``stop`` if given."""
        return sum(map(bool, self._ops[:stop]))

    def size(self) -> int:
        return sum(map(len, self._ops))

    def live_profile(self, qubits: Iterable[int] | None = None) -> list[int]:
        """Live-qubit count per layer (:func:`_live_counts`) of the given qubits, else of all."""
        L = self.num_layers()
        alloc, dealloc = _view(self._alloc), _view(self._dealloc)
        if qubits is not None:
            ids = np.fromiter(qubits, np.intc)
            alloc, dealloc = alloc[ids], dealloc[ids]
        return _live_counts(alloc, np.minimum(dealloc, L), L)

    def embed(self, src: "Circuit", shift: Callable[[int], int],
              shared: dict[int, int] | None = None) -> list[int]:
        """Copy ``src`` into this circuit, its layer t at layer ``shift(t)``; returns the id map.

        ``shift`` must be strictly increasing.  Qubits in ``shared`` map onto
        the given qubits here and keep their lifecycle outside ``src``.  Every
        other qubit gets a fresh id (in order of its allocation layer) with
        the same kind, allocated at ``shift(alloc)``, released right after its
        shifted last layer, at ``shift(dealloc - 1) + 1``, and persistent here
        if it is persistent in ``src``.  ``shift`` is called once per layer,
        each layer's ids are remapped by one numpy gather and placed as one
        batch, and every qubit released in ``src`` is released here in one call.
        """
        shared = shared or {}
        mapping = np.full(len(src._alloc), -1, np.intc)
        mapping[list(shared)] = list(shared.values())
        fresh = np.flatnonzero(mapping < 0)
        fresh = fresh[np.argsort(_view(src._alloc)[fresh], kind="stable")]
        alloc, dealloc = _view(src._alloc)[fresh].tolist(), _view(src._dealloc)[fresh]
        freed = dealloc != NEVER
        last = (dealloc[freed] - 1).tolist()
        at = {t: shift(t) for t in {*range(src.num_layers()), *alloc, *last}}
        mapping[fresh] = self._add_qubits(np.frombuffer(src._kind, np.uint8)[fresh].tobytes(),
                                          array("i", map(at.__getitem__, alloc)))
        self.mark_persistent(mapping[[q for q in src._persistent if q not in shared]].tolist())
        for t, (codes, qs, values) in enumerate(zip(src._ops, src._qs, src._ps)):
            if codes:
                self._place(codes, array("i", mapping[_view(qs)].tobytes()), values, at[t])
        self.dealloc_many(array("i", mapping[fresh[freed]].tobytes()),
                          array("i", (at[t] + 1 for t in last)))
        return mapping.tolist()

    def _copy_tables(self) -> "Circuit":
        """A new circuit with this one's kinds, persistent set, registers and meta, and no layers."""
        c = Circuit()
        c._kind = self._kind[:]
        c._persistent = set(self._persistent)
        c.registers = {k: Register(v) for k, v in self.registers.items()}
        c.meta = dict(self.meta)
        return c

    def copy(self) -> "Circuit":
        """An independent copy: its own columns, lifecycle tables, registers and meta."""
        c = self._copy_tables()
        c._alloc, c._dealloc, c._last_use = self._alloc[:], self._dealloc[:], self._last_use[:]
        c._ops, c._qs, c._ps = ([column[:] for column in columns] for columns in (self._ops, self._qs, self._ps))
        return c

    def compact(self) -> "Circuit":
        """Drop empty layers, remapping lifecycle layer indices."""
        if all(self._ops):
            return self
        kept = list(map(bool, self._ops))
        new_index = np.fromiter(accumulate(kept, initial=0), np.intc, len(kept) + 1)
        c = self.copy()
        alloc, dealloc = _view(c._alloc), _view(c._dealloc)
        alloc[:] = new_index[alloc]
        released = dealloc != NEVER
        dealloc[released] = new_index[dealloc[released]]
        c._ops, c._qs, c._ps = (list(compress(columns, kept)) for columns in (c._ops, c._qs, c._ps))
        c._reset_last_use()
        return c

    def _reset_last_use(self) -> None:
        """Set each qubit's latest layer from the gates: its last gate's layer, else its alloc layer - 1."""
        self._last_use = _before(self._alloc)
        last_use = _view(self._last_use)
        for t, ids in enumerate(self._qs):
            last_use[_view(ids)] = t

    def adjoint(self) -> "Circuit":
        """Time-reversed circuit with inverted gates and mirrored lifecycles.

        Layer t becomes layer T-1-t with each op code translated to its
        inverse's and every parameter negated (only rotations have one).
        """
        T = self.num_layers()
        c = self._copy_tables()
        c._alloc, c._dealloc = self._dealloc[:], self._alloc[:]
        alloc, dealloc = _view(c._alloc), _view(c._dealloc)
        never = alloc == NEVER
        np.subtract(T, alloc, out=alloc)
        alloc[never] = 0
        # non-persistent qubits allocated at 0 still mirror to a dealloc at T
        kept = np.fromiter(self._persistent, np.intc, len(self._persistent))
        kept = kept[dealloc[kept] == 0]
        np.subtract(T, dealloc, out=dealloc)
        dealloc[kept] = NEVER
        c._ops = [codes.translate(_INVERSE) for codes in reversed(self._ops)]
        c._qs = [ids[:] for ids in reversed(self._qs)]
        c._ps = [values[:] for values in reversed(self._ps)]
        for values in c._ps:
            negated = np.frombuffer(values)
            np.negative(negated, out=negated)
        c._reset_last_use()
        return c

    # -- validation ---------------------------------------------------------------

    def validate(self) -> list[str]:
        """The whole-circuit check: every fault of :meth:`_faults`, then every register
        whose size differs from ``meta["expected_register_sizes"]``."""
        expected = self.meta.get("expected_register_sizes") or {}
        have = {name: len(self.registers.get(name, ())) for name in expected}
        return [message for _, message in self._faults()] + [f"register {name}: size {have[name]}, expected {size}"
                                                             for name, size in expected.items() if have[name] != size]

    def _faults(self, last_use: np.ndarray | None = None) -> Iterator[tuple[type[CircuitError], str]]:
        """Every fault of the circuit, as (error class, message), in order: each lifetime
        outside 0 <= alloc <= dealloc <= ``num_layers()``; each gate that breaks
        :func:`_value_faults` or acts on a qubit not live at its layer or twice in it;
        each persistent or register id that is no qubit, or is repeated; each qubit
        never released that is not persistent (:meth:`_leaks`).

        A layer is tested as a whole (finite parameters, distinct ids with
        ``alloc <= t < dealloc``) and walked gate by gate (:meth:`_layer_faults`) only
        if it fails.  A layer that passes sets ``last_use[ids] = t`` if ``last_use`` is
        given.  The walk copies no table and gathers through the int32 ids.
        """
        n, L = len(self._alloc), self.num_layers()
        alloc, dealloc = _view(self._alloc), _view(self._dealloc)
        if not (alloc.min(initial=0) >= 0 and alloc.max(initial=0) <= L and (alloc <= dealloc).all()
                and dealloc.max(initial=0, where=dealloc != NEVER) <= L):
            for q, (a, d) in enumerate(zip(self._alloc, self._dealloc)):
                if not 0 <= a <= L:
                    yield OperandNotLive, f"qubit {q} allocated at {a}, outside layers 0..{L}"
                elif d != NEVER and not a <= d <= L:
                    yield OperandNotLive, f"qubit {q} lifetime [{a}, {d}] leaves layers 0..{L}"
        for t, (ids, values) in enumerate(zip(self._qs, self._ps)):
            if not ids:
                continue
            q = _view(ids)
            top = int(q.view(np.uintc).max())  # a negative id reads as one past 2**31 - 1
            if not (top < n and alloc[q].max() <= t < dealloc[q].min() and _distinct(q, top)
                    and np.isfinite(np.frombuffer(values)).all()):
                yield from self._layer_faults(t, self._ops[t], ids, values)
            elif last_use is not None:
                last_use[q] = t
        registers = ((f"register {name}", reg) for name, reg in self.registers.items())
        for what, reg in chain([("persistent", sorted(self._persistent))], registers):
            ids = _view(_ids(reg))
            top = int(ids.view(np.uintc).max(initial=0))
            if not (top < n and _distinct(ids, top)):
                seen = set()
                for i in reg:
                    if not 0 <= i < n:
                        yield OperandNotLive, f"{what} id {i} is not a qubit of the circuit"
                    elif i in seen:
                        yield DuplicateOperand, f"{what} lists qubit {i} twice"
                    seen.add(i)
        yield from self._leaks()

    def _leaks(self) -> Iterator[tuple[type[CircuitError], str]]:
        """Each qubit never released that is not persistent, in id order, as (error class, message)."""
        for q in np.flatnonzero(_view(self._dealloc) == NEVER).tolist():
            if q not in self._persistent:
                yield LeakedQubit, f"qubit {q} never deallocated and not persistent"


def checked(c: Circuit) -> Circuit:
    """An emitted circuit after its one whole-circuit check; a violation is a bug
    (``InternalInvariant``, exit 3), caught before the circuit is accounted or written."""
    violations = c.validate()
    if violations:
        raise InternalInvariant(f"emitted circuit failed validation: {violations[:3]}")
    return c


class Block:
    """A recorded span of a circuit, undone by its layer mirror.

    A pass-through ``put``/``alloc_many``/``num_layers`` view of
    ``c`` that records where each gate batch landed in the columns (its
    layer and the start and stop of its op, id and parameter slices) and
    the ids of each qubit it allocated.  This is the compute/uncompute
    pattern: fresh ancillae are allocated at their first use inside the
    block and released by :meth:`mirror` right after their mirrored last use.
    """

    def __init__(self, c: Circuit, start: int):
        self.c = c
        self.start = start
        self.spans: list[tuple[int, tuple[int, int, int], tuple[int, int, int]]] = []
        self.qubits = array("i")

    def put(self, op: str, ids: Sequence[int], layer: int, params: Sequence[float] = ()) -> int:
        """``Circuit.put``, with the batch's column slices recorded."""
        before = self.c._ends(layer)
        self.c.put(op, ids, layer, params)
        if self.c._ends(layer) != before:
            self.spans.append((layer, before, self.c._ends(layer)))
        return layer

    def alloc_many(self, count: int, kind: str = CLEAN, at_layer: int | Sequence[int] | None = None) -> range:
        qubits = self.c.alloc_many(count, kind, at_layer)
        self.qubits.frombytes(np.arange(qubits.start, qubits.stop, dtype=np.intc).tobytes())
        return qubits

    def num_layers(self) -> int:
        return self.c.num_layers()

    def mirror(self, at: int, span: int) -> int:
        """Undo the block in layers [at, at + span) and return ``at + span``.

        A batch recorded at relative layer ``rel`` is inverted at
        ``at + span - 1 - rel``: its column slices are placed with the op
        codes translated to their inverses' and the parameters negated,
        latest recorded layer first and, within a layer, in recorded order,
        so each mirrored layer keeps its gates' order.  Every qubit allocated
        at ``start + rel`` is released at ``at + span - rel``, all in one call
        made first, while the circuit is smallest.
        """
        c = self.c
        ends = at + span + self.start - _view(c._alloc)[_view(self.qubits)]
        c.dealloc_many(self.qubits, array("i", ends.astype(np.intc).tobytes()))
        for layer, (o0, q0, p0), (o1, q1, p1) in sorted(self.spans, key=itemgetter(0), reverse=True):
            c._place(c._ops[layer][o0:o1].translate(_INVERSE), c._qs[layer][q0:q1],
                     array("d", map(neg, c._ps[layer][p0:p1])), at + span - 1 - (layer - self.start))
        return at + span


# -- resource accounting ----------------------------------------------------------


#: a rotation synthesized to precision eps' in the discrete gate set takes
#: ``ceil(ROTATION_SLOPE * log2(1/eps'))`` layers.  Ross and Selinger's
#: Clifford+T synthesis (arXiv:1403.2975) needs about 3*log2(1/eps') +
#: O(log log(1/eps')) T gates per z-rotation; 4 is this package's slope,
#: rounded up to cover the lower-order term.
ROTATION_SLOPE = 4.0


@dataclass(frozen=True)
class GateSetModel:
    """Cost model for the two gate sets, chosen by ``epsilon``.

    With no ``epsilon`` every gate costs one layer (the exact gate set).
    With one, in (0, 1), the gate set is discrete: each layer that contains
    a rotation widens to a rotation's synthesized depth (see
    ``ROTATION_SLOPE``) at the per-rotation budget ``epsilon / n_rot``.
    """

    epsilon: float | None = None

    def __post_init__(self):
        if self.epsilon is not None and not 0.0 < self.epsilon < 1.0:  # NaN fails too
            raise BadEpsilon(f"epsilon {self.epsilon!r} outside (0, 1)")

    def rotation_cost(self, eps_prime: float) -> int:
        """Layers a rotation layer takes at the per-rotation budget ``eps_prime`` < 1."""
        inverse = 1.0 / eps_prime if eps_prime > 0.0 else math.inf
        if math.isinf(inverse):
            raise BadEpsilon(f"per-rotation budget {eps_prime!r} of epsilon {self.epsilon!r} underflows")
        return math.ceil(ROTATION_SLOPE * math.log2(inverse))


@dataclass(frozen=True)
class ResourceReport:
    depth: int
    size: int
    qubit_count: int
    sa_exact: int
    sa_approx: int
    clean_sa: int
    dirty_sa: int
    depth_approx: int
    rotation_gates: int
    rotation_layers: int
    lower_bound_refs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        d = self.__dict__.copy()
        return d


def spacetime_allocation(c: Circuit, model: GateSetModel = GateSetModel(),
                         profile: list[int] | None = None) -> ResourceReport:
    """Exact and approximate-model resource accounting.

    Computes the spacetime allocation both as a sum of per-qubit lifetimes
    (read off the lifecycle tables) and as a sum of per-layer live counts,
    and insists the two agree.  A caller that already holds
    ``c.compact().live_profile()`` passes it as ``profile``.
    """
    c = c.compact()
    L = c.num_layers()
    persistent = c._persistent
    alloc, dealloc = _view(c._alloc), _view(c._dealloc)
    for error, message in c._leaks():
        raise error(message)
    # the one table-sized copy: release layers clipped to L, then the lifetimes
    lifetimes = np.minimum(dealloc, L)
    prof = _live_counts(alloc, lifetimes, L) if profile is None else profile
    lifetimes -= alloc
    sa_q = int(lifetimes.sum())
    # the kind codes viewed as booleans, True for DIRTY (code 1): a mask that copies nothing
    dirty_sa = int(lifetimes.sum(where=np.frombuffer(c._kind, np.bool_)))
    clean_sa = sa_q - dirty_sa
    sa_t = sum(prof)
    if sa_q != sa_t:
        raise InternalInvariant(f"spacetime double-count mismatch: {sa_q} != {sa_t}")

    per_layer = [len(codes) - len(codes.translate(None, _ROTATION_CODES)) for codes in c._ops]
    rot_layers = [k > 0 for k in per_layer]
    n_rot = sum(per_layer)

    if model.epsilon is not None and n_rot:
        width = model.rotation_cost(model.epsilon / n_rot)
        depth_approx = sum(width if r else 1 for codes, r in zip(c._ops, rot_layers) if codes)
        sa_approx = sum(q_t * (width if r else 1) for q_t, r in zip(prof, rot_layers))
    else:
        depth_approx = c.depth()
        sa_approx = sa_t

    n_data = len(c.registers.get("D", [])) or len(persistent)
    refs = {
        "size_lower_bound": "Omega(2^n) two-qubit gates for arbitrary targets",
        "depth_lower_bound": "Omega(n + log(1/eps)) in the discrete gate set",
        "n_data_qubits": n_data,
    }
    return ResourceReport(
        depth=c.depth(),
        size=c.size(),
        qubit_count=max(prof, default=0),
        sa_exact=sa_t,
        sa_approx=sa_approx,
        clean_sa=clean_sa,
        dirty_sa=dirty_sa,
        depth_approx=depth_approx,
        rotation_gates=n_rot,
        rotation_layers=sum(rot_layers),
        lower_bound_refs=refs,
    )


# -- serialization -------------------------------------------------------------------

#: What it encodes is fresh lists, dicts and strings, so the encoder's
#: reference-cycle bookkeeping (one id() entry per container) is skipped.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode

#: op code -> the gate's JSON text, keys in sorted order as the encoder writes them, with
#: its qubit ids left open as ``%d`` and its parameters as ``%%r``, which the ``%`` that
#: fills the ids turns into ``%r``
_GATE_TEXT = tuple(
    '{"op":"%s","params":[%s],"qubits":[%s]}' % (op, ",".join(["%%r"] * npar), ",".join(["%d"] * nq))
    for op, (nq, npar) in GATE_SIGNATURES.items())

#: kind code -> the JSON text of an alloc row of that kind, its id and layer left open as ``%d``
_ALLOC_ROW = tuple("[%%d,%%d,%s]" % _encode(kind) for kind in _KINDS)


#: lifecycle-table rows, or gates, written per piece of text
_ROWS = 4096


def _layer_text(codes: bytearray, ids: array, values: array) -> Iterator[str]:
    """A layer's JSON text straight from its columns, ``_ROWS`` gates to a piece: the
    piece's joined gate templates take its qubit ids in one ``%``, then its parameters
    (``repr``, as the encoder writes floats), if it has any, in another.  The numbers
    of each come from the op codes (``_QUBIT_COUNT``, ``_PARAM_COUNT``)."""
    ids, values = iter(ids), iter(values)
    for g in range(0, len(codes), _ROWS):
        block = codes[g:g + _ROWS]
        text = ",".join(map(_GATE_TEXT.__getitem__, block)) % tuple(islice(ids, sum(block.translate(_QUBIT_COUNT))))
        npar = sum(block.translate(_PARAM_COUNT))
        yield ("," if g else "[") + (text % tuple(islice(values, npar)) if npar else text)
    yield "]" if codes else "[]"


def _rows_text(layers: np.ndarray, templates: Iterator[str]) -> Iterator[str]:
    """The rows ``[id, layer, ...]`` of a lifecycle table, given its layer column: one per
    qubit whose layer is not ``NEVER`` (every qubit's alloc row, a released qubit's
    dealloc row), in id order, ``_ROWS`` qubits at a time.  Each piece is one ``%`` over
    the next row templates joined, and every piece after the first is led by a comma."""
    lead = ""
    for lo in range(0, len(layers), _ROWS):
        ids = lo + np.flatnonzero(layers[lo:lo + _ROWS] != NEVER)
        if len(ids):
            rows = np.column_stack((ids, layers[ids]))
            yield lead + ",".join(islice(templates, len(ids))) % tuple(rows.ravel().tolist())
            lead = ","


def _head_text(c: Circuit) -> Iterator[str]:
    """The text of a compact circuit up to its first layer: the lifecycle tables, keys in
    sorted order (alloc, dealloc, layers, persistent, registers)."""
    yield '{"alloc":['
    yield from _rows_text(_view(c._alloc), map(_ALLOC_ROW.__getitem__, c._kind))
    yield '],"dealloc":['
    yield from _rows_text(_view(c._dealloc), repeat("[%d,%d]"))
    yield '],"layers":['


def _layers_text(c: Circuit, start: int, stop: int) -> Iterator[str]:
    """The text of layers ``start``..``stop``-1 of a compact circuit, each led by a comma but layer 0."""
    for t in range(start, stop):
        if t:
            yield ","
        yield from _layer_text(c._ops[t], c._qs[t], c._ps[t])


def _tail_text(c: Circuit) -> Iterator[str]:
    """The text of a compact circuit after its last layer: the persistent list and the registers."""
    yield '],"persistent":%s,"registers":{' % _encode(sorted(c._persistent))
    for i, name in enumerate(sorted(c.registers)):
        qs = c.registers[name]
        yield "%s%s:[%s]" % ("," if i else "", _encode(name), ",".join(["%d"] * len(qs)) % tuple(qs))
    yield "}}"


def json_chunks(c: Circuit) -> Iterator[str]:
    """Canonical JSON text in pieces: the lifecycle tables a block of rows at a time,
    then each layer a block of gates at a time, the persistent list, and each register.

    The text is ``json.dumps`` of the document, with sorted keys and no
    spaces: ``alloc`` rows ``[qubit, layer, kind]``, ``dealloc`` rows
    ``[qubit, layer]``, ``layers`` of gates ``{"op", "params", "qubits"}``,
    the sorted ``persistent`` ids and the ``registers``.  The tests build
    that document as lists and dicts (``tests/reference.py``) as the
    reference this text must match.  It is byte-identical across
    parse/re-emit round trips, and it is ASCII (the encoder escapes any
    other character of a register name).  Rows, gates and registers are
    written directly from text templates, with ``repr`` floats as the JSON
    encoder writes them, so none passes through lists or dicts; that takes a
    circuit whose gates pass :meth:`Circuit.validate` (finite parameters).
    No more than one piece's text exists at a time.  :func:`write` writes
    the same text to a file.
    """
    c = c.compact()
    yield from _head_text(c)
    yield from _layers_text(c, 0, c.num_layers())
    yield from _tail_text(c)


def dumps(c: Circuit) -> str:
    """The canonical JSON text of :func:`json_chunks` as one string."""
    return "".join(json_chunks(c))


# -- two cores ------------------------------------------------------------------------
#
# Reading or writing a large circuit file takes one forked child that does the
# later part of the layers while this process does the rest (:func:`_forked`).
# A fork copies only the calling thread, so it is safe only while the process
# runs one, when no other thread can hold a lock the child would inherit (the
# CLI pins OpenBLAS to one thread; pytest's process, for one, runs more).  The
# child leaves through ``os._exit`` and is always reaped.

#: gates from which :func:`write` renders half the layers in a forked child, and bytes
#: of circuit JSON from which :func:`loads` reads half of them in one: above the sizes
#: where a fork, its result's transfer and its reaping cost what half the work saves
#: (on 2 vCPUs, about 12,000 gates written and 280 KB read)
_SPLIT_GATES = 1 << 14
_SPLIT_BYTES = 1 << 19
#: the cost of a qubit's lifecycle-table rows to :func:`write`, in gates: this process
#: renders the tables and the layers up to the gate that evens the two parts (the best
#: of 0, 0.7, 1.4 and 2 on 2 vCPUs, for n=14 and 16 x n=9 circuits)
_QUBIT_GATES = 0.7
#: where in a circuit file the child's part starts: the first gate boundary past this
#: fraction of its bytes, which leaves this process the tables and the earlier layers
#: as well as the stepping over, hashing and decoding of the child's bytes
_SPLIT_AT = 0.47
#: the bytes between two gates of a layer in canonical circuit JSON
_GATE_BOUNDARY = b'},{"op":'


def _two_cores() -> bool:
    """Whether a forked helper can run beside this process: the system has ``os.fork``
    and ``os.memfd_create`` (Linux), this process runs one thread (a fork copies no
    lock another thread holds) and it may run on two CPUs or more."""
    try:
        return (hasattr(os, "fork") and hasattr(os, "memfd_create")
                and len(os.listdir("/proc/self/task")) == 1 and len(os.sched_getaffinity(0)) > 1)
    except (OSError, AttributeError):
        return False


@contextlib.contextmanager
def _forked(work: Callable[[BinaryIO], None]) -> Iterator[Callable[[], int | None]]:
    """Run ``work(out)`` in one forked child while this process goes on; ``out`` is an
    anonymous file (``os.memfd_create``) for the child's result.

    Yields ``result()``, which waits for the child to end and returns the
    anonymous file's descriptor if ``work`` returned, else None: on any error
    the child declines, and so does a child that could not be made (no
    descriptor or no process to spare), and this process does its part too.
    The child leaves through ``os._exit``, so it never returns from here,
    flushes no buffer it inherited and runs no exit handler.  When the block
    is left the child is killed, unless ``result`` saw it end, and reaped.
    """
    fd = pid = -1
    try:
        fd = os.memfd_create("qsprep", os.MFD_CLOEXEC)
        pid = os.fork()
    except OSError:
        pass
    if not pid:
        status = 1
        try:
            with open(fd, "wb", closefd=False) as out:
                work(out)
            status = 0
        finally:
            os._exit(status)
    ended = pid < 0

    def result() -> int | None:
        nonlocal ended
        if pid < 0:
            return None
        info = os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # leaves it to reap
        ended = True
        return fd if info.si_code == os.CLD_EXITED and info.si_status == 0 else None

    try:
        yield result
    finally:
        if not ended:
            import signal  # only a command that gives up early needs it
            os.kill(pid, signal.SIGKILL)
        if pid > 0:
            os.waitpid(pid, 0)
        if fd >= 0:
            os.close(fd)


def _regular_file(fp) -> os.stat_result | None:
    """The status of the file ``fp`` if it is a regular one, else None."""
    try:
        status = os.fstat(fp.fileno())
    except (AttributeError, OSError, ValueError):  # no descriptor, or a closed file
        return None
    return status if stat.S_ISREG(status.st_mode) else None


def _put(pieces: Iterable[str], out: BinaryIO) -> None:
    """Write pieces of circuit JSON, which is ASCII, to a binary file."""
    out.writelines(map(str.encode, pieces))


def write(c: Circuit, fh: BinaryIO) -> None:
    """Write the text of :func:`json_chunks` to the binary file ``fh``.

    A circuit of ``_SPLIT_GATES`` gates or more going to a regular file is
    written on two cores, if the process can fork a helper
    (:func:`_two_cores`): a forked child renders the later layers into an
    anonymous file (:func:`_forked`) while this process writes the tables and
    the earlier layers, as many as even the two parts (``_QUBIT_GATES``);
    then the child's bytes are copied in (``os.sendfile``) and the tail is
    written.  If the child declines, this process renders its layers as well.
    The bytes are those of :func:`json_chunks` either way.
    """
    c = c.compact()
    L = c.num_layers()
    if c.size() < _SPLIT_GATES or not (_regular_file(fh) and _two_cores()):
        _put(json_chunks(c), fh)
        return
    mid = int(np.searchsorted(np.cumsum(list(map(len, c._ops))), (c.size() - _QUBIT_GATES * len(c._alloc)) / 2))
    with _forked(partial(_put, _layers_text(c, mid, L))) as result:
        _put(chain(_head_text(c), _layers_text(c, 0, mid)), fh)
        later = result()
        if later is None:
            _put(_layers_text(c, mid, L), fh)
        else:
            fh.flush()
            start, size, sent = fh.tell(), os.fstat(later).st_size, 0
            while sent < size:
                sent += os.sendfile(fh.fileno(), later, sent, size - sent)
            fh.seek(start + size)  # the buffered file learns where the copy left the descriptor
    _put(_tail_text(c), fh)


def _read_gates(c: Circuit, t: int, gates: list, text: str) -> None:
    """Append decoded gates of layer ``t``, whose text is ``text``, to ``c``, packed into
    columns (:func:`_pack`).

    Every gate must be an object of a string ``op`` and lists of ``params`` and
    ``qubits`` that packs, with no key twice and no other key (its text holds
    ``":`` three times); each check is one pass over the gates in C.  A
    batch of several gates that fails is read again a gate at a time, so its
    error is that of its first faulty gate, wherever the reader cut the layer
    into pieces.  The gates' other rules are left to :meth:`Circuit._faults`.
    """
    try:
        ops, params, qubits = zip(*map(itemgetter("op", "params", "qubits"), gates))
    except (TypeError, KeyError):  # a gate that is no object, or lacks a key
        ops = params = qubits = ()
    try:
        if not (ops and set(map(type, ops)) <= _STR and set(map(type, params)) | set(map(type, qubits)) <= _LIST):
            raise MalformedCircuit(f"layer {t}: a gate needs a string op and lists of params and qubits")
        columns = _pack(ops, params, qubits, t)
        if text.count('":') != 3 * len(gates):
            raise MalformedCircuit(f"layer {t}: a gate repeats a key, or has one besides op, params and qubits")
        c._extend(t, *columns)
    except CircuitError:
        if len(gates) == 1:
            raise
        at = 0
        for g in gates:
            end = _decode_value(text, at)[1]
            _read_gates(c, t, [g], text[at:end])
            at = end + 1


def _alloc_entry(e) -> tuple[int, int, int]:
    """(id, layer, kind code) of one alloc table entry ``[id, layer, kind]``, or its typed error."""
    if type(e) is not list or len(e) != 3:
        raise MalformedCircuit(f"alloc entry {e!r} is not [id, layer, kind]")
    qid, t, kind = e
    if type(qid) is not int or qid not in _I32:
        raise OperandNotLive(f"alloc id {qid!r} is not an int32 qubit id")
    if kind not in _KINDS:
        raise MalformedCircuit(f"qubit {qid} has unknown kind {kind!r}")
    if type(t) is not int or t not in _INDEX:
        raise OperandNotLive(f"qubit {qid} allocated at {t!r}, not a layer index")
    return qid, t, _KIND_CODE[kind]


def _dealloc_entry(e) -> tuple[int, int]:
    """(id, layer) of one dealloc table entry ``[id, layer]``, or its typed error."""
    if type(e) is not list or len(e) != 2:
        raise MalformedCircuit(f"dealloc entry {e!r} is not [id, layer]")
    qid, t = e
    if type(qid) is not int or qid not in _I32:
        raise OperandNotLive(f"dealloc id {qid!r} is not an int32 qubit id")
    if type(t) is not int:
        raise MalformedCircuit(f"qubit {qid} deallocated at {t!r}")
    if t not in _I32:
        raise OperandNotLive(f"qubit {qid} deallocated at {t}, not a layer index")
    return qid, t


def _add_rows(columns: list, entry: Callable, rows: list) -> None:
    """Append a block of a lifecycle table's parsed entries to its columns: at once if
    they are lists of the right length with int ids and layers in ``_INDEX`` (and
    kinds "clean" or "dirty"), else entry by entry through ``entry``, which raises the
    first entry's typed error for what the columns cannot hold."""
    starts = list(map(len, columns))
    try:
        if set(map(type, rows)) <= _LIST and set(map(len, rows)) == {len(columns)}:
            ids, layers, *kinds = zip(*rows)
            if set(map(type, ids)) | set(map(type, layers)) <= _INT:
                kinds = [bytes(map(_KIND_CODE.__getitem__, k)) for k in kinds]
                for column, values in zip(columns, [array("i", ids), array("i", layers), *kinds]):
                    column += values
                if all(new.min() >= 0 and new.max() < NEVER  # each view is dropped before any cut
                       for new in (_view(column)[start:] for column, start in zip(columns, starts[:2]))):
                    return
    except (TypeError, KeyError, OverflowError):  # an unhashable or unknown kind, an id past 32 bits
        pass
    for column, start in zip(columns, starts):
        del column[start:]
    for e in rows:
        for column, value in zip(columns, entry(e)):
            column.append(value)


def _read_tables(doc: _Reader, c: Circuit) -> None:
    """Read the ``alloc`` and ``dealloc`` tables into ``c``'s lifecycle tables, a piece of
    rows at a time (:func:`_add_rows`).

    The alloc rows must list the ids 0..n-1 in order, and the dealloc rows
    theirs in id order (:func:`_in_order`).  The qubits have no gate yet, and
    the dealloc table is released through :meth:`Circuit.dealloc_many`, each
    qubit at its own layer, with its rules and errors.
    """
    (ids, alloc, kinds), (qs, ends) = tables = [array("i"), array("i"), bytearray()], [array("i"), array("i")]
    for head, entry, columns in zip(('{"alloc":[', ',"dealloc":['), (_alloc_entry, _dealloc_entry), tables):
        doc.expect(head)
        for _, rows in doc.pieces("]"):
            _add_rows(columns, entry, rows)
    if not np.array_equal(_view(ids), np.arange(len(ids), dtype=np.intc)):
        raise OperandNotLive("alloc list must cover dense qubit ids")
    _in_order(qs, "dealloc", repeats=True)
    c._kind, c._alloc, c._dealloc, c._last_use = kinds, alloc, array("i", (NEVER,)) * len(ids), _before(alloc)
    c.dealloc_many(qs, ends)


def _in_order(ids: array, what: str, repeats: bool = False) -> None:
    """Refuse ids out of the increasing order :func:`write` lists them in (a repeat too, unless ``repeats``)."""
    v = _view(ids)
    if (v[1:] < v[:-1] if repeats else v[1:] <= v[:-1]).any():
        raise MalformedCircuit(f"{what} ids must {'not decrease' if repeats else 'strictly increase'}, as written")


_decode_value = json.JSONDecoder().raw_decode

#: bytes read from a circuit file at a time
_BLOCK = 1 << 18
#: characters of lifecycle-table or gate text decoded at a time
_CHUNK = 1 << 16
#: ``len("-Infinity")``: a value that the window's end cuts short fails to decode, or ends
#: (``1.`` of ``1.5``), at most this many characters before that end
_TOKEN = 9
#: what JSON takes as whitespace, which circuit JSON holds only in strings and after its end
_SPACE = " \t\n\r"
#: a JSON string
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def _malformed(at: int, what: str) -> MalformedCircuit:
    """The error for circuit JSON that leaves its layout at byte ``at``."""
    return MalformedCircuit(f"circuit JSON byte {at}: {what}")


def _ascii(block: str | bytes, at: int) -> str:
    """A block of circuit JSON that starts at byte ``at``, as text: it must be ASCII."""
    if block.isascii():
        return block if isinstance(block, str) else block.decode("ascii")
    data = block.encode("utf-8", "surrogatepass") if isinstance(block, str) else block
    raise _malformed(at + next(k for k, b in enumerate(data) if b > 127), "expected ASCII")


def _ascii_text(read: Callable[[int], str | bytes], at: int = 0) -> Iterator[str]:
    """The blocks of circuit JSON ``read(at)`` returns from byte ``at`` on, as text (:func:`_ascii`)."""
    while block := read(at):
        yield _ascii(block, at)
        at += len(block)


class _Reader:
    """Circuit JSON read a block at a time, and a cursor in it: the reader holds a window
    of the text, what the cursor has not yet stepped past and at least what the next
    step needs.  It steps over the layout's text literally, decodes the values in it
    with the C scanner, and raises a departure from the layout as soon as it meets it."""

    def __init__(self, blocks: Iterator[str]):
        self._blocks = blocks
        self.s, self.i, self._base = "", 0, 0   # the window, the cursor in it, the offset of s[0]

    def offset(self) -> int:
        """The cursor's offset in the text."""
        return self._base + self.i

    def _more(self, want: int = 1) -> bool:
        """Drop the text before the cursor and read on, until the window holds ``want``
        characters past the cursor and at least as much new text as it kept; False, and
        nothing changed, at the end of the input."""
        parts = [self.s[self.i:]]
        need = max(want - len(parts[0]), len(parts[0]), 1)
        for block in self._blocks:
            parts.append(block)
            need -= len(block)
            if need <= 0:
                break
        if len(parts) == 1:
            return False
        self._base += self.i
        self.s, self.i = "".join(parts), 0
        return True

    def peek(self) -> str:
        if self.i == len(self.s):
            self._more()
        return self.s[self.i:self.i + 1]

    def expect(self, token: str) -> None:
        """Step past ``token``, which must come next."""
        if len(self.s) - self.i < len(token):
            self._more(len(token))
        if not self.s.startswith(token, self.i):
            same = len(os.path.commonprefix([token, self.s[self.i:self.i + len(token)]]))
            raise _malformed(self.offset() + same, f"expected {token[same:same + 16]!r}")
        self.i += len(token)

    def _step(self, end: int) -> None:
        """Step to window position ``end``, past decoded text, which may hold whitespace only
        inside its strings."""
        if any(self.s.find(space, self.i, end) >= 0 for space in _SPACE):
            bare = _STRING.sub(lambda string: "_" * len(string[0]), self.s[self.i:end])
            spaces = [at for at in map(bare.find, _SPACE) if at >= 0]
            if spaces:
                raise _malformed(self.offset() + min(spaces), "expected no whitespace")
        self.i = end

    def value(self):
        """Decode the value at the cursor and step past it (:meth:`_step`).  A value that ends or
        fails within ``_TOKEN`` characters of the window's end, or in a string the window leaves
        open, is decoded again with more text; any other syntax error is raised at once."""
        while True:
            try:
                obj, end = _decode_value(self.s, self.i)
            except json.JSONDecodeError as e:
                if (e.pos + _TOKEN >= len(self.s) or e.msg.startswith("Unterminated string")) and self._more():
                    continue
                raise _malformed(self._base + e.pos, e.msg) from None
            except RecursionError:
                raise _malformed(self.offset(), "nested too deeply") from None
            if end + _TOKEN >= len(self.s) and self._more():  # a number may go on in the next block
                continue
            self._step(end)
            return obj

    def items(self, close: str = "]") -> Iterator[None]:
        """Past an array's ``[`` (or an object's ``{``): yield at each of its elements (or
        members), which the caller reads (one or more), stepping over the commas between
        them, then step past its ``close``."""
        if self.peek() != close:
            yield
            while self.peek() == ",":
                self.i += 1
                yield
        self.expect(close)

    def pieces(self, close: str, stop: int = -1) -> Iterator[tuple[str, list]]:
        """Past an array's ``[``: yield its elements, each a list or an object that ends in
        ``close`` (or, where ``close`` is ``""``, a number), in lists, as many at a time
        as one decode of up to ``_CHUNK`` characters takes, each list with its text;
        then step past its ``]``.

        A piece ends at the last ``close`` + ``,`` in reach, and decodes inside
        ``[]`` as a list of whole elements only if that ends one (in the text the
        writer writes, it always does); its decode may end early, at the array's
        own ``]``.  Where no piece decodes, one element is decoded alone, and
        pieces are tried again past the failed cut.  No piece before offset
        ``stop`` ends past it.
        """
        retry = 0   # offset in the text where pieces are tried again
        for _ in self.items():
            if len(self.s) - self.i < _CHUNK:
                self._more(_CHUNK)
            reach = self.i + _CHUNK
            if self._base + self.i < stop:
                reach = min(reach, stop - self._base + 1)
            cut = self.s.rfind(close + ",", self.i, reach) + len(close)
            if cut > self.i and self._base + self.i >= retry:
                piece = self.s[self.i:cut]
                try:
                    rows, end = _decode_value("[%s]" % piece)
                except (json.JSONDecodeError, RecursionError):
                    rows, retry = None, self._base + cut
                if rows:  # not "[]": an empty piece is a trailing comma, which value() reports
                    self._step(self.i + end - 2)
                    yield piece[:end - 2], rows
                    continue
            start = self.offset()
            row = self.value()
            yield self.s[start - self._base:self.i], [row]

    def skip_to(self, pos: int) -> None:
        """Step, without decoding anything, to offset ``pos``, which the caller knows to be
        in the text."""
        while self._base + len(self.s) < pos:
            self.i = len(self.s)
            if not self._more():
                break
        self.i = min(pos - self._base, len(self.s))

    def end(self) -> None:
        """Check that nothing but whitespace follows the cursor."""
        while not (rest := self.s[self.i:].lstrip(_SPACE)):
            self.i = len(self.s)
            if not self._more():
                return
        raise _malformed(self._base + len(self.s) - len(rest), "expected the end of the text")


def _id_array(doc: _Reader, what: str) -> Register:
    """The flat id array past whose ``[`` the cursor stands, read a piece at a time
    (:meth:`_Reader.pieces`): an element that is no JSON number is ``MalformedCircuit``
    naming its byte, and a number that is no int32 ``OperandNotLive`` (:func:`_int_ids`)."""
    ids = Register()
    for text, piece in doc.pieces(""):
        try:
            if set(map(type, piece)) <= _INT:
                ids.fromlist(piece)
                continue
        except OverflowError:
            pass
        k = next(k for k, i in enumerate(piece) if type(i) is not int or i not in _I32)
        if type(piece[k]) not in (int, float):  # the numbers before it hold no comma
            raise _malformed(doc.offset() - len(text.split(",", k)[-1]), "expected a number")
        _int_ids(piece, what)
    return ids


def _read_layers(doc: _Reader, c: Circuit, stop: int = -1, result: Callable[[], int | None] | None = None) -> None:
    """Read the layers, past whose ``[`` the cursor stands, into ``c``'s columns, a piece
    of each layer's gates at a time (:meth:`_Reader.pieces`, :func:`_read_gates`).  Where
    a piece of layer t ends at the comma at offset ``stop``, a child that read the rest
    of the layers from there gives its anonymous file's descriptor through ``result``:
    then its layers are adopted (:func:`_adopt`) and the cursor steps past them."""
    for _ in doc.items():
        t = c.num_layers()
        c._grow(t)
        doc.expect("[")
        for text, gates in doc.pieces("}", stop):
            _read_gates(c, t, gates, text)
            if doc.offset() == stop and (later := result()) is not None:
                doc.skip_to(stop + 1 + _adopt(c, t, later))
                return


def _split_point(fp: BinaryIO, first: bytes) -> tuple[int, int, int] | None:
    """Where a forked child takes over reading the circuit file ``fp``, whose first read
    of ``_BLOCK`` bytes returned ``first``: (its descriptor, the file offset where the
    text starts, the offset in the text of the comma after the first gate that ends
    past ``_SPLIT_AT`` of it).  None unless the file splits: it is a regular file of
    ``_SPLIT_BYTES`` or more, the process can fork a helper (:func:`_two_cores`), and
    ``_GATE_BOUNDARY`` occurs within ``_CHUNK`` bytes of that point."""
    status = _regular_file(fp)
    if status is None:
        return None
    fd, start = fp.fileno(), fp.tell() - len(first)
    size = status.st_size - start
    if size < _SPLIT_BYTES or not _two_cores():
        return None
    past = int(size * _SPLIT_AT)
    found = os.pread(fd, _CHUNK, start + past).find(_GATE_BOUNDARY)
    return None if found < 0 else (fd, start, past + found + 1)


def _read_later(fd: int, offset: int, out: BinaryIO) -> None:
    """The child's part of :func:`loads`: read the circuit file ``fd`` from ``offset``,
    the start of a gate inside a layer, to the end of the layers, the way :func:`loads`
    reads them (:func:`_read_layers`) with ``[`` put before the text; write to ``out``
    how far past ``offset`` it stepped (past the layers' ``]``), then the columns of each
    layer it read.  Text that is not ASCII, and any fault, raises: the child declines
    and the parent reads on."""
    doc = _Reader(chain(["["], _ascii_text(lambda at: os.pread(fd, _BLOCK, at), offset)))
    c = Circuit()
    _read_layers(doc, c)
    head = array("q", [doc.offset() - 1, c.num_layers()])
    for columns in zip(c._ops, c._qs, c._ps):
        head.extend(map(len, columns))
    out.write(head)
    out.writelines(chain.from_iterable(zip(c._ops, c._qs, c._ps)))


def _adopt(c: Circuit, t: int, fd: int) -> int:
    """Append the layers the child read (:func:`_read_later`), from its anonymous file
    ``fd``, to ``c``: the first one's gates to layer ``t``, the others as new layers.
    Returns how far the child stepped."""
    with open(fd, "rb", closefd=False) as f:
        f.seek(0)
        head, lengths = array("q"), array("q")
        head.fromfile(f, 2)
        stepped, k = head
        lengths.fromfile(f, 3 * k)
        c._grow(t + k - 1)
        for layer, (ops, ids, values) in zip(range(t, t + k), zip(*[iter(lengths)] * 3)):
            c._ops[layer] += f.read(ops)
            c._qs[layer].fromfile(f, ids)
            c._ps[layer].fromfile(f, values)
    return stepped


def loads(source: str | bytes | BinaryIO) -> Circuit:
    """Parse and check circuit JSON from text, bytes, or a binary file read in blocks.

    Reads the text :func:`write` writes, and only that: ASCII, the keys of
    ``{"alloc":[...],"dealloc":[...],"layers":[...],"persistent":[...],"registers":{...}}``
    in that order, nothing but a comma between two elements, whitespace only in
    strings and after the closing brace, the alloc rows, the dealloc rows and
    the persistent ids in id order, the register names sorted and unique, and
    each gate's ``op``, ``params`` and ``qubits`` once, its parameters floats.
    Any other text is ``MalformedCircuit`` naming the byte offset where it
    leaves that layout and what was expected there (or the table, or the layer).

    A file (anything with ``read``) is read ``_BLOCK`` bytes at a time.  Each
    array, the tail's too, is decoded a piece at a time (:meth:`_Reader.pieces`),
    packed into the circuit's columns and tables and dropped.  Each fault is
    raised as soon as it is met, and the text after it is not read; the
    circuit's walk raises the first fault of the rest.

    A large file is read on two cores (:func:`_split_point`): once its first
    block is read, a forked child (:func:`_forked`) reads the layers from a
    gate boundary past the middle of the file (:func:`_read_later`).  This
    process reads up to that boundary, then takes the child's layers
    (:func:`_adopt`) and steps over the text the child read, still reading
    every byte; if the child declined, it reads on itself, so every error is
    the one it raises alone.
    """
    if not hasattr(source, "read"):
        return _load(_Reader(_ascii_text(lambda at: source[at:at + _BLOCK])))
    first = source.read(_BLOCK)
    doc = _Reader(chain([_ascii(first, 0)], _ascii_text(lambda at: source.read(_BLOCK), len(first))))
    split = _split_point(source, first)
    if split is None:
        return _load(doc)
    fd, start, at = split
    with _forked(partial(_read_later, fd, start + at + 1)) as result:
        return _load(doc, at, result)


def _load(doc: _Reader, at: int = -1, result: Callable[[], int | None] | None = None) -> Circuit:
    """:func:`loads` of the text at the cursor; a child that reads the layers from the
    comma at offset ``at`` on gives its result through ``result`` (:func:`_read_layers`)."""
    c = Circuit()
    _read_tables(doc, c)
    doc.expect(',"layers":[')
    _read_layers(doc, c, at, result)
    doc.expect(',"persistent":[')
    persistent = _id_array(doc, "persistent")
    _in_order(persistent, "persistent")
    c._persistent = set(persistent)
    doc.expect(',"registers":{')
    for _ in doc.items("}"):
        start = doc.offset()
        name = doc.value()
        if type(name) is not str or c.registers and name <= next(reversed(c.registers)):
            raise _malformed(start, "expected a new register name, in sorted order")
        doc.expect(":[")
        c.registers[name] = _id_array(doc, f"register {name}")
    doc.expect("}")
    doc.end()
    for error, message in c._faults(_view(c._last_use)):
        raise error(message)
    return c
