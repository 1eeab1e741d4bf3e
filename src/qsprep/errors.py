"""Exception types shared across the package, and the parse entry point for non-circuit JSON input."""

import json


class QsprepError(Exception):
    """Base class for all errors raised by this package."""


class InternalInvariant(QsprepError):
    """An identity the package guarantees does not hold: a bug, not bad input."""


class BadFlag(QsprepError):
    """A command-line flag is unknown, missing, or has a value its command cannot take."""


# -- amplitude preprocessing ------------------------------------------------

class LengthNotPowerOfTwo(QsprepError):
    pass


class ZeroVector(QsprepError):
    pass


class BadSplit(QsprepError):
    pass


class IndexOutOfRange(QsprepError):
    pass


class NonFiniteAmplitude(QsprepError):
    """An amplitude is not a finite number, or the norm of the vector overflows."""


class MalformedInput(QsprepError):
    """An input document breaks its schema or does not fit the circuit it is used with."""


class BadEpsilon(QsprepError):
    """An approximation budget outside (0, 1), or one whose per-rotation share underflows."""


def parse_json(text: str | bytes):
    """``json.loads`` for amplitude and batch documents (circuits stream through ``circuit_ir.loads``).

    Text nested deeper than the parser's recursion limit is bad input, so its
    ``RecursionError`` becomes ``MalformedInput``.  Undecodable text still
    raises ``json.JSONDecodeError``.
    """
    try:
        return json.loads(text)
    except RecursionError:
        raise MalformedInput("input JSON is nested too deeply") from None


# -- circuit IR ---------------------------------------------------------------

class CircuitError(QsprepError):
    """A gate, a qubit lifetime or a circuit document breaks the IR's rules."""


class OperandNotLive(CircuitError):
    pass


class DuplicateOperand(CircuitError):
    pass


class LayerCollision(CircuitError):
    pass


class DoubleDealloc(CircuitError):
    pass


class UseAfterDealloc(CircuitError):
    pass


class LeakedQubit(CircuitError):
    pass


class MalformedCircuit(CircuitError):
    """A gate or circuit document breaks the schema: unknown op or kind, bad parameter, wrong JSON type."""


# -- subroutines --------------------------------------------------------------

class NotPowerOfTwo(QsprepError):
    pass


class RegisterTooSmall(QsprepError):
    pass


class BadRegisterShape(QsprepError):
    pass


class AngleCountMismatch(QsprepError):
    pass


# -- protocols ----------------------------------------------------------------

class NoValidSplit(QsprepError):
    pass


class ComplexTargetNeedsCSP(QsprepError):
    pass


# -- simulator ----------------------------------------------------------------

class PeakQubitsExceeded(QsprepError):
    pass


class DeallocNotZero(QsprepError):
    def __init__(self, qubit, mass, message=None):
        self.qubit = qubit
        self.mass = mass
        super().__init__(message or f"qubit {qubit} deallocated with residual mass {mass:.3e}")


class NormDrift(QsprepError):
    pass


# -- multicopy ----------------------------------------------------------------

class PoolExceeded(QsprepError):
    def __init__(self, message, feasible_k=None):
        self.feasible_k = feasible_k
        super().__init__(message)
