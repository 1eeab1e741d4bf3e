"""Low-depth quantum state preparation compiler with spacetime accounting.

The names below are imported from their modules on first access (PEP 562),
so importing the bare package does not load numpy; importing any of its
modules, ``circuit_ir`` among them, does.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(["AngleSet", "CSPAngleSet", "PartitionNorms", "TargetState", "csp_angles",
                     "make_target", "partition_norms", "sp_angles"], "amplitudes"),
    **dict.fromkeys(["Circuit", "GateSetModel", "ResourceReport", "spacetime_allocation"], "circuit_ir"),
    **dict.fromkeys(["ProtocolConfig", "choose_m", "csp_circuit", "reflection", "sp_circuit",
                     "spcsp"], "protocols"),
    **dict.fromkeys(["SimReport", "SimState", "run"], "sim"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_EXPORTS])
