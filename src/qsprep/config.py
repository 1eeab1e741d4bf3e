"""Central numeric tolerances.

Every comparison threshold the simulator applies lives in one record.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    dealloc_mass: float = 1e-10    # residual |1> mass allowed when freeing an ancilla
    norm_drift: float = 1e-9       # statevector norm defect during simulation


DEFAULT_TOLERANCES = Tolerances()

#: Hard cap on simultaneously live qubits in the simulator; ``sim.run(max_live=...)``
#: and ``simulate --max-qubits`` override it per run.
#: The simulator's memory is set by the state's support, which has its own
#: cap (``sim.MAX_SUPPORT``); this one bounds the dense vectors that
#: ``SimState.statevector`` returns.
DEFAULT_MAX_LIVE_QUBITS = 26
