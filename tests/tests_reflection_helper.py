"""Shared test helper: drive a circuit from an arbitrary data-register state."""

import numpy as np

from qsprep.sim import SimReport, SimState


def run_with_input(circuit, data_vec):
    """Run a circuit whose data register starts in an arbitrary state.

    Drives the simulator layer by layer and, the moment the data register is
    fully allocated (it must still be |0...0> then), tensors the requested
    amplitudes into the simulator's sparse basis-key map.
    """
    c = circuit.compact()
    data = c.registers["D"]
    state = SimState()
    L = c.num_layers()
    report = SimReport(fidelity=None)
    seeded = False
    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        for q in deallocs:
            report.ancilla_verdicts.append((q, t, state.dealloc(q)))
        for q in allocs:
            state.alloc(q)
        if not seeded and all(q in state._pos for q in data):
            offsets = [1 << state._pos[q] for q in data]
            assert not any(key & off for key in state._amp for off in offsets)
            state._amp = {
                key | sum(off for bit, off in enumerate(offsets) if (j >> bit) & 1): a * amp_j
                for key, a in state._amp.items()
                for j, amp_j in enumerate(np.asarray(data_vec, complex))
                if amp_j
            }
            seeded = True
        if t == L:
            break
        for g in c.gates(t):
            state.apply(g)
    report.peak_live_qubits = state._width
    return report, state
