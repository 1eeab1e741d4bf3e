"""Shared test helper: drive a circuit from an arbitrary data-register state."""

import numpy as np

from qsprep.sim import SimReport, SimState


def run_with_input(circuit, data_vec):
    """Run a circuit whose data register starts in an arbitrary state.

    Drives the simulator layer by layer, overwriting the data register with
    the requested amplitudes the moment it is fully allocated (it must still
    be |0...0> at that point).
    """
    c = circuit.compact()
    data = c.registers["D"]
    state = SimState(max_live=26)
    L = c.num_layers()
    report = SimReport(fidelity=None)
    seeded = False
    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        for q in deallocs:
            report.ancilla_verdicts.append((q.id, t, state.dealloc(q)))
        for q in allocs:
            state.alloc(q)
        if not seeded and all(q.id in state._pos for q in data):
            order = data + [q for q in state.live if q not in data]
            vec = state.statevector(order).reshape(-1, 1 << len(data))
            assert np.allclose(vec[:, 1:], 0)
            full = np.kron(vec[:, 0], np.asarray(data_vec, complex))
            Lnow = state.num_live
            tensor = full.reshape((2,) * Lnow)
            axes = [0] * Lnow
            for bit, q in enumerate(order):
                axes[Lnow - 1 - state._pos[q.id]] = Lnow - 1 - bit
            state._vec = np.ascontiguousarray(tensor.transpose(axes)).reshape(-1)
            seeded = True
        if t == L:
            break
        for g in c.layers[t]:
            state.apply(g)
    report.peak_live_qubits = state.peak_live
    return report, state
