"""Shared test helper: drive a circuit from an arbitrary data-register state."""

import numpy as np

from qsprep.sim import SimReport, SimState


def run_with_input(circuit, data_vec):
    """Run a circuit whose data register starts in an arbitrary state.

    Drives the simulator layer by layer and, the moment the data register is
    fully allocated (it must still be |0...0> then), tensors the requested
    amplitudes into the simulator's sparse branches (key words x branches, and
    their amplitudes).
    """
    c = circuit.compact()
    data = c.registers["D"]
    state = SimState()
    L = c.num_layers()
    report = SimReport(fidelity=None)
    seeded = False
    for t, (allocs, deallocs) in enumerate(c.lifecycle()):
        report.ancilla_verdicts += [(q, t, residual) for q, residual in zip(deallocs, state.dealloc(deallocs))]
        state.alloc(allocs)
        if not seeded and all(q in state._pos for q in data):
            words, masks = state._places(data)  # each data qubit's key word and bit there
            assert not (state._keys[words] & masks[:, None]).any()
            keys, amps = [], []
            for j, amp_j in enumerate(np.asarray(data_vec, complex)):
                if amp_j:
                    key = state._keys.copy()
                    for bit, (w, m) in enumerate(zip(words, masks)):
                        if (j >> bit) & 1:
                            key[w] |= m
                    keys.append(key)
                    amps.append(state._amp * amp_j)
            state._keys, state._amp = np.concatenate(keys, axis=1), np.concatenate(amps)
            seeded = True
        if t == L:
            break
        state.apply(c.groups(t))
    report.peak_live_qubits = state._width
    return report, state
