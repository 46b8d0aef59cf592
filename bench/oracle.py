"""Reference results and the checks every timed output must pass.

The reference of a circuit is ``repro.statevector.simulate`` - the plain
dense path that shares no code with the chunked engine, the planner's other
engines, the service or the CLI.  It is computed once per distinct QASM
text, after the timed passes, and its time is reported as ``bench.oracle_s``
(never as part of set-up or of a request).
"""

from __future__ import annotations

import math

import numpy as np

#: 1 - fidelity and |1 - norm| allowed on a double / single precision state.
STATE_TOLERANCE = {"double": 1e-9, "single": 1e-5}
#: A sampled outcome must have at least this reference probability.
SUPPORT_FLOOR = 1e-12
#: Each qubit's sampled P(1) must lie within this many standard errors of
#: the reference marginal, plus a few counts (the normal approximation is
#: poor for marginals near 0 or 1).  Total variation over outcomes is
#: useless here: gs_13 has 8192 equally likely outcomes and a request
#: draws 256.
MARGINAL_SIGMAS = 6.0
MARGINAL_SLACK_COUNTS = 4


class Reference:
    """Reference amplitudes of one circuit, with what the checks derive."""

    def __init__(self, qasm: str) -> None:
        from repro.circuits import from_qasm
        from repro.statevector import simulate

        circuit = from_qasm(qasm)
        self.num_qubits = circuit.num_qubits
        self.amplitudes = np.asarray(simulate(circuit).amplitudes)
        self.probabilities = np.abs(self.amplitudes) ** 2
        self.marginals = [
            float(self.probabilities.reshape(-1, 2, 1 << q)[:, 1, :].sum())
            for q in range(self.num_qubits)
        ]

    def check_state(self, amplitudes: np.ndarray, precision: str) -> str | None:
        """None if ``amplitudes`` is the reference state, else the reason."""
        tolerance = STATE_TOLERANCE[precision]
        state = amplitudes.astype(np.complex128, copy=False)
        norm = float(np.vdot(state, state).real)
        fidelity = float(abs(np.vdot(self.amplitudes, state)) ** 2)
        if abs(1.0 - norm) > tolerance:
            return f"norm {norm!r} off by more than {tolerance}"
        if 1.0 - fidelity > tolerance:
            return f"fidelity {fidelity!r} below 1 - {tolerance}"
        return None

    def check_counts(self, counts: dict[int, int], shots: int | None) -> str | None:
        """None if ``counts`` could be ``shots`` draws from the reference.

        ``shots=None`` checks a truncated listing (the CLI prints only the
        most frequent outcomes): support only.
        """
        for outcome in counts:
            if not 0 <= outcome < self.probabilities.size:
                return f"outcome {outcome} outside the register"
            if self.probabilities[outcome] < SUPPORT_FLOOR:
                return f"outcome {outcome} has zero reference probability"
        if shots is None:
            return None
        if sum(counts.values()) != shots:
            return f"{sum(counts.values())} shots counted, {shots} requested"
        for qubit, expected in enumerate(self.marginals):
            ones = sum(c for outcome, c in counts.items() if outcome >> qubit & 1)
            sigma = math.sqrt(max(expected * (1.0 - expected), 0.0) / shots)
            if abs(ones / shots - expected) > MARGINAL_SIGMAS * sigma + MARGINAL_SLACK_COUNTS / shots:
                return (
                    f"qubit {qubit}: sampled P(1) = {ones / shots:.4f}, "
                    f"reference {expected:.4f}"
                )
        return None
