"""Backend/precision selection: ``plan(circuit, config) -> BackendPlan``.

The planner glues the static features (:mod:`repro.planner.features`) to
the per-backend prices (:mod:`repro.planner.costs`) and picks the
cheapest backend of :data:`AUTO_BACKENDS` whose price it can vouch for:
feasible, exact, and - for the sparse engine - backed by a completed
support probe.  When none qualifies it raises rather than guess.
Selection is fully deterministic: same circuit + same
:class:`PlannerConfig` always yields the same :class:`BackendPlan`,
including byte-identical rationale text - the batch service journals
plans and replays must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.circuit import QuantumCircuit
from repro.errors import AnalysisError
from repro.hardware.specs import MachineSpec, PAPER_MACHINE
from repro.planner.costs import (
    BACKENDS,
    BackendCost,
    all_backend_costs,
    backend_cost,
)
from repro.planner.features import CircuitFeatures, analyze_circuit

#: Valid values for the backend knob ("auto" resolves via the planner).
BACKEND_CHOICES: tuple[str, ...] = ("auto",) + BACKENDS

#: Valid values for the precision knob.
PRECISION_CHOICES: tuple[str, ...] = ("auto", "single", "double")

#: The ``auto`` candidate pool, in deterministic tie-break order.  MPS,
#: never the cheapest exact backend at the census widths, is reachable
#: only by forcing it.
AUTO_BACKENDS: tuple[str, ...] = ("stabilizer", "sparse", "statevector")

#: ``precision="auto"`` picks the complex64 fast path for dense runs up
#: to this many gates; beyond it rounding accumulation makes the
#: norm-guard fallback likely enough that double is the better bet.
SINGLE_PRECISION_GATE_LIMIT = 4096


@dataclass(frozen=True)
class PlannerConfig:
    """Knobs for :func:`plan`.

    Attributes:
        machine: Hardware model used for feasibility and memory limits.
        backend: ``"auto"`` or a forced backend name.
        precision: ``"auto"``, ``"single"`` or ``"double"``.  ``single``
            is the dense engine's complex64 fast path; requesting it
            restricts auto-selection to the statevector backend.
    """

    machine: MachineSpec = PAPER_MACHINE
    backend: str = "auto"
    precision: str = "auto"


DEFAULT_CONFIG = PlannerConfig()


@dataclass(frozen=True)
class BackendPlan:
    """The planner's decision for one circuit on one machine.

    Attributes:
        circuit_name: Name of the planned circuit.
        machine_name: Name of the machine the plan priced against.
        num_qubits: Register width.
        backend: Chosen backend (one of :data:`~repro.planner.costs.BACKENDS`).
        precision: Resolved numeric precision (``single`` / ``double``).
        estimated_seconds: Modelled cost of the chosen backend at the
            resolved precision.
        estimated_bytes: Modelled peak resident bytes of the chosen
            backend.
        rationale: Stable human-readable justification.
        costs: Every candidate's price, in candidate order.
        features: The static features the decision was made from.
    """

    circuit_name: str
    machine_name: str
    num_qubits: int
    backend: str
    precision: str
    estimated_seconds: float
    estimated_bytes: float
    rationale: str
    costs: tuple[BackendCost, ...] = field(repr=False)
    features: CircuitFeatures = field(repr=False)

    def cost_for(self, backend: str) -> BackendCost:
        """Return the priced entry for ``backend``.

        Raises:
            AnalysisError: If the backend was not in the candidate pool.
        """
        for cost in self.costs:
            if cost.backend == backend:
                return cost
        raise AnalysisError(f"backend {backend!r} was not priced in this plan")

    def render(self) -> str:
        """Multi-line human-readable report (deterministic text)."""
        f = self.features
        lines = [
            f"plan for {self.circuit_name} on {self.machine_name}:",
            f"  qubits {self.num_qubits}  gates {f.num_gates}  "
            f"depth {f.depth}  clifford {f.clifford_fraction:.0%}  "
            f"support bound {f.support_bound_final}  "
            f"probe peak {f.probe_support_peak}"
            f"{'' if f.probe_completed else ' (aborted)'}  "
            f"bond proxy {f.bond_estimate}",
            f"  {'backend':<12} {'feasible':<9} {'est seconds':>12} "
            f"{'est memory':>12}  note",
        ]
        for cost in self.costs:
            seconds = "-" if not cost.feasible else f"{cost.seconds:.6g}"
            lines.append(
                f"  {cost.backend:<12} {'yes' if cost.feasible else 'no':<9} "
                f"{seconds:>12} {_format_bytes(cost.memory_bytes):>12}  "
                f"{cost.reason}"
            )
        lines.append(f"  -> chosen: {self.backend}, precision {self.precision}")
        lines.append(f"  rationale: {self.rationale}")
        return "\n".join(lines)


def _format_bytes(value: float) -> str:
    if value >= 1 << 30:
        return f"{value / (1 << 30):.1f}GiB"
    if value >= 1 << 20:
        return f"{value / (1 << 20):.1f}MiB"
    if value >= 1 << 10:
        return f"{value / (1 << 10):.1f}KiB"
    return f"{int(value)}B"


def _resolve_precision(backend: str, config: PlannerConfig, num_gates: int) -> str:
    if config.precision == "double":
        return "double"
    if config.precision == "single":
        return "single"
    # "auto": the complex64 fast path only exists on the dense engine and
    # pays off while accumulated rounding stays inside the norm guard.
    if backend == "statevector" and num_gates <= SINGLE_PRECISION_GATE_LIMIT:
        return "single"
    return "double"


def _rejection(cost: BackendCost, features: CircuitFeatures, precision: str) -> str:
    """Why ``auto`` may not pick ``cost`` ("" when it may)."""
    if not cost.feasible:
        return cost.reason
    if cost.backend == "sparse" and not features.probe_completed:
        # Priced at the structural bound only: no price to vouch for.
        return cost.reason
    if precision == "single" and cost.backend != "statevector":
        # The complex64 fast path is dense-only; an explicit single
        # request is a constraint on the backend choice.
        return "single precision runs on the statevector engine only"
    return ""


def _selection_rationale(
    chosen: BackendCost,
    pool: list[BackendCost],
    features: CircuitFeatures,
    forced: bool,
) -> str:
    if forced:
        return f"backend {chosen.backend} forced by config"
    structure = ""
    if chosen.backend == "stabilizer":
        structure = (
            f"all {features.num_gates} gates are Clifford, so tableau "
            f"simulation is polynomial in n; "
        )
    elif chosen.backend == "sparse":
        structure = (
            f"support probe completed with peak support "
            f"{features.probe_support_peak} of "
            f"{1 << features.num_qubits} amplitudes; "
        )
    others = [c for c in pool if c.backend != chosen.backend]
    if others:
        runner = min(others, key=lambda c: c.seconds)
        comparison = (
            f"cheapest of {len(pool)} feasible backends "
            f"(est {chosen.seconds:.3g}s vs {runner.backend} "
            f"{runner.seconds:.3g}s)"
        )
    else:
        comparison = "the only feasible backend"
    return f"{structure}{comparison}"


def plan(
    circuit: QuantumCircuit, config: PlannerConfig = DEFAULT_CONFIG
) -> BackendPlan:
    """Choose a backend and precision for ``circuit`` under ``config``.

    Deterministic: same circuit + config produce an equal plan with
    byte-identical rationale.

    Raises:
        AnalysisError: On invalid knobs, a forced backend that cannot run
            the circuit, or (``auto``) a circuit no backend of
            :data:`AUTO_BACKENDS` qualifies for; the message lists every
            candidate's rejection.
    """
    if config.backend not in BACKEND_CHOICES:
        raise AnalysisError(
            f"unknown backend {config.backend!r} "
            f"(choose from {sorted(BACKEND_CHOICES)})"
        )
    if config.precision not in PRECISION_CHOICES:
        raise AnalysisError(
            f"unknown precision {config.precision!r} "
            f"(choose from {sorted(PRECISION_CHOICES)})"
        )
    features = analyze_circuit(circuit)
    costs = all_backend_costs(features, config.machine, "double", AUTO_BACKENDS)

    forced = config.backend != "auto"
    if forced:
        chosen = next((c for c in costs if c.backend == config.backend), None)
        if chosen is None:
            chosen = backend_cost(
                features, config.backend, config.machine, "double"
            )
            costs = costs + (chosen,)
        if not chosen.feasible:
            raise AnalysisError(
                f"backend {config.backend!r} cannot run "
                f"{circuit.name}: {chosen.reason}"
            )
        pool = [chosen]
    else:
        rejections = [
            (c, _rejection(c, features, config.precision)) for c in costs
        ]
        pool = [c for c, reason in rejections if not reason]
        if not pool:
            reasons = "; ".join(
                f"{c.backend}: {reason}" for c, reason in rejections
            )
            raise AnalysisError(
                f"no backend can execute {circuit.name} on "
                f"{config.machine.name} ({reasons})"
            )
        chosen = min(pool, key=lambda c: c.seconds)

    precision = _resolve_precision(chosen.backend, config, features.num_gates)
    if precision == "single" and chosen.backend != "statevector":
        raise AnalysisError(
            "single precision is the dense engine's complex64 fast path; "
            f"backend {chosen.backend!r} runs double only"
        )
    if precision == "single":
        chosen = backend_cost(
            features, "statevector", config.machine, "single"
        )

    rationale = _selection_rationale(chosen, pool, features, forced)
    if precision == "single":
        rationale += "; complex64 fast path, norm-guarded"

    return BackendPlan(
        circuit_name=circuit.name,
        machine_name=config.machine.name,
        num_qubits=features.num_qubits,
        backend=chosen.backend,
        precision=precision,
        estimated_seconds=chosen.seconds,
        estimated_bytes=chosen.memory_bytes,
        rationale=rationale,
        costs=costs,
        features=features,
    )
