"""Every module in ``src/repro`` is reached from a front door, or is an oracle;
every public name in it is referenced by the program, or is a test seam.

The walk builds a static import graph over the package, counting imports
inside function bodies too (the CLI imports its commands lazily), and
follows it from the front doors:

* the CLI (``repro.cli`` and ``python -m repro``),
* ``repro.core.simulator`` (``QGpuSimulator``),
* ``repro.service`` (``BatchService`` and its public surface),
* ``repro.experiments`` (every ``run_experiment`` id),
* the names in ``repro.__all__``.

``from pkg import name`` is resolved through ``pkg/__init__.py`` to the
submodule that defines ``name``: a re-export in an ``__init__`` alone does
not reach a module.  A module no door reaches must be on :data:`ORACLES`
with a reason, and an oracle must stay off every door's import path, both
statically and at run time.

The function-level pass collects the public functions, classes and methods
of every non-oracle module and fails on any name that no file under
``src/``, ``examples/`` or ``bench/`` mentions, unless :data:`TEST_SEAMS`
lists it with a reason.  A function or class is mentioned by an
identifier, an attribute or an imported name; a method only by attribute
access (``x.method``), so a bare variable or function that shares its
name does not count.  The match is by name, so it errs towards
"referenced".
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent
ROOT_MODULES = (
    "repro.__main__",
    "repro.cli",
    "repro.core.simulator",
    "repro.service",
    "repro.experiments",
)

#: Modules no door reaches on purpose.  Each is a reference the tests check
#: an engine against; importing one from a door would be a defect.
ORACLES = {
    "repro.core.pruning": (
        "line-for-line transcription of Algorithm 1 (iter_live_chunks, "
        "chunk_is_pruned) that the liveness tracker's subcube is checked "
        "against"
    ),
    "repro.circuits.equivalence": (
        "unitary and final-state equivalence checks that certify transpiler "
        "and reorder passes in the tests"
    ),
    "repro.statevector.expectation": (
        "dense Pauli-expectation reference for the MPS engine's "
        "expectation_pauli and the tableau's stabilizer tests"
    ),
}


def _module_names() -> dict[str, Path]:
    names = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names[".".join(parts)] = path
    return names


MODULES = _module_names()
TREES = {name: ast.parse(path.read_text(), str(path)) for name, path in MODULES.items()}


def _is_package(name: str) -> bool:
    return MODULES[name].name == "__init__.py"


def _absolute(module: str, node: ast.ImportFrom) -> str:
    if not node.level:
        return node.module or ""
    base = module.split(".")
    base = base[: len(base) - node.level + (1 if _is_package(module) else 0)]
    return ".".join(base + ([node.module] if node.module else []))


def _resolve(package: str, name: str) -> str:
    """The module that defines ``name`` as seen from ``from package import``."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if package not in MODULES or not _is_package(package):
        return package
    for node in TREES[package].body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return _resolve(_absolute(package, node), alias.name)
    return package


def _imports(module: str) -> set[str]:
    """Modules ``module`` imports, anywhere in its body, re-exports resolved."""
    found = set()
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _absolute(module, node)
            found.update(_resolve(source, alias.name) for alias in node.names)
    return {name for name in found if name in MODULES}


def _reached() -> set[str]:
    frontier = list(ROOT_MODULES)
    frontier += [_resolve("repro", name) for name in repro.__all__]
    reached: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        # A package's own re-exports are followed only when it is a door.
        if _is_package(module) and module not in ROOT_MODULES:
            continue
        frontier.extend(_imports(module))
    # Importing any submodule runs every enclosing package's __init__.
    for module in list(reached):
        parts = module.split(".")
        reached.update(".".join(parts[:k]) for k in range(1, len(parts)))
    return reached


def test_every_module_is_reached_or_an_oracle() -> None:
    unreached = sorted(set(MODULES) - _reached() - set(ORACLES))
    assert not unreached, (
        f"no front door reaches {unreached}: wire each to a door, retire it, "
        "or add it to ORACLES with a reason"
    )


def test_oracles_exist_and_no_door_reaches_them() -> None:
    assert set(ORACLES) <= set(MODULES), sorted(set(ORACLES) - set(MODULES))
    assert not set(ORACLES) & _reached(), sorted(set(ORACLES) & _reached())


def test_walk_follows_lazy_imports_and_resolves_re_exports() -> None:
    # The CLI imports its commands inside functions.
    assert "repro.hardware.trace" in _imports("repro.cli")
    # ``from repro.statevector import simulate`` reaches the defining
    # module, not the package's other re-exports.
    assert _resolve("repro.statevector", "simulate") == "repro.statevector.state"
    assert _resolve("repro", "QGpuSimulator") == "repro.core.simulator"


#: How each door is entered at run time.
DOOR_IMPORTS = {
    **{root: f"import {root}" for root in ROOT_MODULES},
    "repro.__all__": "from repro import *",
}


#: Modules every door but the experiments leaves unloaded at import time:
#: ``repro estimate`` and the experiments that price the comparators import
#: them when they run.
LAZY = {"repro.comparisons": "CPU-OpenMP / Qsim-Cirq / QDK cost models"}


@pytest.mark.parametrize("door", sorted(DOOR_IMPORTS))
def test_importing_a_door_loads_no_oracle(door: str) -> None:
    # One fresh interpreter per door, so a failure names the door that
    # drags an oracle (or a lazy module) in.
    unwanted = set(ORACLES) | (set() if door == "repro.experiments" else set(LAZY))
    script = (
        "import sys\n"
        f"{DOOR_IMPORTS[door]}\n"
        f"print(sorted(set({sorted(unwanted)!r}) & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    completed = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]", completed.stdout


# -- function level ------------------------------------------------------------

REPO = SRC.parents[1]
PROGRAM_DIRS = ("src", "examples", "bench")

#: Public names the program never mentions, kept because tests use them
#: or a framework calls them.
TEST_SEAMS = {
    "repro.analysis.capacity:capacity_gain": (
        "the Sec. V-D compressed-capacity extension, checked by the capacity "
        "tests and benchmarks/test_ext_compressed_capacity.py"
    ),
    "repro.analysis.capacity:CapacityGain.extra_qubits": (
        "the qubits capacity_gain's record adds, asserted by the same checks"
    ),
    "repro.obs.roofline:RooflinePoint.memory_bound": (
        "the roofline and Fig. 15 tests assert which kernels are memory bound"
    ),
    "repro.circuits.circuit:QuantumCircuit.gate_counts": (
        "per-gate histogram the library tests check the generators with"
    ),
    "repro.circuits.circuit:QuantumCircuit.involvement_profile": (
        "per-qubit involvement the reorder tests check Algorithm 3 against"
    ),
    "repro.circuits.circuit:QuantumCircuit.i": (
        "builder of the ``id`` gate; the gate-set rule skips builders named "
        "after GATE_SPECS, and this one is named ``i``"
    ),
    "repro.circuits.dag:GateDag.topological_order": (
        "reference order the DAG tests feed to is_valid_order"
    ),
    "repro.circuits.dag:GateDag.is_valid_order": (
        "dependency oracle every reorder permutation is checked against"
    ),
    "repro.hardware.topology:Topology.peer_links": (
        "the topology tests check each builder's device-to-device links"
    ),
    "repro.mps.state:MpsState.amplitude": (
        "Equation-9 single-amplitude contraction, a second path the MPS "
        "tests check to_dense against"
    ),
    "repro.obs.log:JsonLogFormatter.format": (
        "logging.Formatter override; the logging framework calls it"
    ),
    "repro.reliability.faults:FaultPlan.to_spec": (
        "inverse of FaultPlan.from_spec; the spec parser is round-trip "
        "tested against it"
    ),
    "repro.stabilizer.tableau:StabilizerState.measure_all": (
        "per-shot tableau sampler the one-product readout is checked "
        "byte-identical against"
    ),
    "repro.statevector.chunks:ChunkedStateVector.apply_groups": (
        "group-level sweep the parallel and subcube tests drive below the "
        "fused op stream"
    ),
    "repro.statevector.chunks:ChunkedStateVector.chunk_is_zero": (
        "checks that chunks outside the live subcube stay exactly zero "
        "after every op"
    ),
    "repro.statevector.state:StateVector.fidelity": (
        "state overlap the circuit, library and workflow tests compare "
        "engines' states with"
    ),
    "repro.statevector.state:StateVector.reset": (
        "mid-circuit reset on the reference state vector, checked by the "
        "mid-circuit measurement tests"
    ),
}


def _public_names() -> set[str]:
    """``module:name`` and ``module:Class.method`` for every public def."""
    from repro.circuits.gates import GATE_SPECS

    names = set()
    for module, tree in TREES.items():
        if module in ORACLES:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            names.add(f"{module}:{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name.startswith("_"):
                    continue
                # One builder per gate is the circuit API's gate set.
                if node.name == "QuantumCircuit" and item.name in GATE_SPECS:
                    continue
                names.add(f"{module}:{node.name}.{item.name}")
    return names


def _program_mentions() -> tuple[set[str], set[str]]:
    """``(names, attributes)`` the program mentions.

    ``names`` holds identifiers, imported names and attributes alike;
    ``attributes`` only the ``x.attr`` accesses, which is how a method is
    reached.
    """
    names: set[str] = set()
    attributes: set[str] = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add((node.asname or node.name).rsplit(".", 1)[-1])
    return names | attributes, attributes


def _unreferenced() -> set[str]:
    names, attributes = _program_mentions()
    unreferenced = set()
    for public in _public_names():
        qualified = public.rsplit(":", 1)[1]
        is_method = "." in qualified
        if qualified.rsplit(".", 1)[-1] not in (attributes if is_method else names):
            unreferenced.add(public)
    return unreferenced


def test_every_public_name_is_referenced_or_a_test_seam() -> None:
    unlisted = sorted(_unreferenced() - set(TEST_SEAMS))
    assert not unlisted, (
        f"nothing under {PROGRAM_DIRS} mentions {unlisted}: delete each, or "
        "add it to TEST_SEAMS with a reason"
    )


def test_test_seams_are_public_and_still_unreferenced() -> None:
    assert set(TEST_SEAMS) <= _public_names(), sorted(set(TEST_SEAMS) - _public_names())
    stale = sorted(set(TEST_SEAMS) - _unreferenced())
    assert not stale, f"the program now uses {stale}: drop them from TEST_SEAMS"
