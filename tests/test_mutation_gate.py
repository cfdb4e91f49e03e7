"""The mutation gate (`tools/mutation_gate.py`) judges synthetic mutants of
`pairing.unpair`: a listed test failing on a real change kills a mutant,
one failing only because the edit left a name unbound reports it broken."""

import importlib.util
import sys
from pathlib import Path

import pytest

GATE_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutation_gate.py"
TESTS = ("tests/test_pairing.py::test_pair_base_cases",)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("mutation_gate", GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_a_mutant_that_rebinds_a_name_it_reads_is_broken_not_killed(gate):
    rebinding = gate.Mutant(
        "rebinding", "pairing.py", "unpair",
        "b = n - s * (s + 1) // 2", "c = n - s * (s + 1) // 2",
        TESTS, "the second coordinate bound to a name the return never reads",
    )
    with pytest.raises(gate.GateError, match=r"^broken: the listed tests fail only with NameError"):
        gate.run_mutant(rebinding)


def test_a_mutant_that_changes_a_value_is_killed(gate):
    flipped = gate.Mutant(
        "flipped", "pairing.py", "unpair", "s - b", "s + b", TESTS, "the first coordinate off by twice the second"
    )
    assert gate.run_mutant(flipped).startswith("killed")
