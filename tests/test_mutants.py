"""The mutant list in `tests/mutants.py` still fits the code.

Each fragment occurs exactly once in its file, so applying it changes one
known place, and each node id that must kill a mutant names a test function
of its file.  Running the mutants is `python tests/mutants.py`; this only
reads files.
"""

import importlib.util
import os

HERE = os.path.dirname(os.path.abspath(__file__))


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", os.path.join(HERE, "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _read(root, path):
    with open(os.path.join(root, path), encoding="utf-8") as fh:
        return fh.read()


def test_each_fragment_occurs_once_in_its_file():
    m = _mutants()
    counts = {x.name: _read(m.ROOT, x.path).count(x.fragment) for x in m.MUTANTS}
    assert counts == {x.name: 1 for x in m.MUTANTS}


def test_each_killer_names_a_test_function():
    m = _mutants()
    missing = [k for x in m.MUTANTS for k in x.killers
               if f"\ndef {k.split('::')[1]}(" not in _read(m.ROOT, k.split("::")[0])]
    assert missing == []


def test_a_mutant_is_killed_only_when_each_killer_fails():
    m = _mutants()
    mutant = m.Mutant("x", "f.py", "a", "b", ("t.py::one", "t.py::two"))
    report = "FAILED t.py::one[1] - AssertionError\nERROR t.py::two\n"
    assert m.failing_ids(report) == ["t.py::one[1]", "t.py::two"]
    assert m.killed(mutant, m.failing_ids(report))
    assert not m.killed(mutant, ["t.py::one", "t.py::twofold"])
