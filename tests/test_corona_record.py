"""The committed corona output record: stopping-forest exports, fibers,
packing, Carleson, invariant and mass-drop values of four coronas, compared
exactly.

The corona path makes no BLAS reduction, so the record holds at any thread
count.  To rewrite it after a change that is meant to move these numbers, run
`PYTHONPATH=src python tests/test_corona_record.py` from the repository root
and review the diff of `tests/data/corona_record.json`.
"""

import json
from pathlib import Path

from dyadlab import (
    build_grid,
    carleson_check,
    corona_invariant_violation,
    descendant_mass_drop,
    packing_check,
    qn_partition,
    random_a2_weight,
)
import dyadlab.experiments as exp

RECORD = Path(__file__).parent / "data" / "corona_record.json"


def _address(cube):
    return None if cube is None else cube.address()


def _entry(corona) -> dict:
    pk, cr = packing_check(corona), carleson_check(corona)
    return {
        "export": corona.export(),
        "packing": {"child_union_ratio": pk.child_union_ratio,
                    "overlap_ratio": pk.overlap_ratio,
                    "child_witness": _address(pk.child_witness),
                    "overlap_witness": _address(pk.overlap_witness)},
        "carleson": {"worst_ratio": cr.worst_ratio, "a2": cr.a2,
                     "witness": _address(cr.witness)},
        "invariant_violation": corona_invariant_violation(corona),
        "mass_drop": descendant_mass_drop(corona),
        "fibers": [[L.address(), {j: fiber.mask(j).nonzero()[0].tolist()
                                  for j in fiber.levels()}]
                   for L, fiber in corona.fibers()],
    }


def corona_record() -> dict:
    """Full coronas of a d=1 N=8 and a d=2 N=5 cascade weight, and the
    corona of the deepest Q_n class of each."""
    record = {}
    for name, d, N in (("d1_N8", 1, 8), ("d2_N5", 2, 5)):
        w = random_a2_weight(2, 3000 + d, build_grid(d, N))
        qn = qn_partition(w)
        n = qn.n_values()[-1]
        record[f"cascade_{name}"] = _entry(exp.corona_for(w))
        record[f"class_{name}_n{n}"] = _entry(exp.class_corona(w, qn.classes[n], None)[1])
    return json.loads(json.dumps(record))


def test_corona_record_is_reproduced_exactly():
    want = json.loads(RECORD.read_text())
    got = corona_record()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


if __name__ == "__main__":
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps(corona_record(), indent=1) + "\n")
