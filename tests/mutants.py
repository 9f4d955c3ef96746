"""Named mutants of the fast paths, each with the tests that must kill it.

An entry names a file, an exact source fragment in it, the fragment's
replacement, and the pytest node ids that must fail once the fragment is
replaced (an id without parameters stands for all of its cases).  Run from
anywhere:

    python tests/mutants.py [NAME ...]

Each mutant is applied to a fresh copy of `src/` and `tests/` in a temporary
directory and its node ids run there, hypothesis seeded with 0.  A mutant is
killed when every one of its ids fails.  The script prints a verdict per
mutant and exits 1 when one survives.  `tests/test_mutants.py` checks that
every fragment occurs exactly once in its file, so the list cannot go stale
unnoticed.  Pytest does not collect this file.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    fragment: str
    replacement: str
    killers: tuple      # pytest node ids that must fail


MUTANTS = (
    Mutant("certifies-eps-zero", "src/dyadlab/haar.py",
           "t = s * s * (1.0 + 2.0 * eta)", "t = s * s",
           ("tests/test_operator_properties.py::test_certificate_refuses_a_value_below_the_norm",
            "tests/test_operator_properties.py::test_dense_norm_matches_full_svd")),
    Mutant("slots-copy", "src/dyadlab/haar.py",
           'return np.einsum("...rleqry->...qrley", view)',
           'return np.einsum("...rleqry->...qrley", view).copy()',
           ("tests/test_operator_properties.py::test_slots_view_is_the_haar_rows_layout",
            "tests/test_operator_properties.py::test_dense_norm_matches_full_svd",
            "tests/test_estimates.py::test_indicator_fields_are_t_of_sigma_indicators")),
    Mutant("indicator-sums-without-last-step", "src/dyadlab/haar.py",
           "B.append(B[-1] + step.ravel())",
           "B.append(B[-1] + step.ravel() * (p < rows.grid.N - 1))",
           ("tests/test_estimates.py::test_indicator_fields_are_t_of_sigma_indicators",
            "tests/test_estimates.py::test_tstar1_values_are_t_star_of_mu_indicators")),
    Mutant("krylov-value-low", "src/dyadlab/shifts.py",
           "s = _norm(forward(v))", "s = _norm(forward(v)) * (1.0 - 1e-11)",
           ("tests/test_operator_properties.py::test_dense_norm_matches_full_svd",
            "tests/test_operator_properties.py::test_the_n_by_n_route_builds_m_once")),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def failing_ids(output: str) -> list:
    """The node ids pytest's `-rfE` summary reports as failed or in error."""
    return _FAILED.findall(output)


def killed(mutant: Mutant, failed: list) -> bool:
    """Whether every node id of the mutant, or one of its cases, failed."""
    return all(any(f == k or f.startswith(k + "[") for f in failed) for k in mutant.killers)


def run(mutant: Mutant) -> bool:
    """Apply the mutant to a temporary copy of the repository and run its
    node ids there; True when it is killed."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(tmp, part), ignore=skip)
        shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp)
        target = os.path.join(tmp, mutant.path)
        with open(target, encoding="utf-8") as fh:
            source = fh.read()
        if source.count(mutant.fragment) != 1:
            raise SystemExit(f"{mutant.name}: fragment does not occur exactly once")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(source.replace(mutant.fragment, mutant.replacement))
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *mutant.killers],
            cwd=tmp, env=env, capture_output=True, text=True)
    return killed(mutant, failing_ids(proc.stdout))


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        ok = run(mutant)
        print(f"{mutant.name}: {'killed' if ok else 'SURVIVED'}", flush=True)
        if not ok:
            survivors.append(mutant.name)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
