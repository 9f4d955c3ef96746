"""Outputs are the same bytes at any BLAS thread count.

A reduction whose value reaches an output runs in numpy's own fixed-order
loops (see the `dyadlab.shifts` docstring), so two power-iteration `norm`
commands, one at d=1 and one at d=2, and a one-exponent shell-partition
sweep must print identical bytes under OPENBLAS_NUM_THREADS = 1, 2 and 4.
Two `dense-svd` commands, `test-conditions` at d=1 N=10 tau=1 and `norm`
for the d=2 martingale transform, pin that the certificate's BLAS products
(the tree Gram and its batched Schur updates) only decide pass or fail:
a verdict, and so the output, must not move with the thread count.  Each
run is a fresh process, since OpenBLAS reads the variable at load.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SCRIPT = """
import dyadlab.experiments as exp
from dyadlab.cli import main
main("norm --N 14 --shift hilbert --family power --a 0.5 --method power-iteration".split())
main("norm --d 2 --N 8 --shift random --tau 1 --family cascade --n 2 --seed 3 "
     "--method power-iteration".split())
print(repr(exp.power_sweep_norms(exponents=(0.75,))))
main("test-conditions --N 10 --shift random --tau 1 --family cascade --n 2 --seed 3 "
     "--method dense-svd".split())
main("norm --d 2 --N 5 --shift martingale --family cascade --n 2 --seed 3 "
     "--method dense-svd".split())
"""


def _outputs(threads: int) -> bytes:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads), "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          check=True).stdout


def test_outputs_do_not_depend_on_the_blas_thread_count():
    one = _outputs(1)
    assert one.count(b'"norm":') == 3 and one.count(b'"full_norm":') == 1
    for threads in (2, 4):
        assert _outputs(threads) == one, threads
