import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert DEMOS            # an empty list would parametrize no test


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(tmp_path, path):
    """Each shipped demo runs to exit 0 in a fresh process, from an empty
    working directory, with one BLAS thread and warnings turned into errors
    as the suite does."""
    src = [os.path.join(ROOT, "src")] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(src))
    env.update({var: "1" for var in ("OMP_NUM_THREADS",
                                     "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")})
    done = subprocess.run([sys.executable, "-W", "error", path], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
