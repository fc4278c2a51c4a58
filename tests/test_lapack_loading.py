"""How padeclust gets its LAPACK routines, checked in fresh interpreters.

padeclust.toeplitz loads scipy.linalg._flapack from its file instead of
importing scipy.linalg, whose package import (numpy.f2py, numpy.testing,
numpy.ma and the rest) is most of a process's start-up time.  These tests
start a new interpreter each, since this suite's own process has long since
imported scipy.linalg.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ROUTINES = ("dgetrf", "zgetrf", "dgetrs", "zgetrs", "dgecon", "zgecon")


def _python(code: str, cwd: Path, *args: str, path: Path = None) -> subprocess.CompletedProcess:
    """Run code with args in a fresh interpreter that imports padeclust from
    src/, with the directory path (if given) ahead of it."""
    entries = [str(path or ""), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(e for e in entries if e))
    return subprocess.run([sys.executable, "-c", code, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


WORK = """
import json, sys
import numpy as np
import padeclust
from padeclust import experiments, pade, find_roots, log_abs_dets
from padeclust.toeplitz import WindowStack

pade([1.0, 0.5, 0.25, 0.125], 1, 1)
stack = WindowStack(4, 5, 3)
stack.coeffs[:] = np.arange(20.0).reshape(4, 5) % 7 - 3
log_abs_dets(stack.windows(2))
find_roots([1.0, 0.0, -2.0, 1.0])
config = experiments.default_config("toeplitz-anticoncentration", trials=20, seed=3)
summary = experiments.execute(config, sys.argv[1])
print(json.dumps({"records": summary["records"],
                  "loaded": [m for m in ("scipy.linalg", "numpy.f2py") if m in sys.modules]}))
"""


def test_work_never_imports_scipy_linalg(tmp_path):
    """A set-up, a solve, a root find and a window protocol run leave
    scipy.linalg and numpy.f2py unimported: a module-level scipy import
    anywhere in padeclust would bring back their start-up cost."""
    out = _python(WORK, tmp_path, str(tmp_path / "run"))
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report == {"records": 20 * 4, "loaded": []}
    assert (tmp_path / "run" / "trials.csv").is_file()


@pytest.mark.parametrize("first", ["padeclust", "scipy.linalg"])
def test_routines_are_scipy_linalg_lapacks(tmp_path, first):
    """In either import order the six routines toeplitz calls are the very
    objects scipy.linalg.lapack exports: the extension registers itself in
    sys.modules, so the second import reuses it and no bit can differ."""
    code = f"""
import {first}
from padeclust import toeplitz
from scipy.linalg import lapack
print(all(getattr(toeplitz.lapack, name) is getattr(lapack, name) for name in {ROUTINES!r}))
"""
    out = _python(code, tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"


def test_missing_extension_names_the_expected_file(tmp_path):
    """A scipy whose linalg directory has no _flapack extension makes
    import padeclust fail with an ImportError naming the file it looked for;
    there is no second way to get LAPACK."""
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    code = """
import importlib.machinery, os
expected = os.path.join(os.getcwd(), "scipy", "linalg",
                        "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
try:
    import padeclust
except ImportError as exc:
    print(expected in str(exc))
"""
    out = _python(code, tmp_path, path=tmp_path)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "True"
