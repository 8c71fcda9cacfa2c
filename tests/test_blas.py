"""The one-thread BLAS cap of serrin._blas, in this process and in a fresh one."""

import ctypes
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import serrin
from serrin import _blas

# run with OPENBLAS_NUM_THREADS=2: the caller's count before, inside and after
# capped calls, a constant_operator solve among them
PROBE = """
import json
from serrin import _blas
from serrin.fourier import CosineSeries
from serrin.linearize import apply_L, constant_operator

seen = {"before": _blas.threads(), "inside": _blas.one_thread(_blas.threads)()}
op = constant_operator("xi", 0.9, (32, 16))
solve = op._preconditioner.solve
def spy(*args):
    seen["in_gmres"] = _blas.threads()
    return solve(*args)
op._preconditioner.solve = spy
apply_L(0.9, CosineSeries.basis(2), operator=op)
seen["after_solve"] = _blas.threads()

@_blas.one_thread
def boom():
    raise RuntimeError("inside the cap")
try:
    boom()
except RuntimeError:
    seen["after_raise"] = _blas.threads()

@_blas.one_thread
def outer():
    return _blas.one_thread(_blas.threads)(), _blas.threads()
seen["nested"] = outer()
seen["after_nested"] = _blas.threads()
print(json.dumps(seen))
"""


def test_numpy_openblas_is_found_and_is_the_mapped_library():
    # a wheel whose layout the loader misses fails here, not silently uncapped
    assert _blas.LIBRARY is not None and "openblas" in os.path.basename(_blas.LIBRARY)
    assert np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] == "scipy-openblas"
    # RTLD_NOLOAD opens only a library the process has already mapped
    ctypes.CDLL(_blas.LIBRARY, mode=os.RTLD_NOLOAD)


def test_capped_calls_run_on_one_thread_and_restore_the_callers_count():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("OpenBLAS runs one thread on one usable core")
    src = os.path.dirname(os.path.dirname(serrin.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2"}
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert json.loads(out) == {"before": 2, "inside": 1, "in_gmres": 1, "after_solve": 2,
                               "after_raise": 2, "nested": [1, 1], "after_nested": 2}
