"""Numpy's OpenBLAS held at one thread while the tube operators run.

:func:`one_thread` runs a function with numpy's OpenBLAS at one thread and
restores the caller's count, also when it raises; a nested call finds 1 and
leaves it.  The count is process-wide: another host thread's BLAS runs on one
thread meanwhile.  The library is the one numpy's wheel bundles and numpy has
mapped; without one, ``LIBRARY`` is None and threads are left alone.  Nothing
is set at import, and scipy's OpenBLAS (:mod:`serrin._lapack`) is not touched.
"""

import ctypes
import functools
import glob
import importlib.util
import os


def _load():
    where = os.path.dirname(importlib.util.find_spec("numpy").origin)
    for path in sorted(glob.glob(where + ".libs/*openblas*")
                       + glob.glob(where + "/.dylibs/*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get and put:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return path, get, put
    return None, lambda: None, None


LIBRARY, threads, _set = _load()


def one_thread(func):
    """``func`` run with numpy's OpenBLAS at one thread, the caller's count restored."""
    @functools.wraps(func)
    def capped(*args, **kwargs):
        if (before := threads()) in (None, 1):
            return func(*args, **kwargs)
        _set(1)
        try:
            return func(*args, **kwargs)
        finally:
            _set(before)
    return capped
