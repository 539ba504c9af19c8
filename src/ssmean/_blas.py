"""Run the loaded OpenBLAS libraries on one thread.

The nuisance fits are small (a few hundred rows by tens of columns), and on
fits that size a second BLAS thread costs more in hand-offs than it saves;
``--jobs`` is the way to use more cores.  The fits call numpy's OpenBLAS;
any other copy mapped into the process (scipy bundles its own, should the
caller have imported it) is set too, each through the setter and getter it
exports.  A count the user chose through ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` was read by OpenBLAS when it loaded, and is left alone.
Elsewhere than Linux no library is found, and only the CLI's load applies.

OpenBLAS starts its pool of threads when numpy loads it, and an idle pool
thread spins for a while before it sleeps.  The CLI therefore loads numpy
through ``load_numpy_on_one_thread``, which starts no pool thread.  A library
``import ssmean`` loads no numpy, so the caller's numpy keeps OpenBLAS's
default count outside the estimators.
"""

from __future__ import annotations

import ctypes
import functools
import os
import sys
from contextlib import contextmanager

_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)


@functools.cache
def _openblas_threads() -> tuple[tuple, ...]:
    """(setter, getter) of each OpenBLAS mapped into this process.

    Found once per process, since reading the memory map on every estimator
    call would cost milliseconds: numpy is loaded first, so its OpenBLAS,
    the one the fits call, is always among them.  A copy loaded later
    (scipy's, say) is not seen.
    """
    if not sys.platform.startswith("linux"):
        return ()
    import numpy  # noqa: F401  (maps the OpenBLAS the fits call)
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
        # address, permissions, offset, device, inode, then the path: only a path can
        # hold the name, so only its lines are split
        paths = sorted({line.split(maxsplit=5)[5].rstrip("\n") for line in maps
                        if "openblas" in line})
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # unmapped since, or a non-library file
            continue
        for set_name, get_name in _SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                found.append((setter, getter))
                break
    return tuple(found)


def _env_choice() -> str | None:
    """The variable OpenBLAS took its thread count from, if one is set."""
    return next((name for name in _ENV_VARS if os.environ.get(name)), None)


def load_numpy_on_one_thread() -> None:
    """Import numpy with OpenBLAS started on one thread, unless the user chose a count.

    ``OPENBLAS_NUM_THREADS=1`` is set only while numpy loads, so that
    ``describe`` and child processes see the environment as the user left
    it.  Once numpy is loaded, its OpenBLAS has started, and nothing is done.
    """
    if "numpy" in sys.modules or _env_choice() is not None:
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]


def describe() -> str:
    """'BLAS threads: N', naming the variable the count came from, if any."""
    counts = sorted({getter() for _, getter in _openblas_threads()})
    text = "BLAS threads: " + ("/".join(map(str, counts)) or "unknown")
    source = _env_choice()
    return f"{text}, from {source}" if source else text


def set_one_thread() -> None:
    """Set every loaded OpenBLAS to one thread, unless the environment chose.

    Also the replication pool's initializer, so that workers run on one
    thread under any start method.
    """
    if _env_choice() is None:
        for setter, _ in _openblas_threads():
            setter(1)


@contextmanager
def one_thread():
    """Run the block as after ``set_one_thread``, then restore the old counts."""
    previous = [(setter, getter()) for setter, getter in _openblas_threads()]
    set_one_thread()
    try:
        yield
    finally:
        for setter, count in previous:
            setter(count)
