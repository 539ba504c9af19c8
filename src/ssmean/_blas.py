"""Run the loaded OpenBLAS libraries on one thread, and load the CLI's numpy lean.

The nuisance fits are small (a few hundred rows by tens of columns), and on
fits that size a second BLAS thread costs more in hand-offs than it saves;
``--jobs`` is the way to use more cores.  The fits call numpy's OpenBLAS;
any other copy mapped into the process (scipy bundles its own, should the
caller have imported it) is set too, each through the setter and getter it
exports.  A count the user chose through ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` was read by OpenBLAS when it loaded, and is left alone.
Elsewhere than Linux no library is found, and only the CLI's load applies.

The CLI loads numpy and ``numpy.random`` through ``load_numpy_on_one_thread``,
which does two things, each under its own guard:

- OpenBLAS starts its pool of threads when numpy loads it, and an idle pool
  thread spins for a while before it sleeps.  Unless numpy is loaded or the
  user chose a count, numpy loads with OpenBLAS on one thread.
- ``numpy.random`` imports ``secrets``, whose ``hmac`` and ``hashlib`` map
  OpenSSL's ``libcrypto`` through ``_hashlib``: 3.4 MB of resident pages on
  x86-64 Linux, for hashing that ssmean never does.  Unless ``_hashlib`` or
  ``numpy.random`` is loaded, ``_hashlib`` is hidden while ``numpy.random``
  loads, so ``hashlib`` and ``hmac`` bind CPython's built-in hash modules,
  which give the same digests; a later ``import ssl`` loads OpenSSL as
  usual.  This needs every built-in module ``hashlib`` falls back to, since
  it logs each one missing to stderr; without one, OpenSSL loads as before.

A library ``import ssmean`` loads no numpy and hides nothing: the caller's
numpy keeps OpenBLAS's default count outside the estimators, and its
``numpy.random`` loads OpenSSL as before.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
import sys
from contextlib import contextmanager

_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
_SYMBOLS = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
)
# what hashlib binds when _hashlib cannot be imported; from 3.12 _sha2 holds SHA-2
_BUILTIN_HASHES = ("_md5", "_sha1", "_sha3", "_blake2",
                   *(("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")))


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
    """Import numpy and ``numpy.random`` on one OpenBLAS thread and without OpenSSL.

    Each of the two applies under its own guard, given in the module
    docstring.  ``OPENBLAS_NUM_THREADS=1`` is set only while numpy loads, and
    ``_hashlib`` hidden only while ``numpy.random`` loads, so that
    ``describe``, child processes and later imports see what the user left.
    """
    one_thread = "numpy" not in sys.modules and _env_choice() is None
    no_openssl = ("_hashlib" not in sys.modules and "numpy.random" not in sys.modules
                  and _builtin_hashes_import())
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if no_openssl:
        sys.modules["_hashlib"] = None  # the import system's "not found" sentinel
    try:
        import numpy.random  # noqa: F401
    finally:
        if one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]
        if no_openssl:
            del sys.modules["_hashlib"]


def _builtin_hashes_import() -> bool:
    """Whether ``hashlib`` without ``_hashlib`` would find every hash it defines."""
    try:
        for name in _BUILTIN_HASHES:
            importlib.import_module(name)
    except ImportError:
        return False
    return True


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
