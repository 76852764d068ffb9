"""Thread control of the loaded OpenBLAS, through ctypes.

A BLAS that spreads a dense product over several threads sums it in
another order than on one, so a command's numbers would depend on the
thread count.  :func:`find_openblas` finds the OpenBLAS that numpy loaded by
walking the shared objects of this process with ``dl_iterate_phdr`` (as
threadpoolctl does) and binds its thread-count entry points, so that a
command can hold it to one thread while it runs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import os
from dataclasses import dataclass
from typing import Callable

#: Symbol prefixes and suffixes of the OpenBLAS builds: plain, numpy's own
#: scipy-openblas, and builds with 64-bit integers.
_PREFIXES = ("openblas", "scipy_openblas")
_SUFFIXES = ("", "64_", "_64")


class _PhdrInfo(ctypes.Structure):
    """The two leading fields of glibc's ``struct dl_phdr_info``, all that
    :func:`_loaded_libraries` reads through the pointer it is given."""

    _fields_ = [("addr", ctypes.c_void_p), ("name", ctypes.c_char_p)]


_VISIT = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.POINTER(_PhdrInfo), ctypes.c_size_t,
                          ctypes.c_void_p)


def _loaded_libraries() -> list[str]:
    """Paths of the shared objects loaded into this process; empty where the
    C library has no ``dl_iterate_phdr``."""
    try:
        iterate = ctypes.CDLL(None).dl_iterate_phdr
    except (AttributeError, OSError, TypeError):
        return []
    iterate.argtypes = [_VISIT, ctypes.c_void_p]
    iterate.restype = ctypes.c_int
    paths = []

    def visit(info, _size, _data) -> int:
        if info.contents.name:
            paths.append(os.fsdecode(info.contents.name))
        return 0

    callback = _VISIT(visit)
    iterate(callback, None)
    return paths


@dataclass(frozen=True)
class BlasThreads:
    """The thread-count entry points of one loaded OpenBLAS."""

    get: Callable[[], int]
    set: Callable[[int], None]

    @contextlib.contextmanager
    def held_at_one(self):
        """Hold the BLAS to one thread within the block; the count it had
        before comes back on exit, also when the block raises."""
        before = self.get()
        self.set(1)
        try:
            yield
        finally:
            self.set(before)


@functools.cache
def find_openblas() -> BlasThreads | None:
    """The thread control of the OpenBLAS loaded into this process, or None
    when none is loaded or its entry points are not found; looked up once."""
    for path in _loaded_libraries():
        if "openblas" not in os.path.basename(path):
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for prefix, suffix in itertools.product(_PREFIXES, _SUFFIXES):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return BlasThreads(get, put)
    return None
