"""Environment record written beside every result file.

Everything here is read without leaving the checkout: the commit from the
checkout's own `.git` (absent in an exported tree), the rest from the
interpreter, the loaded libraries and libc's `sysconf`.
"""

from __future__ import annotations

import ctypes
import os
import sys

import numpy as np
import scipy

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# glibc sysconf names that Python's os.sysconf_names does not list
_SC_LEVEL2_CACHE_SIZE = 191
_SC_LEVEL3_CACHE_SIZE = 194


def git_commit(root: str) -> str | None:
    """HEAD of the checkout at root, or None when it is not a git tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def _blas_name() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return None


def _cache_bytes(name: int) -> int | None:
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    libc.sysconf.restype = ctypes.c_long
    value = libc.sysconf(name)
    return int(value) if value > 0 else None


def environment(root: str, seed: int) -> dict:
    return {
        "git_commit": git_commit(root),
        "seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(_SC_LEVEL2_CACHE_SIZE),
        "l3_bytes": _cache_bytes(_SC_LEVEL3_CACHE_SIZE),
    }
