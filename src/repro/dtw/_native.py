"""Build, cache and load the C banded-DTW kernel (``_ldtw.c``).

The library is compiled with the system C compiler the first time it
is needed and cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``), named by a hash of the source, the flags and the
platform, so an edited source or another architecture never picks up
a stale build.  The flags keep IEEE semantics — no ``-ffast-math``, no
``-march=native`` and no FMA contraction — which is what makes the
kernel bitwise equal to the NumPy wavefront.

A build is compiled to a temporary file, loaded from there and only
then renamed into place, with a digest file next to it; a cached
library is trusted only when its digest matches.  Concurrent first
imports (shard workers, parallel test runs) therefore each end with a
complete library, and a truncated or corrupted cache entry is rebuilt.
Every failure — no compiler, a failed build, an unwritable cache, a
failed load — returns ``None`` and the caller falls back to NumPy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

__all__ = ["load_ldtw"]

_SOURCE = Path(__file__).with_name("_ldtw.c")
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _bind(path: Path):
    """Load the library at *path* and declare its one entry point."""
    lib = ctypes.CDLL(str(path))
    fn = lib.repro_ldtw_batch
    fn.argtypes = [
        ctypes.c_void_p, ctypes.c_longlong,   # x, n
        ctypes.c_void_p, ctypes.c_longlong,   # candidates, count
        ctypes.c_longlong, ctypes.c_longlong,  # m, k
        ctypes.c_double, ctypes.c_void_p,     # bound, bounds (or NULL)
        ctypes.c_int, ctypes.c_void_p,        # manhattan, out
    ]
    fn.restype = ctypes.c_longlong
    # The handle must outlive every call through fn.
    fn.library = lib
    return fn


def _build(cache: Path, target: Path, stamp: Path):
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    cache.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=cache, prefix=".build-",
                                    suffix=".so")
    os.close(fd)
    tmp = Path(tmp_name)
    try:
        done = subprocess.run(
            [compiler, *_FLAGS, "-o", str(tmp), str(_SOURCE)],
            stdin=subprocess.DEVNULL, capture_output=True, timeout=120,
        )
        if done.returncode != 0:
            return None
        fn = _bind(tmp)
        digest = _digest(tmp)
        os.replace(tmp, target)
        with tempfile.NamedTemporaryFile(
            "w", dir=cache, prefix=".stamp-", delete=False
        ) as handle:
            handle.write(digest)
        os.replace(handle.name, stamp)
        return fn
    finally:
        tmp.unlink(missing_ok=True)


def load_ldtw():
    """The ``repro_ldtw_batch`` function from a cached or fresh build,
    or ``None`` when no working library can be had on this host."""
    try:
        source = _SOURCE.read_bytes()
        key = hashlib.sha256(b"\0".join([
            source, " ".join(_FLAGS).encode(),
            sys.platform.encode(), platform.machine().encode(),
        ])).hexdigest()[:16]
        cache = _cache_dir()
        target = cache / f"ldtw-{key}.so"
        stamp = cache / f"ldtw-{key}.sha256"
        try:
            if stamp.read_text().strip() == _digest(target):
                return _bind(target)
        except OSError:
            pass  # missing, unreadable or unloadable: build afresh
        return _build(cache, target, stamp)
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
