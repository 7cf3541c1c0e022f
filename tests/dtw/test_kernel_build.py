"""Build, cache and fallback of the compiled DTW kernel.

The C kernel is compiled on first import and cached per user, so these
tests drive fresh interpreters (``subprocess``) against throw-away
cache directories: a host without a compiler, two concurrent cold
imports, and a damaged cache entry.  The last group covers
configurations saved where the compiled kernel existed and loaded
where it does not.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dtw import kernels
from repro.index.gemini import WarpingIndex
from repro.music import generate_corpus, segment_corpus
from repro.persistence import load_index, save_index
from repro.qbh.system import QueryByHummingSystem
from repro.shard import EngineSpec

SRC = str(Path(repro.__file__).resolve().parents[1])
HAS_COMPILER = (shutil.which("cc") or shutil.which("gcc")) is not None

needs_compiler = pytest.mark.skipif(not HAS_COMPILER,
                                    reason="no C compiler on PATH")

QUERY_SCRIPT = """
import json
import numpy as np
from repro.dtw.kernels import DEFAULT_BACKEND, available_backends
from repro.music import generate_corpus, segment_corpus
from repro.qbh.system import QueryByHummingSystem

corpus = segment_corpus(generate_corpus(4, seed=5), per_song=10, seed=5)
system = QueryByHummingSystem(corpus, delta=0.1)
hum = np.asarray(corpus[7].to_time_series(8), dtype=float) + 0.3
hits, _ = system.query(hum, 5)
print(json.dumps({"backends": list(available_backends()),
                  "default": DEFAULT_BACKEND, "hits": hits}))
"""

IMPORT_SCRIPT = """
import numpy as np
from repro.dtw.kernels import available_backends, get_kernel

assert "compiled" in available_backends(), available_backends()
# y is x shifted by one step: warping leaves only the two ends, 1 each.
print(get_kernel("compiled").cost(np.arange(6.0), np.arange(6.0) + 1.0, 2))
"""


def _env(cache: Path, path: str | None = None) -> dict:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    if path is not None:
        env["PATH"] = path
    return env


def _run(script: str, env: dict) -> str:
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _cache_files(cache: Path) -> list[str]:
    return sorted(p.name for p in (cache / "repro").iterdir())


def test_kernel_fallback_without_a_compiler(tmp_path):
    """No compiler and a cold cache: no ``"compiled"``, the NumPy
    default, and the same answers as the compiled backend gives."""
    empty_bin = tmp_path / "bin"
    empty_bin.mkdir()
    out = json.loads(_run(QUERY_SCRIPT,
                          _env(tmp_path / "cache", path=str(empty_bin))))
    assert "compiled" not in out["backends"]
    assert out["default"] == "vectorized"

    corpus = segment_corpus(generate_corpus(4, seed=5), per_song=10, seed=5)
    backend = "compiled" if "compiled" in kernels.available_backends() \
        else "vectorized"
    system = QueryByHummingSystem(corpus, delta=0.1, dtw_backend=backend)
    hum = np.asarray(corpus[7].to_time_series(8), dtype=float) + 0.3
    hits, _ = system.query(hum, 5)
    assert [tuple(pair) for pair in out["hits"]] == hits


@needs_compiler
def test_kernel_concurrent_cold_imports_both_load(tmp_path):
    env = _env(tmp_path / "cache")
    procs = [
        subprocess.Popen([sys.executable, "-c", IMPORT_SCRIPT], env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
        for _ in range(2)
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (stdout, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stderr
        assert float(stdout) == 2.0
    # One library and its digest; no temporary build left behind.
    names = _cache_files(tmp_path / "cache")
    assert len(names) == 2
    assert {Path(name).suffix for name in names} == {".so", ".sha256"}
    # A warm import loads the cached library.
    assert float(_run(IMPORT_SCRIPT, env)) == 2.0


@needs_compiler
def test_kernel_truncated_cache_entry_is_rebuilt(tmp_path):
    env = _env(tmp_path / "cache")
    _run(IMPORT_SCRIPT, env)
    (lib,) = (tmp_path / "cache" / "repro").glob("*.so")
    whole = lib.stat().st_size
    lib.write_bytes(lib.read_bytes()[: whole // 2])

    assert float(_run(IMPORT_SCRIPT, env)) == 2.0
    assert lib.stat().st_size == whole
    assert len(_cache_files(tmp_path / "cache")) == 2


# ----------------------------------------------------------------------
# saved configurations naming a backend this host lacks
# ----------------------------------------------------------------------


@pytest.fixture
def without_compiled(monkeypatch):
    """Registry as on a host where the compiled kernel did not build;
    yields a function that registers a stand-in under the name."""
    monkeypatch.delitem(kernels._REGISTRY, "compiled", raising=False)
    monkeypatch.setattr(kernels, "DEFAULT_BACKEND", "vectorized")

    def stand_in():
        monkeypatch.setitem(kernels._REGISTRY, "compiled",
                            kernels.get_kernel("vectorized"))

    return stand_in


def test_kernel_saved_index_loads_without_its_backend(
    tmp_path, without_compiled, monkeypatch
):
    corpus = segment_corpus(generate_corpus(3, seed=9), per_song=8, seed=9)
    series = [m.to_time_series(8) for m in corpus]
    without_compiled()
    index = WarpingIndex(series, delta=0.1, dtw_backend="compiled")
    want, _ = index.knn_query(series[2], 3)
    path = tmp_path / "index.npz"
    save_index(index, path)
    monkeypatch.delitem(kernels._REGISTRY, "compiled")

    with pytest.warns(RuntimeWarning, match="'compiled' is not available"):
        loaded = load_index(path)
    assert loaded.dtw_backend == "vectorized"
    assert loaded.knn_query(series[2], 3)[0] == want


def test_kernel_engine_spec_builds_without_its_backend(
    tmp_path, without_compiled
):
    data = np.ascontiguousarray(np.cumsum(
        np.random.default_rng(3).normal(size=(12, 32)), axis=1))
    path = tmp_path / "corpus.f64"
    data.tofile(path)
    spec = EngineSpec(data_path=str(path), dtype="float64", rows=12,
                      cols=32, row_start=0, row_stop=12, shard=0, band=3,
                      ids=tuple(range(12)), dtw_backend="compiled")
    with pytest.warns(RuntimeWarning, match="'compiled' is not available"):
        engine = spec.build()
    assert engine.dtw_backend == "vectorized"
    # A backend that is present builds silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dataclasses.replace(spec, dtw_backend="scalar").build()
