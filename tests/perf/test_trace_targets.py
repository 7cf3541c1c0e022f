"""The traced benchmark's patch targets still exist.

``perfbench/tracing.py`` wraps public functions of every layer by name;
a refactor that renames or removes one of them breaks ``perfbench/run.py
--trace`` without failing any other test.  Installing and uninstalling
the tracer here fails fast instead.
"""

import importlib.util
from pathlib import Path

from repro.index.gemini import WarpingIndex

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patch_target_is_bound():
    tracer = _load_tracing().Tracer()
    original = WarpingIndex.knn_query
    try:
        tracer.install()
        assert WarpingIndex.knn_query is not original
    finally:
        tracer.uninstall()
    assert WarpingIndex.knn_query is original
