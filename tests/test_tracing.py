"""The benchmark's traced run wraps wl2link entry points by name.

A renamed or moved entry point drops its per-layer metrics from the traced
result, so every name the tracer wraps must still resolve.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    # loaded by path and not registered in sys.modules: the module is only read
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize(
    "module_name,path", [(m, p) for m, p, _, _ in tracing.ENTRY_POINTS], ids=str
)
def test_entry_point_resolves(module_name, path):
    found = tracing._resolve(module_name, path)
    assert found is not None, f"{module_name}.{path} is gone"
    assert callable(found[2])
