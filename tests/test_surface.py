"""The public surface: every exported name resolves, and every function
the benchmark's layer trace wraps still exists."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import latgauge

MODULES = sorted(
    f"latgauge.{info.name}" for info in pkgutil.iter_modules(latgauge.__path__)
)


def _load_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("layer", _load_layers(), ids=lambda layer: layer["layer"])
def test_traced_functions_exist(layer):
    module = importlib.import_module(layer["module"])
    for name in layer["spans"] + layer["counts"]:
        assert callable(getattr(module, name, None)), f"{layer['module']}.{name}"


def test_nullspace_cache_exists():
    # the algebra workload empties this cache before each op
    from latgauge import algebra

    assert isinstance(algebra._NULLSPACE_CACHE, dict)
