"""The public surface: every exported name resolves, every exported
class other than an exception is a frozen dataclass (one that holds an
array compares and hashes by identity), every function the
benchmark's layer trace wraps still exists and records calls on a traced
op, every argv the benchmark generates or README.md shows still parses,
every function in the package reads each of its parameters, and
importing the package leaves scipy out."""

import ast
import dataclasses
import importlib
import importlib.util
import os
import pkgutil
import random
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latgauge
from latgauge.cli import parse_args

MODULES = sorted(
    f"latgauge.{info.name}" for info in pkgutil.iter_modules(latgauge.__path__)
)


ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _load_perfbench(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize(
    "layer", _load_perfbench("layers").LAYERS, ids=lambda layer: layer["layer"]
)
def test_traced_functions_exist(layer):
    module = importlib.import_module(layer["module"])
    for name in layer["spans"] + layer["counts"]:
        assert callable(getattr(module, name, None)), f"{layer['module']}.{name}"


def test_nullspace_cache_exists():
    # the algebra workload empties this cache before each op
    from latgauge import algebra

    assert isinstance(algebra._NULLSPACE_CACHE, dict)


def _exported_classes():
    """Every exported class other than an exception, by name."""
    classes = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if isinstance(obj, type) and not issubclass(obj, BaseException):
                classes[name] = obj
    return classes


def test_exported_classes_are_frozen_dataclasses():
    # README's immutable-values rule: a value handed out by the package
    # cannot be reassigned; exceptions and warnings are not values
    hand_rolled = [
        name
        for name, cls in _exported_classes().items()
        if not (dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen)
    ]
    assert hand_rolled == []


# a maker of one value per exported dataclass with an ndarray field;
# two calls give distinct values with equal arrays
_ARRAY_VALUES = {
    "ScalarField": lambda: latgauge.ScalarField.zeros(latgauge.GridSpec(3)),
    "FourierField": lambda: latgauge.FourierField(latgauge.GridSpec(3), np.zeros((3, 3))),
    "KernelTable": lambda: latgauge.build_kernels(latgauge.GridSpec(3)),
    "ProtocolTrace": lambda: latgauge.fme.ProtocolTrace(
        np.full(4, 0.5 + 0j), dict.fromkeys(latgauge.fme.BRANCHES, 0.0), 0.0
    ),
}


def test_every_array_holder_has_a_value_maker():
    holders = [
        name
        for name, cls in _exported_classes().items()
        if dataclasses.is_dataclass(cls)
        and any("ndarray" in str(f.type) for f in dataclasses.fields(cls))
    ]
    assert sorted(holders) == sorted(_ARRAY_VALUES)


@pytest.mark.parametrize("name", sorted(_ARRAY_VALUES))
def test_array_holders_compare_by_identity_and_hash(name):
    # a generated __eq__ compares the arrays, whose truth value raises,
    # and the hash it implies hashes them, which raises too
    a, b = _ARRAY_VALUES[name](), _ARRAY_VALUES[name]()
    assert (a == b) is False and (a != b) is True and (a == a) is True
    assert isinstance(hash(a), int) and isinstance(hash(b), int)


WORKLOADS = _load_perfbench("workloads")


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_benchmark_argv_parses(name, tmp_path):
    # a CLI change that breaks this argv would fail every benchmark op
    workload = WORKLOADS.make(name)
    workload.prepare(latgauge)
    out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
    argv, _expect = workload.make_op(random.Random(11), out, cache)
    cfg = parse_args(argv)
    assert cfg.command == name.split("-")[0]
    assert cfg.cache_dir == cache


@pytest.mark.parametrize("name", WORKLOADS.NAMES)
def test_traced_op_passes_with_every_expected_layer(name, tmp_path, monkeypatch):
    # the benchmark's traced run fails on an op that fails its check and
    # on a layer that the workload expects but that records no call; as
    # there, the traced op follows an untraced warm-up op
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = _load_perfbench("tracer")
    workload = WORKLOADS.make(name)
    workload.prepare(latgauge)
    out, cache = str(tmp_path / "out"), str(tmp_path / "cache")
    rng = random.Random(11)
    assert latgauge.cli.main(workload.make_op(rng, out, cache)[0]) == 0
    argv, expect = workload.make_op(rng, out, cache)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.op = 1
        assert latgauge.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    workload.check(out, expect)
    assert tracing.silent_layers(tracer, name) == []


README_EXAMPLES = [
    line for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("latgauge ")
]


@pytest.mark.parametrize("line", README_EXAMPLES, ids=lambda line: line.split("#")[0].strip())
def test_readme_example_parses(line):
    # a flag rename or grammar change that breaks documented usage
    argv = shlex.split(line, comments=True)
    cfg = parse_args(argv[1:])
    assert cfg.command == argv[1]


def _unread_parameters(path):
    """``name(param)`` for every function or lambda in the source file
    whose body never loads one of its parameters; a ``del`` is not a
    read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        loaded = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}({param})" for param in params if param not in loaded]
    return unread


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "latgauge").glob("*.py")), ids=lambda path: path.name
)
def test_every_parameter_is_read(path):
    # a parameter no body reads is a dead knob: every caller must pass
    # it, and nothing it says reaches the result
    assert _unread_parameters(path) == []


@pytest.mark.parametrize("module_name", ["latgauge", "latgauge.cli"])
def test_import_leaves_scipy_out(module_name):
    # scipy is a test dependency only: importing it costs every run
    # about 0.4 s and 45 MiB, in a fresh process as every run is
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", f"import sys, {module_name}; print(sorted(sys.modules))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True,
    )
    modules = ast.literal_eval(done.stdout)
    assert module_name in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
