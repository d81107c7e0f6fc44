"""The public surface: every exported name resolves, every exported
class other than an exception is a frozen dataclass, every function the
benchmark's layer trace wraps still exists and records calls on a traced
op, every argv the benchmark generates or README.md shows still parses,
and every function in the package reads each of its parameters."""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import random
import shlex
from pathlib import Path

import pytest

import latgauge
from latgauge.cli import parse_args

MODULES = sorted(
    f"latgauge.{info.name}" for info in pkgutil.iter_modules(latgauge.__path__)
)


ROOT = Path(__file__).resolve().parents[1]


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


def test_exported_classes_are_frozen_dataclasses():
    # README's immutable-values rule: a value handed out by the package
    # cannot be reassigned; exceptions and warnings are not values
    hand_rolled = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if not isinstance(obj, type) or issubclass(obj, BaseException):
                continue
            if not (dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen):
                hand_rolled.append(f"{module_name}.{name}")
    assert hand_rolled == []


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
