"""The benchmark's hooks into the program still find their targets.

`perfbench/` wraps functions of the program from outside `src/`, by
attribute name. A renamed or moved function would otherwise show only when
the minutes-long `perfbench/selftest.py` runs.
"""
import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def test_tracer_restores_every_attribute_it_patches(bench):
    tracing, _ = bench
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._undo)
    try:
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    names = {(owner.__name__, attr) for owner, attr, _ in patched}
    assert len(names) == len(patched)
    assert {("ttaswitch.harness", "load_checkpoint"),
            ("ttaswitch.source", "save_checkpoint")} <= names
    assert {("ttaswitch.model", op) for op in tracing.MODEL_OPS} <= names


def test_workload_patch_targets_exist(bench):
    _, workloads = bench
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    targets = {(node.elts[0].id, node.elts[1].value) for node in ast.walk(tree)
               if isinstance(node, ast.Tuple) and len(node.elts) == 3
               and isinstance(node.elts[0], ast.Name)
               and isinstance(node.elts[1], ast.Constant)
               and isinstance(node.elts[1].value, str)}
    assert ("source", "save_checkpoint") in targets
    for owner, attr in targets:
        assert attr in vars(getattr(workloads, owner)), f"{owner}.{attr}"


_OUTSIDE = object()   # a name the package does not provide


def _package_calls(path: Path):
    """(called name, target, call node) for each call into `ttaswitch` in `path`.

    A name is the package's when the file imports it with `from ttaswitch...
    import`; a call through an attribute chain on such a name resolves along
    the chain, and an attribute that is missing gives the target None.
    """
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ttaswitch":
            importlib.import_module(node.module)
            for alias in node.names:   # a submodule is imported on demand
                bound[alias.asname or alias.name] = (
                    getattr(sys.modules[node.module], alias.name, None)
                    or importlib.import_module(f"{node.module}.{alias.name}"))

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id, _OUTSIDE)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            return owner if owner in (_OUTSIDE, None) else getattr(owner, node.attr, None)
        return _OUTSIDE

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (target := resolve(node.func)) is not _OUTSIDE:
            yield ast.unparse(node.func), target, node


def test_perfbench_calls_bind_to_the_package_signatures():
    # A renamed keyword or a dropped field would otherwise break the
    # benchmark only when it runs.
    checked, broken = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        for name, target, call in _package_calls(path):
            where = f"{path.name}:{call.lineno} {name}"
            if target is None:
                broken.append(f"{where}: no such name")
            elif not any(isinstance(a, ast.Starred) for a in call.args) and \
                    all(k.arg is not None for k in call.keywords):   # skip *args, **kwargs
                try:
                    inspect.signature(target).bind(*call.args,
                                                   **{k.arg: None for k in call.keywords})
                except TypeError as e:
                    broken.append(f"{where}: {e}")
                checked.add(name)
    assert not broken, broken
    assert {"source.source_step", "source.SourceBatch", "source.train_source",
            "train_source", "Optimizer", "harness.run_experiment"} <= checked, checked
