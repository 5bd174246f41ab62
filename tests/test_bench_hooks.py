"""The benchmark's hooks into the program still find their targets.

`perfbench/` wraps functions of the program from outside `src/`, by
attribute name. A renamed or moved function would otherwise show only when
the minutes-long `perfbench/selftest.py` runs.
"""
import ast
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
