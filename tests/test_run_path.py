"""How the package imports.

The package depends on numpy alone. GELU's erf and the rain blur are numpy
code, and no module imports scipy, so a source step and a hybrid run must
leave `sys.modules` free of it. That check needs a fresh interpreter,
because the tests import scipy as a reference.

Every module imports its siblings relatively, so two copies of the tree
can load side by side under different package names in one process.

`__init__.py` is its docstring alone: callers import the module that
defines a name, so a rename edits no second list.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
from pathlib import Path

import ttaswitch
from ttaswitch.harness import RunConfig, run_experiment
from ttaswitch.source import train_source

out = Path(sys.argv[1])
cfg = RunConfig(image_size=8, patch_size=4, embed_dim=16, depth=2, heads=2, num_classes=3,
                adapter_dim=6, domains=("rain", "night"), per_domain=2, rounds=1,
                source_scenes=4, source_epochs=1, batch_size=4, seed=13, mode="hybrid")
ckpt = train_source(cfg.model_config(), cfg.source_scenes, cfg.source_epochs,
                    cfg.batch_size, cfg.lr_source, cfg.seed, out / "source")
result = run_experiment(cfg, ckpt, out / "hybrid")
assert result.ft_count + result.et_count == 4, result
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_source_step_and_hybrid_run_import_no_scipy(tmp_path):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) if not path else str(SRC) + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def _package_nodes():
    """(file name, node) of each AST node in the package, module by module."""
    paths = sorted((SRC / "ttaswitch").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def _absolute_imports():
    """(module:line, name) of each absolute import in the package."""
    for module, node in _package_nodes():
        if isinstance(node, ast.Import):
            yield from ((f"{module}:{node.lineno}", alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield f"{module}:{node.lineno}", node.module


def _importing(package: str) -> list[str]:
    return [f"{where} {name}" for where, name in _absolute_imports()
            if name.split(".")[0] == package]


def test_package_imports_itself_only_relatively():
    assert _importing("ttaswitch") == []


def test_package_imports_no_scipy():
    assert _importing("scipy") == []


def test_package_init_is_its_docstring_alone():
    stmts = [node for module, node in _package_nodes()
             if module == "__init__.py" and isinstance(node, ast.stmt)]
    assert [type(node).__name__ for node in stmts] == ["Expr"], "re-exports in __init__.py"
    assert isinstance(stmts[0].value, ast.Constant) and isinstance(stmts[0].value.value, str)


def test_only_masked_backward_records_a_training_step():
    # Both stages train through model.masked_backward; a tape made, activated
    # or backpropagated elsewhere in the package would fork that step again.
    step, calls = range(0), []
    for module, node in _package_nodes():   # breadth first: a def before its body
        if isinstance(node, ast.FunctionDef) and node.name == "masked_backward":
            step = range(node.lineno, node.end_lineno + 1)
        elif isinstance(node, ast.Call) and module != "autodiff.py":
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("Tape", "recording", "backward"):
                calls.append((module == "model.py" and node.lineno in step,
                              f"{module}:{node.lineno} {name}"))
    assert [where for inside, where in calls if not inside] == []
    assert len(calls) == 3   # masked_backward's own Tape, recording and backward
