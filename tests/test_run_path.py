"""The default run path imports no scipy.

GELU's erf and the rain blur are numpy code, and `model` imports
`ndimage` only for variable-resolution inference, so a source step and a
hybrid run must leave `sys.modules` free of scipy. A fresh interpreter is
needed: other tests import scipy as a reference.
"""
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
