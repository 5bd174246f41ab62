"""Train the source checkpoint the stream workloads adapt from.

    python3 make_checkpoint.py OUT_DIR

Trains with the program's default recipe (`harness.RunConfig()`).
`workloads.source_checkpoint` runs this in a child process with the
program's `src` on PYTHONPATH and caches the result.
"""
import sys

from ttaswitch.harness import RunConfig
from ttaswitch.source import train_source

if __name__ == "__main__":
    recipe = RunConfig()
    train_source(recipe.model_config(), recipe.source_scenes, recipe.source_epochs,
                 recipe.batch_size, recipe.lr_source, recipe.seed, sys.argv[1],
                 optimizer_kind=recipe.optimizer)
