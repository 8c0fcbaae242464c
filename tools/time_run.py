"""Time one in-process `vqspectral run` of a shipped config at a given horizon.

    PYTHONPATH=src python tools/time_run.py configs/rd2d_dirichlet.cfg --epochs 300

Parses the config, sets its epochs and evaluates once, at the last epoch,
then times `cli.cmd_run` alone: setup, training and writing the
artifacts, not the imports or the parse. Prints one JSON line with the wall
seconds and the best test `rel_l2_mean` from `error_table.csv`, so that a
timing always comes with the accuracy it reached. Run each side of a
before/after pair in its own fresh process, with that side's `src/` first on
PYTHONPATH.
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import tempfile
import time
from pathlib import Path

from vqspectral import cli
from vqspectral.config import parse_config


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("config")
    parser.add_argument("--epochs", type=int, default=300)
    args = parser.parse_args(argv)
    cfg = parse_config(args.config)
    cfg = dataclasses.replace(cfg, epochs=args.epochs, eval_every=args.epochs)
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.cmd_run(cfg, Path(out))
        wall = time.perf_counter() - start
        with open(Path(out) / "error_table.csv", newline="") as fh:
            rel_l2 = float(next(csv.DictReader(fh))["rel_l2_mean"])
    print(json.dumps({"config": args.config, "epochs": cfg.epochs, "exit": code,
                      "wall_s": round(wall, 4), "rel_l2_mean": rel_l2}))


if __name__ == "__main__":
    main()
