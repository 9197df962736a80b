#!/usr/bin/env python3
"""Run a fixed set of fixed-seed CLI commands and write what each printed.

For each command, OUTDIR gets <NN>-<subcommand>.json with its stdout under
--format json and <NN>-<subcommand>.exit with its exit code.  Two trees
whose outputs should be byte-identical are compared by running this script
against each tree's src/ and diffing the two directories:

    python scripts/cli_outputs.py out-head
    python scripts/cli_outputs.py --src ../base/src out-base
    diff -r out-base out-head
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = [
    "verify --pattern 1,1,1 --field real --p 1.5 --samples 5 --seed 1",
    "verify --pattern 3 --field complex --p 2 --samples 5 --seed 2",
    "estimate --extremal nonattaining --n 9",
    "estimate --extremal product --pattern 2,1 --p 1.5",
    "bounds --pattern 2,2 --field real",
    "verify --pattern 2,1 --field complex --p 1 --samples 50 --seed 3",
    "verify --pattern 2,2 --field real --p inf --d 4 --samples 5",
    "estimate --extremal real44",
    "verify --pattern 2,1 --field real --p 1.5 --samples 20 --seed 4",
    "verify --pattern 2,1 --field complex --p 3 --samples 20 --seed 4",
    "verify --pattern 2,2 --field complex --p 1 --d 3 --samples 10 --seed 6",
    "estimate --extremal nonattaining --n 49",
    "verify --pattern 1,1 --field complex --p 3 --samples 10 --seed 5",
    "estimate --extremal nonattaining --n 99",
    "verify --pattern 1,1 --field real --p 2 --samples 5 --seed 7",
    "verify --pattern 2 --field complex --p 2 --samples 5 --seed 7",
    "verify --pattern 1,1,1,1 --field complex --p 1.5 --d 2 --samples 5 --seed 8 --restarts 5",
]

RUN_CLI = "import sys; from polarnorm.cli import main; sys.exit(main(sys.argv[1:]))"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src",
                    help="the src/ directory to import polarnorm from (default: this tree's)")
    args = ap.parse_args()

    if not (args.src / "polarnorm").is_dir():
        ap.error(f"no polarnorm package under {args.src}")
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    # an installed copy of polarnorm must not shadow the tree under test
    found = subprocess.run([sys.executable, "-c", "import polarnorm; print(polarnorm.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src):
        ap.error(f"polarnorm imports from {found}, not from {src}")
    args.outdir.mkdir(parents=True, exist_ok=True)
    for index, command in enumerate(COMMANDS, 1):
        argv = command.split() + ["--format", "json"]
        done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], env=env,
                              capture_output=True, text=True)
        stem = args.outdir / f"{index:02d}-{argv[0]}"
        stem.with_suffix(".json").write_text(done.stdout)
        stem.with_suffix(".exit").write_text(f"{done.returncode}\n")
        print(f"{stem.name}: exit {done.returncode}: {command}")
        if done.returncode not in (0, 1):
            sys.stderr.write(done.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
