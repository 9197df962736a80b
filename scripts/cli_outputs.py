#!/usr/bin/env python3
"""Run a fixed set of fixed-seed CLI commands and write what each printed.

The commands cover all five subcommands, every --format, the product
instance on both sides of its conjugate exponent and as a single block,
the real sup-norm coordinate moves of a two-block pattern, and five
usage errors: a missing --pattern, a source flag its source does not read,
a flag its subcommand does not take, an unknown argument before the
subcommand, and a subcommand's flag before the subcommand.  A command
that names its own --format keeps it; every other runs under --format
json.  Every command runs from the root of this script's
tree, so a form file it names, such as scripts/complex_cubic.json, is
this tree's file and its echoed path is the same whichever src/ runs.
For each command, OUTDIR gets <NN>-<subcommand>.<format> with its stdout
and <NN>-<subcommand>.exit with its exit code, and a usage error (exit 2)
also <NN>-<subcommand>.err with its stderr, so the usage text is compared
too; every command runs with COLUMNS=80, argparse's wrap width.  Two trees
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
    "bounds --pattern 2,1 --field complex --p 1",
    "table --chebyshev --m 5",
    "table --markov --m 4 --k 2 --field real",
    "table --markov --m 4 --k 2 --field complex --p 1.5",
    "table --asymptotic --n 2 --m-max 40 --field complex",
    "extremal --extremal real44",
    "extremal --extremal product --pattern 2,1 --p 1.5",
    "verify --field real",
    "bounds --pattern 2,1 --field complex --p 1 --format csv",
    "bounds --pattern 2,1 --field complex --p 1 --format table",
    "verify --pattern 2,1 --field real --p 1.5 --samples 5 --seed 4 --format csv",
    "verify --pattern 2,1 --field real --p 1.5 --samples 5 --seed 4 --format table",
    "estimate --extremal product --pattern 2,1 --p 1.5 --format csv",
    "estimate --extremal product --pattern 2,1 --p 1.5 --format table",
    "estimate --form scripts/complex_cubic.json --pattern 2,1 --p 1",
    "estimate --form scripts/complex_cubic.json --pattern 2,1 --p 1 --format csv",
    "estimate --extremal nonattaining --n 9 --p 1",
    "bounds --pattern 2,1 --restarts 5",
    "--foo bounds --pattern 2,1",
    "--seed 1 verify --pattern 2 --samples 1",
    "estimate --extremal product --pattern 2,1 --p 2",
    "verify --pattern 2,1 --field complex --p inf --d 3 --samples 10 --seed 9",
    "verify --pattern 3,1 --field real --p inf --d 3 --samples 5 --seed 10",
    "estimate --extremal product --pattern 3 --p 1.5",
]
SUBCOMMANDS = ("bounds", "estimate", "verify", "table", "extremal")

RUN_CLI = "import sys; from polarnorm.cli import main; sys.exit(main(sys.argv[1:]))"
ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="the src/ directory to import polarnorm from (default: this tree's)")
    args = ap.parse_args()

    if not (args.src / "polarnorm").is_dir():
        ap.error(f"no polarnorm package under {args.src}")
    src = args.src.resolve()
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    # an installed copy of polarnorm must not shadow the tree under test
    found = subprocess.run([sys.executable, "-c", "import polarnorm; print(polarnorm.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src):
        ap.error(f"polarnorm imports from {found}, not from {src}")
    args.outdir.mkdir(parents=True, exist_ok=True)
    for index, command in enumerate(COMMANDS, 1):
        argv = command.split()
        if "--format" not in argv:
            argv += ["--format", "json"]
        fmt = argv[argv.index("--format") + 1]
        done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], env=env, cwd=ROOT,
                              capture_output=True, text=True)
        subcommand = next(arg for arg in argv if arg in SUBCOMMANDS)
        stem = args.outdir / f"{index:02d}-{subcommand}"
        stem.with_suffix("." + fmt).write_text(done.stdout)
        stem.with_suffix(".exit").write_text(f"{done.returncode}\n")
        if done.returncode == 2:
            stem.with_suffix(".err").write_text(done.stderr)
        print(f"{stem.name}: exit {done.returncode}: {command}")
        if done.returncode not in (0, 1):
            sys.stderr.write(done.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
