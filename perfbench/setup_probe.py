"""Time one benchmark set-up in this fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is what run.py times before its first report: importing polarnorm
(and numpy) plus building the workload's inputs from the seed.
"""

import sys

from run import setup, use_source_tree

if __name__ == "__main__":
    use_source_tree()
    print(setup(sys.argv[1], int(sys.argv[2]))[2])
