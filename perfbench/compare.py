"""Compare two sets of untraced benchmark runs, one row per workload and metric.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the records run.py writes to perfbench/results/.
For every end-to-end metric of BENCHMARK.json the row gives each side's
median over its runs, the quartile spread as a share of the median, and
the change, signed so that positive is worse; "REGRESSION" marks a change
beyond the metric's bound.  Machine facts that differ between the sides
are flagged first: the BLAS thread setting alone moves timings by more
than any bound.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMPARED_FACTS = ("nproc", "cpu", "python", "numpy", "blas", "blas_threads", "blas_thread_env")


def load(directory: Path) -> dict:
    runs: dict = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (q3 - q1) / median


def main(before_dir: str, after_dir: str) -> int:
    metrics = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    before, after = load(Path(before_dir)), load(Path(after_dir))
    for fact in COMPARED_FACTS:
        sides = [{json.dumps(r["machine"].get(fact), sort_keys=True) for runs in side.values()
                  for r in runs} for side in (before, after)]
        if sides[0] != sides[1] or len(sides[0]) > 1:
            print(f"WARNING: machine fact {fact!r} differs: {sorted(sides[0])} vs {sorted(sides[1])}")
    print(f"{'workload':26} {'metric':14} {'before':>11} {'spread':>7} {'after':>11} "
          f"{'spread':>7} {'change':>8}")
    for workload in sorted(set(before) & set(after)):
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in before[workload]]
            b = [r["metrics"][name]["value"] for r in after[workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb / ma - 1.0) if metric["better"] == "lower" else (ma / mb - 1.0)
            verdict = "REGRESSION" if change > metric["bound"] else ""
            print(f"{workload:26} {name:14} {ma:11.5g} {spread(a):7.3f} {mb:11.5g} "
                  f"{spread(b):7.3f} {change:+8.3f} {verdict}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
