"""polarnorm benchmark: one workload as a closed loop, one JSON result line.

    python3 perfbench/run.py --workload verify-c21-l1 --seed 3 --seconds 50 --trace 0

Run from the root of a source tree; the package is imported from ./src.
Reports run one at a time for about --seconds: the next starts only while
the median report so far would still end in time, and an untraced run
makes at least MIN_REPORTS reports.  Each report's poly and mixed values
are checked against reference.json (recorded at the seed commit) and the
report against its own pass check.

--trace 0 prints the end-to-end metrics: throughput, median report time,
set-up time and peak memory.  --trace 1 runs every report twice, untraced
and traced, and prints the per-layer metrics from the traced spans plus
the tracing overhead.  Every metric is printed by name with its unit; the
last line is the JSON result.  A full record, machine facts included,
goes to perfbench/results/, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("verify-c21-l1", "verify-r22-linf", "estimate-nonattaining-49")
SETUP_PROBES = 8  # extra set-ups, each in a fresh interpreter
# An untraced run makes at least this many reports, even past --seconds:
# one estimate report takes 17-27 s on a shared 2-vCPU VM, and its time
# moves by up to 20% from one report to the next with the host's load.
MIN_REPORTS = 2
CAL_SHARE = 0.02  # calibration time, as a share of the case before it


def use_source_tree() -> None:
    """Import polarnorm from this tree's src/, never from an installed copy."""
    if not (SRC / "polarnorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no polarnorm sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int):
    """Import polarnorm and build the workload's inputs: (spec, cases, seconds)."""
    start = time.perf_counter()
    import workloads

    spec = workloads.WORKLOADS[workload]
    cases = spec.cases(workloads.input_seed(seed))
    return spec, cases, time.perf_counter() - start


def probe_setup_seconds(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.split()[-1])


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    """Threads the loaded OpenBLAS uses, or None when it cannot be asked."""
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def machine_facts(seed: int, input_seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "commit": git_commit(),
        "seed": seed,
        "input_seed": input_seed,
    }


# ---------------------------------------------------------------------------
# the closed loop


class Checker:
    """Checks each outcome: its own pass flag, then the reference values."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = self.failed = self.values = self.short = 0
        self.records: list[dict] = []

    def __call__(self, case, outcome, seconds: float, traced: bool) -> None:
        import workloads

        self.attempted += 1
        record = {"case": case.key, "seconds": seconds, "traced": traced}
        if outcome is None or not outcome.passed:
            self.failed += 1
            record["failed"] = True
        if outcome is not None:
            ref = self.reference[case.key]
            self.values += len(workloads.VALUES)
            self.short += workloads.shortfalls(outcome, ref)
            record.update(poly=outcome.poly, mixed=outcome.mixed, ratio=outcome.ratio)
        self.records.append(record)


def timed_report(spec, case):
    start = time.perf_counter()
    try:
        outcome = spec.report(case)
    except Exception:  # a failed report is counted, and the loop goes on
        traceback.print_exc(file=sys.stderr)
        outcome = None
    return outcome, time.perf_counter() - start


class Calibration:
    """A fixed piece of interpreter and small-array numpy work, shaped like
    one ascent step on a tiny complex form but sharing no code with
    polarnorm.  Calling it gives the machine's speed at that moment, in
    which report times are expressed: 1 cal is one run of the kernel."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20261017)
        self._np = np
        self._points = rng.standard_normal((24, 3)) + 1j * rng.standard_normal((24, 3))
        self._exponents = rng.integers(0, 3, (10, 3))
        self._values = rng.standard_normal(10) + 1j * rng.standard_normal(10)

    def _once(self) -> float:
        np, acc = self._np, 0.0
        start = time.perf_counter()
        for i in range(400):
            vals = np.prod(self._points[:, None, :] ** self._exponents[None], axis=2) @ self._values
            acc += abs(complex(vals[i % 24])) + 0.5 * i
        return time.perf_counter() - start

    def __call__(self, budget: float) -> float:
        """Median seconds of one kernel run, over the runs that fit in
        `budget` seconds (at least one)."""
        runs, start = [], time.perf_counter()
        while not runs or time.perf_counter() - start < budget:
            runs.append(self._once())
        return statistics.median(runs)


def closed_loop(spec, cases, seconds: float, check: Checker, tracer=None, min_cases: int = 1):
    """One report at a time: after the first `min_cases`, the next starts
    only while it is expected (by the median so far) to end within
    `seconds`.  With a tracer, each case runs untraced and traced, in
    alternating order.  The calibration runs before the first case and
    after each, for 2% of the case's time.  Returns the untraced report
    times, the same in cal (each divided by the mean of the calibrations
    before and after it), and the traced report times."""
    calibrate = Calibration()
    plain, in_cal, traced, per_case = [], [], [], []
    cal = [calibrate(CAL_SHARE)]
    start = time.perf_counter()
    index = 0
    while (len(per_case) < min_cases
           or time.perf_counter() - start + statistics.median(per_case) <= seconds):
        case = cases[index % len(cases)]
        modes = [False] if tracer is None else [False, True][:: 1 if index % 2 == 0 else -1]
        case_start = time.perf_counter()
        for with_trace in modes:
            if with_trace:
                tracer.report = index
                tracer.install()
            try:
                outcome, took = timed_report(spec, case)
            finally:
                if with_trace:
                    tracer.uninstall()
            (traced if with_trace else plain).append(took)
            check(case, outcome, took, with_trace)
        case_time = time.perf_counter() - case_start
        cal.append(calibrate(CAL_SHARE * case_time))
        in_cal.append(plain[-1] / ((cal[-2] + cal[-1]) / 2))
        per_case.append(time.perf_counter() - case_start)
        index += 1
    return plain, in_cal, traced


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(in_cal, setup_samples) -> dict:
    return {
        "reports_per_kcal": (1000.0 * len(in_cal) / sum(in_cal), "1/kcal"),
        "report_p50_cal": (statistics.median(in_cal), "cal"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(table, plain, traced) -> dict:
    def total(names, key):
        return sum(table[n][key] for n in names)

    ev, grad = table["forms.eval_batch"], table["forms.eval_grad_batch"]
    forms_self = ev["self_s"] + grad["self_s"]
    metrics = {
        "forms.eval_batch.calls": (ev["calls"], "count"),
        "forms.eval_batch.points": (ev["points"], "count"),
        "forms.eval_batch.bulk_points": (ev["bulk_points"], "count"),
        "forms.eval_batch.self_s": (ev["self_s"], "s"),
        "forms.eval_grad_batch.calls": (grad["calls"], "count"),
        "forms.eval_grad_batch.points": (grad["points"], "count"),
        "forms.self_s": (forms_self, "s"),
        "forms.points_per_call": (ev["points"] / max(ev["calls"], 1), "points/call"),
        "forms.us_per_point": (1e6 * forms_self / max(ev["points"], 1), "us"),
    }
    for name in ("project_l1_sphere", "dual_align", "radial_normalize",
                 "poly_norm", "mixed_norm", "multilinear_norm"):
        metrics[f"norms.{name}.calls"] = (table[f"norms.{name}"]["calls"], "count")
    metrics.update({
        "norms.geometry.self_s": (
            total(["norms.project_l1_sphere", "norms.dual_align", "norms.radial_normalize"],
                  "self_s"), "s"),
        "norms.estimators.self_s": (
            total(["norms.poly_norm", "norms.mixed_norm", "norms.multilinear_norm",
                   "norms.ratio_report"], "self_s"), "s"),
        "norms.poly_norm.per_report": (table["norms.poly_norm"]["calls"] / len(traced), "calls/report"),
        "bounds.calls": (total(["bounds.applicable_bounds", "bounds.bound_best"], "calls"), "count"),
        "drivers.self_s": (
            total(["bounds.applicable_bounds", "bounds.bound_best", "extremals.verify_instance",
                   "cli.verify_samples"], "self_s"), "s"),
        "trace.overhead_frac": (sum(traced) / sum(plain) - 1.0, "fraction"),
    })
    return metrics


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    use_source_tree()
    spec, cases, setup_seconds = setup(args.workload, args.seed)
    import polarnorm
    import workloads

    if Path(polarnorm.__file__).resolve().parent != SRC / "polarnorm":
        raise SystemExit(f"error: polarnorm was imported from {polarnorm.__file__}, not {SRC}")
    reference_doc = json.loads((HERE / "reference.json").read_text())
    reference = reference_doc["workloads"][args.workload]["cases"]
    stale = [c.key for c in cases
             if reference.get(c.key, {}).get("inputs") != workloads.fingerprint(spec, c)]
    if stale:
        raise SystemExit(
            f"error: inputs of {args.workload} no longer match reference.json "
            f"(cases {stale[:3]}...); the workload stopped matching `polarnorm "
            f"{' '.join(spec.command(workloads.input_seed(args.seed)))}`"
        )

    check = Checker(reference)
    if args.trace:
        from tracer import Tracer, summarize

        tracer = Tracer()
        plain, in_cal, traced = closed_loop(spec, cases, args.seconds, check, tracer)
        table = summarize(tracer.spans)
        metrics = per_layer_metrics(table, plain, traced)
    else:
        plain, in_cal, _ = closed_loop(spec, cases, args.seconds, check, min_cases=MIN_REPORTS)
        setup_samples = [setup_seconds] + [
            probe_setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)
        ]
        metrics = end_to_end_metrics(in_cal, setup_samples)

    failed_frac = check.failed / check.attempted
    shortfall_frac = check.short / max(check.values, 1)
    correct = check.failed == 0 and check.short == 0
    facts = machine_facts(args.seed, workloads.input_seed(args.seed))
    extra = {
        "reports_per_s": (len(plain) / sum(plain), "1/s"),
        "report_p50_s": (statistics.median(plain), "s"),
        "cal_s": (statistics.median(p / c for p, c in zip(plain, in_cal)), "s"),
        "reports": (check.attempted, "count"),
        "failed_frac": (failed_frac, "fraction"),
        "shortfall_frac": (shortfall_frac, "fraction"),
    }
    if not args.trace and len(plain) >= 100:
        extra["report_p90_s"] = (statistics.quantiles(plain, n=10)[-1], "s")
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {args.workload}: polarnorm "
          f"{' '.join(spec.command(workloads.input_seed(args.seed)))}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} {value:.6g} {unit}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "machine": facts,
        "seconds": args.seconds,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in {**metrics, **extra}.items()},
        "reports": check.records,
    }
    if args.trace:
        record["per_function"] = table
        tracer.write(RESULTS / f"{stem}.spans.json.gz")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
