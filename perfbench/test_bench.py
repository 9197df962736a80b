"""Checks of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench/test_bench.py

They take about a minute, most of it one traced report of the
estimate workload.
"""

import json

import pytest

from run import (
    HERE, ROOT, WORKLOAD_NAMES, Checker, closed_loop, end_to_end_metrics, per_layer_metrics,
    use_source_tree,
)

use_source_tree()

import workloads  # noqa: E402
from polarnorm import cli  # noqa: E402
from tracer import TRACED, Tracer, summarize  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["workloads"]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# The traced functions each workload calls; the others it must not call.
# This is the "on workload" column of README.md's prediction table.
_VERIFY = {
    "forms.eval_batch", "norms.poly_norm", "norms.mixed_norm", "norms.ratio_report",
    "norms.radial_normalize", "bounds.applicable_bounds", "bounds.bound_best",
    "cli.verify_samples",
}
USES = {
    "verify-c21-l1": _VERIFY | {"forms.eval_grad_batch", "norms.project_l1_sphere",
                                "norms.dual_align"},
    "verify-r22-linf": _VERIFY,
    "estimate-nonattaining-49": {
        "forms.eval_batch", "forms.eval_grad_batch", "norms.poly_norm", "norms.mixed_norm",
        "norms.multilinear_norm", "norms.dual_align", "norms.radial_normalize",
        "extremals.verify_instance",
    },
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_covers_every_input(name):
    spec, cases = workloads.WORKLOADS[name], REFERENCE[name]["cases"]
    for seed in range(workloads.REFERENCE_SEEDS):
        for case in spec.cases(seed):
            assert cases[case.key]["inputs"] == workloads.fingerprint(spec, case)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracer_covers_every_layer(name):
    spec = workloads.WORKLOADS[name]
    case = spec.cases(7)[0]
    check, tracer = Checker(REFERENCE[name]["cases"]), Tracer()
    plain, _, traced = closed_loop(spec, [case], 1e-9, check, tracer)
    assert (len(plain), len(traced)) == (1, 1)
    assert check.failed == 0 and check.short == 0
    table = summarize(tracer.spans)
    called = {fn for fn, row in table.items() if row["calls"] > 0}
    assert called == USES[name]
    metrics = per_layer_metrics(table, plain, traced)
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
    }
    assert sum(row["self_s"] for row in table.values()) <= traced[0]
    roots = [span for span in tracer.spans if span[1] == -1]
    assert len(roots) == 1 and roots[0][3] in ("cli.verify_samples", "extremals.verify_instance")
    # uninstall restored every original
    assert not hasattr(cli.verify_samples, "__wrapped__")
    assert not hasattr(cli.ratio_report, "__wrapped__")


@pytest.mark.parametrize("name", ["verify-c21-l1", "verify-r22-linf"])
def test_verify_ratios_equal_the_cli(name, tmp_path):
    spec, seed, samples = workloads.WORKLOADS[name], 5, 3
    argv = spec.command(seed)
    argv[argv.index("--samples") + 1] = str(samples)
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"][:samples]
    ratios = [spec.report(case).ratio for case in spec.cases(seed)[:samples]]
    assert ratios == [row["ratio"] for row in rows]


def test_names_agree_with_benchmark_json():
    assert list(WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOAD_NAMES)
    metrics = end_to_end_metrics([1.0], [0.1])
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }


def test_traced_names_are_layers():
    assert {name.split(".")[0] for name in TRACED} == {"forms", "norms", "bounds", "extremals", "cli"}
