import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarnorm.cli import main, verify_samples, _parse_p, _parse_pattern, UsageError
from polarnorm.forms import SpaceSpec, zero_form, random_form
from polarnorm.norms import OptimizerConfig


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# parsing


def test_parse_pattern():
    assert _parse_pattern("2,1") == (2, 1)
    with pytest.raises(UsageError):
        _parse_pattern("2,x")
    with pytest.raises(UsageError):
        _parse_pattern("0,1")


def test_parse_p_accepts_inf_spellings():
    assert _parse_p("inf") == math.inf
    assert _parse_p("oo") == math.inf
    assert _parse_p("1.5") == 1.5
    with pytest.raises(UsageError):
        _parse_p("0.5")


def test_unparseable_pattern_exit_2(capsys):
    code, _, err = run_cli(capsys, "bounds", "--pattern", "2,zebra", "--field", "real")
    assert code == 2
    assert "pattern" in err


# ---------------------------------------------------------------------------
# bounds


def test_bounds_real_22(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--pattern", "2,2", "--field", "real", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["version"]
    values = {r["name"]: r["value"] for r in report["results"]}
    assert values["real_polar"] == pytest.approx(16.0 / 3.0)
    assert values["real_hilbert"] == pytest.approx(4.0)
    assert values["best"] == pytest.approx(4.0)
    best = [r for r in report["results"] if r["name"] == "best"][0]
    assert best["exact"] == pytest.approx(3.0)


def test_bounds_complex_21_p1(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--pattern", "2,1", "--field", "complex", "--p", "1", "--format", "json"
    )
    assert code == 0
    values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert values["complex_lp"] == pytest.approx(2.25)
    assert values["best"] == pytest.approx(2.25)


def test_bounds_complex_111(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--pattern", "1,1,1", "--field", "complex", "--format", "json")
    assert code == 0
    values = {r["name"]: r["value"] for r in json.loads(out)["results"]}
    assert values["best"] == pytest.approx(4.5)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_product_21(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--extremal", "product", "--pattern", "2,1", "--p", "1",
        "--restarts", "8", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    result = report["results"][0]
    assert result["ratio"] == pytest.approx(2.25, abs=1e-3)


def test_estimate_real44(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--extremal", "real44", "--restarts", "8", "--format", "json"
    )
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["ratio"] == pytest.approx(3.0, abs=1e-2)


def test_estimate_form_file(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "extremal", "--extremal", "real44", "--out", str(tmp_path / "f.json"))
    assert code == 0
    code, out, _ = run_cli(
        capsys, "estimate", "--form", str(tmp_path / "f.json"), "--pattern", "2,2",
        "--p", "inf", "--restarts", "8", "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["ratio"] == pytest.approx(3.0, abs=1e-2)


def test_estimate_form_file_hilbert_ratio(capsys, tmp_path):
    from polarnorm.forms import save_form

    rng = np.random.default_rng(77)
    save_form(random_form(rng, 2, 2), tmp_path / "g.json")
    code, out, _ = run_cli(
        capsys, "estimate", "--form", str(tmp_path / "g.json"), "--pattern", "1,1",
        "--p", "2", "--restarts", "8", "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["ratio"] == pytest.approx(1.0, abs=2e-2)


@pytest.mark.parametrize(
    "entry",
    [{"alpha": [1, 1]}, {"alpha": [1, 1], "re": float("nan")}],
    ids=["missing-re", "nan"],
)
def test_estimate_malformed_coefficient_exit_2(capsys, tmp_path, entry):
    doc = {"degree": 2, "dim": 2, "field": "real", "coeffs": [entry]}
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "estimate", "--form", str(tmp_path / "bad.json"), "--pattern", "1,1",
        "--p", "2", "--restarts", "4",
    )
    assert code == 2
    assert out == "" and "coefficient" in err


def test_estimate_requires_source(capsys):
    code, _, err = run_cli(capsys, "estimate", "--pattern", "2,1")
    assert code == 2
    assert "estimate" in err


def test_estimate_nonattaining(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--extremal", "nonattaining", "--n", "9", "--restarts", "8",
        "--format", "json",
    )
    assert code == 0
    result = json.loads(out)["results"][0]
    assert result["mixed"]["value"] == pytest.approx(0.9, abs=1e-6)


# ---------------------------------------------------------------------------
# verify


def test_verify_deterministic_and_parallel_identical(capsys, tmp_path):
    base = [
        "verify", "--pattern", "2,1", "--field", "complex", "--p", "1",
        "--samples", "4", "--restarts", "6", "--format", "json",
    ]
    for name, extra in [("a", []), ("b", []), ("c", ["--parallel"])]:
        code, _, _ = run_cli(capsys, *base, *extra, "--out", str(tmp_path / name))
        assert code == 0
    a = (tmp_path / "a").read_bytes()
    assert a == (tmp_path / "b").read_bytes()
    assert a == (tmp_path / "c").read_bytes()


def test_verify_hilbert_passes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--pattern", "1,1,1", "--field", "real", "--p", "2",
        "--samples", "5", "--slack", "2e-2", "--restarts", "8", "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    summary = report["results"][-1]["summary"]
    assert summary["checked"] == 5 and summary["passed"] == 5


def test_verify_failure_exit_code(capsys):
    # negative slack turns every check into a failure
    code, out, _ = run_cli(
        capsys, "verify", "--pattern", "1,1,1", "--field", "real", "--p", "2",
        "--samples", "2", "--slack", "-0.5", "--restarts", "4", "--format", "json",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_samples_skips_degenerate_zero_form():
    forms = [zero_form(3, 3), random_form(np.random.default_rng(0), 3, 3)]
    rows, _ = verify_samples(
        forms, SpaceSpec(2.0, 3), (1, 1, 1), OptimizerConfig(restarts=4), slack=2e-2
    )
    assert rows[0] == {"index": 0, "skipped": True, "note": "degenerate"}
    assert rows[1]["passed"]


def test_verify_over_the_polarization_cap_exit_2(capsys):
    # the 21-slot multilinear norm is over the degree-20 cap: a usage error,
    # not a degenerate form to skip
    code, out, err = run_cli(
        capsys, "verify", "--pattern", ",".join(["1"] * 21), "--d", "2",
        "--samples", "2", "--restarts", "1", "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert "polarization cap" in err


# ---------------------------------------------------------------------------
# table


def test_table_chebyshev(capsys):
    code, out, _ = run_cli(capsys, "table", "--chebyshev", "--m", "4", "--format", "json")
    assert code == 0
    rows = {r["k"]: r["value"] for r in json.loads(out)["results"]}
    assert rows[1] == pytest.approx(16.0)
    assert rows[2] == pytest.approx(80.0)


def test_table_asymptotic(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--asymptotic", "--n", "2", "--m-max", "200",
        "--field", "complex", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows[-1]["m"] == 200
    assert rows[-1]["root"] <= 1.02


def test_table_markov_real(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--markov", "--m", "4", "--k", "2", "--field", "real", "--format", "json"
    )
    assert code == 0
    row = json.loads(out)["results"][0]
    assert row["M_range"] == [pytest.approx(32.0), pytest.approx(48.0)]
    assert row["M_exact"] == pytest.approx(36.0)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("m,k", [("0", "1"), ("4", "0")])
def test_table_markov_out_of_range_degree_names_the_range(capsys, m, k, field):
    code, out, err = run_cli(capsys, "table", "--markov", "--m", m, "--k", k, "--field", field)
    assert code == 2 and out == ""
    assert f"need 1 <= k <= m, got k={k}, m={m}" in err


def test_table_markov_needs_m_and_k(capsys):
    code, _, err = run_cli(capsys, "table", "--markov", "--m", "4")
    assert code == 2 and "--markov needs --m and --k" in err


def test_table_needs_exactly_one_mode(capsys):
    code, _, err = run_cli(capsys, "table", "--m", "4")
    assert code == 2


def test_table_chebyshev_large_degree_overflows_to_inf(capsys):
    code, out, err = run_cli(capsys, "table", "--chebyshev", "--m", "400", "--format", "json")
    assert code == 0, err
    rows = json.loads(out)["results"]
    assert rows[0]["value"] == 400.0**2
    assert rows[-1]["value"] == "inf"


def test_table_markov_real_large_degree(capsys):
    code, out, err = run_cli(
        capsys, "table", "--markov", "--m", "400", "--k", "200", "--field", "real",
        "--format", "json",
    )
    assert code == 0, err
    row = json.loads(out)["results"][0]
    assert row["M_range"] == ["inf", "inf"] and row["K_range"] == ["inf", "inf"]


def test_table_asymptotic_real_large_degree(capsys):
    code, out, err = run_cli(
        capsys, "table", "--asymptotic", "--n", "2", "--m-max", "2000", "--field", "real",
        "--format", "json",
    )
    assert code == 0, err
    rows = json.loads(out)["results"]
    assert rows[-1]["m"] == 2000 and rows[-1]["bound"] == "inf"
    # the log domain keeps the root finite: 2 (2^{m-1} times a constant of root 1)
    assert rows[-1]["root"] == pytest.approx(2.0, rel=1e-2)


@pytest.mark.parametrize("k", [520, 600])
def test_bounds_real_large_degree(capsys, k):
    code, out, err = run_cli(capsys, "bounds", "--pattern", f"{k},{k}", "--field", "real",
                             "--format", "json")
    assert code == 0, err
    records = {r["name"]: r for r in json.loads(out)["results"]}
    assert records["real_complexification"]["value"] == "inf"
    # real_polar is n^{m-1}/m! * sum k_i^{m-1}; its unshifted terms underflow at k = 600
    m = 2 * k
    exact_log = math.log(2 ** (m - 1) * 2 * k ** (m - 1)) - math.lgamma(m + 1)
    assert records["real_polar"]["log_value"] == pytest.approx(exact_log, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--pattern", "2,1", "--slack", "nan"),
        ("verify", "--pattern", "2,1", "--slack", "-1"),
        ("verify", "--pattern", "2,1", "--slack", "inf"),
        ("table", "--chebyshev", "--m", "-3"),
        ("table", "--asymptotic", "--n", "3", "--m-max", "2"),
        ("table", "--asymptotic", "--n", "2", "--m-max", "-5"),
    ],
)
def test_bad_numeric_flags_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error:")


# ---------------------------------------------------------------------------
# extremal emission and format agreement


def test_extremal_writes_form_and_sidecar(capsys, tmp_path):
    out_path = tmp_path / "prod.json"
    code, out, _ = run_cli(
        capsys, "extremal", "--extremal", "product", "--pattern", "2,1", "--p", "1",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["degree"] == 3
    sidecar = json.loads((tmp_path / "prod.json.sidecar.json").read_text())
    assert sidecar["exact_ratio"] == pytest.approx(2.25)
    assert sidecar["witnesses"][0] == [0.5, 0.5, 0.0]


@pytest.mark.parametrize("pattern", ["200", ",".join(["1"] * 144)], ids=["200", "1x144"])
def test_extremal_product_past_the_float_range_exit_2(capsys, pattern):
    code, out, err = run_cli(
        capsys, "extremal", "--extremal", "product", "--pattern", pattern, "--p", "1.5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "float range" in err


def test_csv_json_numeric_agreement(capsys):
    args = ["bounds", "--pattern", "2,2", "--field", "real"]
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    report = json.loads(json_out)
    json_values = {r["name"]: r["value"] for r in report["results"]}
    reader = csv.DictReader(io.StringIO(csv_out))
    for row in reader:
        assert float(row["value"]) == json_values[row["name"]]


def test_csv_json_agreement_for_verify(capsys):
    args = [
        "verify", "--pattern", "1,1", "--field", "real", "--p", "2",
        "--samples", "3", "--restarts", "4", "--slack", "2e-2",
    ]
    code, json_out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    json_rows = [r for r in json.loads(json_out)["results"] if "index" in r]
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(json_rows) == len(csv_rows)
    for jr, cr in zip(json_rows, csv_rows):
        assert float(cr["ratio"]) == jr["ratio"]
        assert float(cr["bound"]) == jr["bound"]


def test_json_uses_string_inf(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--extremal", "real44", "--restarts", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["config"]["p"] == "inf"


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["1", "1.000000001", "1.5", "2", "3", "1e6", "inf"]),
    st.sampled_from(["real", "complex"]),
    st.sampled_from(["3", "2,1", "1,1,1"]),
)
def test_verify_and_estimate_at_edge_p_exit_cleanly(p, field, pattern):
    # main is run in-process, so an uncaught exception fails the test itself
    commands = [
        ["verify", "--pattern", pattern, "--field", field, "--p", p, "--d", "3",
         "--samples", "2", "--restarts", "4"],
        ["estimate", "--extremal", "product", "--pattern", pattern, "--field", field,
         "--p", p, "--restarts", "4"],
    ]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--format", "json"])
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
        if code != 2:
            assert json.loads(out.getvalue())["pass"] is (code == 0)
