"""Command-line front end: bound tables, norm estimation, verification suites.

Subcommands: bounds | estimate | verify | table | extremal.  Each takes
only the flags it reads, spelled in full; it computes its config echo,
results and table rows and returns through _report, the one report path:
it adds the subcommand and seed to the echo, emits the
{config, results, pass, version} report (or the rows, under --format csv
or table) and maps pass to the exit code.  Only `extremal --out`, which
writes a form file and its sidecar, returns without a report.  A result
object serializes by its own to_dict(), else by its dataclass fields;
numbers with 17 significant digits, so identical configurations (including
the seed) emit byte-identical output.
Exit codes: 0 success, 1 verification failure, 2 usage error (a path that
cannot be read or written included).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import itertools
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from .extremals import nonattaining_bilinear, product_extremal, real44_form, verify_instance
from .forms import COMPLEX, REAL, FormError, SpaceSpec, load_form, random_form, save_form
from .norms import (
    DEFAULT_BOUND_SLACK,
    DegenerateFormError,
    NormError,
    OptimizerConfig,
    ratio_report,
)


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def _json_dumps(obj, indent: int = 0) -> str:
    """JSON with sorted keys; an object emits its own to_dict() if it has
    one, a dataclass otherwise its fields by name."""
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _json_dumps(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            inner + _json_dumps(str(k), 0) + ": " + _json_dumps(v, indent + 1)
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v)).strip('"')
    return str(v)


def _columns(rows: list[dict]) -> list[str]:
    """Every key of the rows, in the order it first appears."""
    return list(dict.fromkeys(key for row in rows for key in row))


def _render_csv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    header = _columns(rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(k)) for k in header])
    return buf.getvalue()


def _render_table(rows: list[dict]) -> str:
    if not rows:
        return "(empty)\n"
    header = _columns(rows)
    cells = [[_csv_cell(row.get(k)) for k in header] for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _emit(report: dict, rows: list[dict], args) -> None:
    if args.format == "json":
        text = _json_dumps(report) + "\n"
    elif args.format == "csv":
        text = _render_csv(rows)
    else:
        text = _render_table(rows)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing


def _parse_pattern(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise UsageError(f"cannot parse pattern {text!r}: expected comma-separated integers") from exc
    if not parts or any(k < 1 for k in parts):
        raise UsageError(f"pattern entries must be positive integers, got {text!r}")
    return parts


def _parse_p(text: str) -> float:
    if text.lower() in ("inf", "oo"):
        return math.inf
    try:
        p = float(text)
    except ValueError as exc:
        raise UsageError(f"cannot parse p {text!r}") from exc
    if not p >= 1.0:  # also refuses nan
        raise UsageError(f"p must be >= 1, got {p}")
    return p


def _p_echo(p: Optional[float]):
    if p is None:
        return None
    return "inf" if math.isinf(p) else p


# The flags of more than one subcommand; --seed, --format and --out go on all five.
SHARED_FLAGS = {
    "--pattern": dict(help="comma-separated multiplicities, e.g. 2,1"),
    "--p": dict(help="exponent in [1, inf]; 'inf' and 'oo' accepted"),
    "--field": dict(choices=[REAL, COMPLEX], help="scalar field"),
    "--extremal": dict(help="built-in instance: product | real44 | nonattaining"),
    "--n": dict(type=int, help="size for the nonattaining instance (default 9)"),
    "--restarts": dict(type=int, default=32, help="random restarts per estimate"),
    "--parallel": dict(action="store_true", help="accepted for compatibility; has no effect"),
    "--seed": dict(type=int, default=0, help="optimizer seed (default 0)"),
    "--format": dict(choices=["json", "csv", "table"], default="table"),
    "--out": dict(help="write the report to this path instead of stdout"),
}


def _add_command(subs, name: str, help: str, *flags: str) -> argparse.ArgumentParser:
    sub = subs.add_parser(name, help=help, allow_abbrev=False)  # one spelling per flag
    for flag in (*flags, "--seed", "--format", "--out"):
        sub.add_argument(flag, **SHARED_FLAGS[flag])
    # main reports a flag the subcommand does not take through its own usage line
    sub.set_defaults(usage_error=sub.error)
    return sub


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarnorm",
        description="polarization constants and polynomial norm estimates on ell_p spaces",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    _add_command(subs, "bounds", "every applicable constant for a pattern", "--pattern", "--p", "--field")
    p_est = _add_command(subs, "estimate", "estimate norms and the mixed/poly ratio", "--pattern",
                         "--p", "--field", "--extremal", "--n", "--restarts", "--parallel")
    p_est.add_argument("--form", help="path to a form file")
    p_ver = _add_command(subs, "verify", "randomized bound-dominance suite",
                         "--pattern", "--p", "--field", "--restarts", "--parallel")
    p_ver.add_argument("--samples", type=int, default=50, help="number of random forms")
    p_ver.add_argument("--d", type=int, default=3, help="ambient dimension")
    p_ver.add_argument("--slack", type=float, default=DEFAULT_BOUND_SLACK)
    p_tab = _add_command(subs, "table", "Markov / Chebyshev / asymptotic tables", "--p", "--field")
    p_tab.add_argument("--chebyshev", action="store_true", help="derivative constants for degree m")
    p_tab.add_argument("--asymptotic", action="store_true", help="growth of the bound along m")
    p_tab.add_argument("--markov", action="store_true", help="derivative constants at (m, k)")
    p_tab.add_argument("--m", type=int, help="polynomial degree")
    p_tab.add_argument("--k", type=int, help="derivative order")
    p_tab.add_argument("--n", type=int, default=2, help="number of equal blocks")
    p_tab.add_argument("--m-max", type=int, default=200, dest="m_max")
    _add_command(subs, "extremal", "emit a built-in instance as form file + sidecar",
                 "--pattern", "--p", "--field", "--extremal", "--n")
    # main names a subcommand's flag given before the subcommand name
    parser.subcommand_flags = {flag for sub in subs.choices.values()
                               for flag in sub._option_string_actions} - {"-h", "--help"}
    return parser


# ---------------------------------------------------------------------------
# subcommands


def _report(args, config: dict, results: list, rows: list[dict], passed: bool = True) -> int:
    """Emit the {config, results, pass, version} report of a subcommand and
    return its exit code.  The config echo gains the subcommand and seed."""
    config = {**config, "subcommand": args.command, "seed": args.seed}
    _emit({"config": config, "results": results, "pass": passed, "version": __version__}, rows, args)
    return 0 if passed else 1


def cmd_bounds(args) -> int:
    if not args.pattern:
        raise UsageError("bounds requires --pattern")
    pattern = _parse_pattern(args.pattern)
    field = args.field or REAL
    p = _parse_p(args.p) if args.p else None
    records = bounds_mod.applicable_bounds(pattern, p, field)
    best = bounds_mod.bound_best(pattern, p, field)
    results = [rec.to_dict() for rec in [*records, best]]
    columns = ("name", "value", "log_value", "sharp", "applicable", "exact")
    rows = [{key: r.get(key) for key in columns} for r in results]
    return _report(args, {"pattern": list(pattern), "p": _p_echo(p), "field": field}, results, rows)


# The source flags each source reads; a given one that its source does not read is a usage error.
SOURCE_FLAGS = {
    "--extremal product": ("pattern", "p", "field"),
    "--extremal real44": (),
    "--extremal nonattaining": ("n",),
    "--form": ("form", "pattern", "p"),  # the file sets its own field
}


def _refuse_unread_flags(args, source: str) -> None:
    unread = [f"--{flag}" for flag in ("form", "pattern", "p", "field", "n")
              if flag not in SOURCE_FLAGS[source] and getattr(args, flag, None) is not None]
    if unread:
        raise UsageError(f"{source} does not read {', '.join(unread)}")


def _estimate_instance(args):
    name = args.extremal
    if f"--extremal {name}" not in SOURCE_FLAGS:
        raise UsageError(f"unknown extremal {name!r}; choose product | real44 | nonattaining")
    _refuse_unread_flags(args, f"--extremal {name}")
    if name == "product":
        if not args.pattern or not args.p:
            raise UsageError("the product instance needs --pattern and --p")
        pattern, p = _parse_pattern(args.pattern), _parse_p(args.p)
        return product_extremal(pattern, p, field=args.field or REAL)
    if name == "real44":
        return real44_form()
    return nonattaining_bilinear(9 if args.n is None else args.n)


def cmd_estimate(args) -> int:
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed, parallel=args.parallel)
    if args.extremal:
        instance = _estimate_instance(args)
        pattern, space = instance.pattern.multiplicities, instance.space
        rep = verify_instance(instance, config)
        echo, row = {"extremal": instance.name}, {"name": instance.name}
    elif args.form:
        _refuse_unread_flags(args, "--form")
        if not args.pattern:
            raise UsageError("estimating a form file needs --pattern")
        form = load_form(args.form)
        pattern = _parse_pattern(args.pattern)
        space = SpaceSpec(_parse_p(args.p) if args.p else 2.0, form.dim, form.field)
        rep = ratio_report(form, space, pattern, config)
        echo, row = {"form": args.form}, {"pattern": args.pattern}
    else:
        raise UsageError("estimate needs --form or --extremal")
    echo.update(pattern=list(pattern), p=_p_echo(space.p), field=space.field, restarts=args.restarts)
    row.update(ratio=rep.ratio, poly=rep.poly.value, mixed=rep.mixed.value)
    if args.extremal:
        row["exact_ratio"] = rep.exact_ratio
    row["passed"] = rep.passed
    return _report(args, echo, [rep], [row], rep.passed)


def verify_samples(forms, space: SpaceSpec, pattern, config: OptimizerConfig, slack: float):
    """Measure the mixed/poly ratio of every form against the best bound.

    A row passes when its RatioReport does: the ratio is within the slack
    of every applicable bound, so within the slack of their minimum,
    bound_best.
    Degenerate forms (zero polynomial norm estimate) are skipped with a
    note rather than failed; any other NormError is a usage error and
    propagates.
    """
    best = bounds_mod.bound_best(pattern, space.p, space.field)
    rows = []
    for idx, form in enumerate(forms):
        try:
            rep = ratio_report(form, space, pattern, config, slack=slack)
        except DegenerateFormError:
            rows.append({"index": idx, "skipped": True, "note": "degenerate"})
            continue
        rows.append(
            {
                "index": idx,
                "ratio": rep.ratio,
                "bound": best.value,
                "passed": rep.passed,
            }
        )
    return rows, best


def cmd_verify(args) -> int:
    if not args.pattern:
        raise UsageError("verify requires --pattern")
    pattern = _parse_pattern(args.pattern)
    field = args.field or REAL
    p = _parse_p(args.p) if args.p else 2.0
    if args.samples < 0:
        raise UsageError("samples must be >= 0")
    # at slack <= -1 every check fails and at inf every check passes, whatever the ratios
    if not -1.0 < args.slack < math.inf:
        raise UsageError(f"slack must be finite and > -1, got {args.slack}")
    config = OptimizerConfig(restarts=args.restarts, seed=args.seed, parallel=args.parallel)
    space = SpaceSpec(p, args.d, field)
    rng = np.random.default_rng(args.seed)
    forms = [random_form(rng, sum(pattern), args.d, field) for _ in range(args.samples)]
    rows, best = verify_samples(forms, space, pattern, config, args.slack)
    checked = [r for r in rows if not r.get("skipped")]
    passed = all(r["passed"] for r in checked)
    summary = {
        "checked": len(checked),
        "passed": sum(1 for r in checked if r["passed"]),
        "skipped": len(rows) - len(checked),
        "bound": best.value,
        "bound_source": best.note,
    }
    echo = {
        "pattern": list(pattern),
        "p": _p_echo(p),
        "field": field,
        "dim": args.d,
        "samples": args.samples,
        "slack": args.slack,
        "restarts": args.restarts,
    }
    return _report(args, echo, rows + [{"summary": summary}], rows, passed)


def cmd_table(args) -> int:
    field = args.field or REAL
    modes = [bool(args.chebyshev), bool(args.asymptotic), bool(args.markov)]
    if sum(modes) != 1:
        raise UsageError("table needs exactly one of --chebyshev, --asymptotic, --markov")
    if args.chebyshev:
        if args.m is None or args.m < 1:
            raise UsageError("--chebyshev needs --m >= 1")
        rows = [
            {"k": k, "value": bounds_mod.chebyshev_markov(args.m, k).value}
            for k in range(1, args.m + 1)
        ]
        echo = {"mode": "chebyshev", "m": args.m}
    elif args.asymptotic:
        family = bounds_mod.equal_split_family(args.n)
        ms = list(range(args.n, args.m_max + 1, args.n))
        if not ms:
            raise UsageError(f"--asymptotic needs --m-max >= --n, got {args.m_max} < {args.n}")
        scan = bounds_mod.asymptotic_scan(family, ms, field)
        rows = [{"m": m, "bound": v, "root": r} for m, v, r in scan]
        echo = {"mode": "asymptotic", "n": args.n, "m_max": args.m_max, "field": field}
    else:
        if args.m is None or args.k is None:
            raise UsageError("--markov needs --m and --k")
        p = _parse_p(args.p) if args.p else None
        if field == REAL:
            rows = [bounds_mod.real_markov_range(args.m, args.k).to_dict()]
        else:
            homog, full = bounds_mod.markov_complex_any(args.k, args.m)
            rows = [
                {"name": "homogeneous_derivative", "value": homog.value, "sharp": homog.sharp},
                {"name": "full_derivative", "value": full.value, "sharp": full.sharp},
            ]
            if p is not None:
                lp = bounds_mod.markov_complex_lp(args.k, args.m, p)
                rows.append({"name": "homogeneous_derivative_lp", "value": lp.value, "sharp": lp.sharp})
        echo = {"mode": "markov", "m": args.m, "k": args.k, "field": field, "p": _p_echo(p)}
    return _report(args, echo, rows, rows)


def cmd_extremal(args) -> int:
    instance = _estimate_instance(args)
    if args.out:
        form_path = Path(args.out)
        save_form(instance.form, form_path)
        sidecar = form_path.with_name(form_path.name + ".sidecar.json")
        doc = {k: v for k, v in instance.to_dict().items() if k != "form"}
        sidecar.write_text(_json_dumps(doc) + "\n")
        sys.stdout.write(f"{form_path}\n{sidecar}\n")
        return 0
    echo = {
        "extremal": instance.name,
        "pattern": list(instance.pattern.multiplicities),
        "p": _p_echo(instance.space.p),
        "field": instance.space.field,
    }
    row = {
        "name": instance.name,
        "exact_poly_norm": instance.exact_poly_norm,
        "exact_ratio": instance.exact_ratio,
        "witness_value": float(abs(instance.witness_mixed_value)),
    }
    return _report(args, echo, [instance], [row])


COMMANDS = {
    "bounds": cmd_bounds,
    "estimate": cmd_estimate,
    "verify": cmd_verify,
    "table": cmd_table,
    "extremal": cmd_extremal,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    # the top-level parser reads no value, so the first word that is not a
    # flag is the subcommand, and the flags before it are the top-level
    # parser's to report.  A subcommand's flag there is named before parsing,
    # which would take its value for the subcommand name
    leading = list(itertools.takewhile(lambda arg: arg.startswith("-"), argv))
    for arg in leading:
        if (flag := arg.split("=", 1)[0]) in parser.subcommand_flags:
            parser.error(f"{flag} is a subcommand flag: it goes after the subcommand name")
    args, unread = parser.parse_known_args(argv)
    if unread:
        report = parser.error if set(unread) & set(leading) else args.usage_error
        report(f"unrecognized arguments: {' '.join(unread)}")
    try:
        # a form whose values overflow raises NormError; numpy's warnings would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[args.command](args)
    # OSError: a form file that cannot be read, an --out path that cannot be written
    except (UsageError, FormError, bounds_mod.BoundError, NormError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
