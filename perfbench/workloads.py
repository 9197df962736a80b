"""The benchmark's workloads: the inputs a seed gives, and one report on them.

Each workload is one `polarnorm` command.  Its inputs come from the seed
exactly as the command builds them (`default_rng(seed)` -> `random_form`
for `verify`, the fixed instance for `estimate --extremal`), and one
report calls the public entry point the command calls:
`polarnorm.cli.verify_samples([form], ...)` once per form, or
`polarnorm.extremals.verify_instance` once per instance.  Entry points are
looked up on their modules at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from polarnorm import cli, extremals, norms
from polarnorm.forms import SpaceSpec, SymmetricForm, form_to_dict, random_form
from polarnorm.norms import DEFAULT_BOUND_SLACK, OptimizerConfig

# reference.json holds values for input seeds 0 .. REFERENCE_SEEDS - 1; a
# run seed maps onto them modulo this count.
REFERENCE_SEEDS = 16
RESTARTS = 32  # the CLI's default --restarts
# a value more than this far below its reference (relative) is a shortfall
SHORTFALL_TOL = 1e-9
VALUES = ("poly", "mixed")  # the checked values of each report


@dataclass(frozen=True)
class Case:
    """One report's inputs; key names its entry in reference.json."""

    key: str
    form: SymmetricForm
    config: OptimizerConfig
    instance: Optional[extremals.ExtremalInstance] = None


@dataclass(frozen=True)
class Outcome:
    """What one report measured, and whether it passed its own check."""

    poly: float
    mixed: float
    ratio: float
    passed: bool


class _RatioCapture:
    """Stands in for cli.ratio_report and keeps the report it returns, since
    verify_samples passes on only the ratio."""

    def __init__(self):
        self.last = None

    def __call__(self, *args, **kwargs):
        self.last = norms.ratio_report(*args, **kwargs)
        return self.last


@dataclass(frozen=True)
class Verify:
    """`polarnorm verify`: one report is one random form of the sample."""

    pattern: tuple[int, ...]
    field: str
    p: float
    d: int
    samples: int

    def command(self, seed: int) -> list[str]:
        return [
            "verify", "--pattern", ",".join(map(str, self.pattern)),
            "--field", self.field, "--p", "inf" if math.isinf(self.p) else repr(self.p),
            "--d", str(self.d), "--samples", str(self.samples), "--seed", str(seed),
        ]

    def cases(self, input_seed: int) -> list[Case]:
        rng = np.random.default_rng(input_seed)
        config = OptimizerConfig(restarts=RESTARTS, seed=input_seed)
        return [
            Case(f"{input_seed}/{i}", random_form(rng, sum(self.pattern), self.d, self.field), config)
            for i in range(self.samples)
        ]

    def report(self, case: Case) -> Outcome:
        space = SpaceSpec(self.p, self.d, self.field)
        capture, saved = _RatioCapture(), cli.ratio_report
        cli.ratio_report = capture
        try:
            rows, _ = cli.verify_samples([case.form], space, self.pattern, case.config, DEFAULT_BOUND_SLACK)
        finally:
            cli.ratio_report = saved
        row, rep = rows[0], capture.last
        if row.get("skipped"):
            return Outcome(math.nan, math.nan, math.nan, False)
        return Outcome(rep.poly.value, rep.mixed.value, row["ratio"], bool(row["passed"]))


@dataclass(frozen=True)
class Estimate:
    """`polarnorm estimate --extremal nonattaining`: one report is one
    verify_instance call; successive reports take successive input seeds."""

    n: int

    def command(self, seed: int) -> list[str]:
        return ["estimate", "--extremal", "nonattaining", "--n", str(self.n), "--seed", str(seed)]

    def cases(self, input_seed: int) -> list[Case]:
        instance = extremals.nonattaining_bilinear(self.n)
        seeds = [(input_seed + j) % REFERENCE_SEEDS for j in range(REFERENCE_SEEDS)]
        return [
            Case(f"{s}/0", instance.form, OptimizerConfig(restarts=RESTARTS, seed=s), instance)
            for s in seeds
        ]

    def report(self, case: Case) -> Outcome:
        rep = extremals.verify_instance(case.instance, case.config)
        return Outcome(rep.poly.value, rep.mixed.value, rep.ratio, bool(rep.passed))


# Why each workload is here, and what it predicts, is in README.md.
WORKLOADS = {
    "verify-c21-l1": Verify((2, 1), "complex", 1.0, 3, 50),
    "verify-r22-linf": Verify((2, 2), "real", math.inf, 4, 20),
    "estimate-nonattaining-49": Estimate(49),
}


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def fingerprint(spec, case: Case) -> str:
    """Hash of everything a report's result depends on."""
    doc = [type(spec).__name__, asdict(spec), form_to_dict(case.form), asdict(case.config)]
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=repr).encode()).hexdigest()[:16]


def shortfalls(outcome: Outcome, reference: dict) -> int:
    """How many of poly and mixed fall below their reference values."""
    return sum(
        not getattr(outcome, name) >= reference[name] * (1.0 - SHORTFALL_TOL)
        for name in VALUES
    )
