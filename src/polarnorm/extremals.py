"""Explicit extremal and counterexample instances with their exact norms.

Each constructor returns an ExtremalInstance bundling a form, the space it
lives on, witness vectors, and whatever exact values are known in closed
form.  verify_instance re-measures those values with the generic
estimators from the norms module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forms import (
    REAL,
    FormError,
    Pattern,
    SpaceSpec,
    SymmetricForm,
    as_pattern,
    conjugate_exponent,
    eval_mixed,
    form_to_dict,
    make_form,
)
from .norms import (
    DEFAULT_CONFIG,
    NormEstimate,
    OptimizerConfig,
    mixed_norm,
    poly_norm,
)


@dataclass
class ExtremalInstance:
    """A form with known witnesses and (where available) exact constants."""

    name: str
    form: SymmetricForm
    space: SpaceSpec
    pattern: Pattern
    witnesses: list[np.ndarray]
    exact_poly_norm: Optional[float]
    exact_ratio: Optional[float]
    ratio_is_sharp: bool
    citation: str

    @property
    def witness_mixed_value(self):
        """L at the stored witnesses (signed; sharpness compares magnitudes)."""
        return eval_mixed(self.form, self.pattern, self.witnesses)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "form": form_to_dict(self.form),
            "space": {"p": self.space.p, "dim": self.space.dim, "field": self.space.field},
            "pattern": list(self.pattern.multiplicities),
            "witnesses": [[float(c) for c in w] for w in self.witnesses],
            "exact_poly_norm": self.exact_poly_norm,
            "exact_ratio": self.exact_ratio,
            "ratio_is_sharp": self.ratio_is_sharp,
            "citation": self.citation,
        }


def product_form(m: int, d: int, field: str = REAL) -> SymmetricForm:
    """P(u) = u_1 * ... * u_m on d >= m coordinates."""
    if d < m:
        raise FormError(f"product form needs d >= m, got d={d}, m={m}")
    alpha = tuple([1] * m + [0] * (d - m))
    return make_form(m, d, field, [(alpha, 1.0)])


def product_extremal(pattern, p: float, field: str = REAL) -> ExtremalInstance:
    """Block-averaged witnesses for the product form on ell_p^m.

    Witnesses y_j spread mass 1/k_j^{1/p} over k_j fresh coordinates; the
    polynomial norm is exactly m^{-m/p} (arithmetic-geometric mean), and
    the witness ratio (m^m / prod k^k)^{1/p} prod k!/m! equals the
    mixed-norm constant precisely when p <= m/(m-1).
    """
    pat = as_pattern(pattern)
    p = float(p)
    if math.isinf(p):
        raise FormError("block witnesses are defined for finite p only")
    if p < 1.0:
        raise FormError(f"p must be >= 1, got {p}")
    m = pat.m
    form = product_form(m, m, field)
    space = SpaceSpec(p, m, field)
    witnesses = []
    offset = 0
    for k in pat.multiplicities:
        w = np.zeros(m)
        w[offset : offset + k] = k ** (-1.0 / p)
        witnesses.append(w)
        offset += k
    prod_kk = math.prod(k**k for k in pat)
    prod_fact = math.prod(math.factorial(k) for k in pat)
    exact_poly = m ** (-m / p)
    try:
        exact_ratio = (m**m / prod_kk) ** (1.0 / p) * prod_fact / math.factorial(m)
    except OverflowError:
        raise FormError(
            f"the exact constants of a degree-{m} pattern with {pat.n} blocks "
            "leave the float range"
        ) from None
    return ExtremalInstance(
        name="product",
        form=form,
        space=space,
        pattern=pat,
        witnesses=witnesses,
        exact_poly_norm=exact_poly,
        exact_ratio=exact_ratio,
        ratio_is_sharp=p <= conjugate_exponent(m),
        citation="disjoint block vectors saturate the complex ell_p constant",
    )


def real44_form() -> ExtremalInstance:
    """P(x) = (x1^2 - x2^2)^2 - (x3^2 - x4^2)^2 on real sup-norm R^4.

    ||P|| = 1 while |L(x^2 y^2)| reaches 3 at sign-pattern witnesses, beating
    every complex space's constant 8/3 for the (2, 2) pattern.
    """
    coeffs = [
        ((4, 0, 0, 0), 1.0),
        ((0, 4, 0, 0), 1.0),
        ((2, 2, 0, 0), -2.0),
        ((0, 0, 4, 0), -1.0),
        ((0, 0, 0, 4), -1.0),
        ((0, 0, 2, 2), 2.0),
    ]
    form = make_form(4, 4, REAL, coeffs)
    witnesses = [np.array([1.0, 1.0, 0.0, 1.0]), np.array([1.0, -1.0, 1.0, 0.0])]
    return ExtremalInstance(
        name="real44",
        form=form,
        space=SpaceSpec(math.inf, 4, REAL),
        pattern=Pattern((2, 2)),
        witnesses=witnesses,
        exact_poly_norm=1.0,
        exact_ratio=3.0,
        ratio_is_sharp=True,
        citation="real (2,2) constant equals 3; strictly above the complex 8/3",
    )


def nonattaining_bilinear(n_coords: int) -> ExtremalInstance:
    """Truncation of L(x, y) = sum n/(n+1) x_n y_n to N coordinates on ell_2^N.

    Every truncation attains norm N/(N+1) < 1; the supremum 1 of the full
    operator is approached but never reached, so the limit norm is not
    attained by any feasible pair.
    """
    if n_coords < 1:
        raise FormError(f"need at least one coordinate, got {n_coords}")
    entries = []
    for n in range(1, n_coords + 1):
        alpha = [0] * n_coords
        alpha[n - 1] = 2
        entries.append((tuple(alpha), n / (n + 1.0)))
    form = make_form(2, n_coords, REAL, entries)
    e_last = np.zeros(n_coords)
    e_last[-1] = 1.0
    exact = n_coords / (n_coords + 1.0)
    return ExtremalInstance(
        name="nonattaining",
        form=form,
        space=SpaceSpec(2.0, n_coords, REAL),
        pattern=Pattern((1, 1)),
        witnesses=[e_last, e_last.copy()],
        exact_poly_norm=exact,
        exact_ratio=1.0,
        citation="diagonal bilinear with weights below 1; norm attained only in the limit",
        ratio_is_sharp=False,
    )


@dataclass
class InstanceReport:
    """Measured vs stored values for one extremal instance."""

    name: str
    poly: NormEstimate
    mixed: NormEstimate
    ratio: float
    witness_value: float
    exact_poly_norm: Optional[float]
    exact_ratio: Optional[float]
    poly_error: Optional[float]
    ratio_error: Optional[float]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "poly": self.poly.to_dict(),
            "mixed": self.mixed.to_dict(),
            "ratio": self.ratio,
            "witness_value": self.witness_value,
            "exact_poly_norm": self.exact_poly_norm,
            "exact_ratio": self.exact_ratio,
            "poly_error": self.poly_error,
            "ratio_error": self.ratio_error,
            "passed": self.passed,
        }


# Relative tolerances of verify_instance against the stored exact values.
POLY_TOL = 1e-5
RATIO_TOL = 1e-2


def verify_instance(
    instance: ExtremalInstance, config: OptimizerConfig = DEFAULT_CONFIG
) -> InstanceReport:
    """Re-measure an instance with the generic estimators and compare,
    within POLY_TOL and RATIO_TOL relative to max(1, exact value).

    The stored witnesses seed the mixed estimator, so the measured ratio
    can only meet or beat the recorded one.
    """
    poly = poly_norm(instance.form, instance.space, config)
    mixed = mixed_norm(
        instance.form,
        instance.space,
        instance.pattern,
        config,
        extra_starts=[instance.witnesses],
        poly=poly,
    )
    ratio = mixed.value / poly.value if poly.value > 0 else math.inf
    witness_value = abs(instance.witness_mixed_value)
    poly_error = ratio_error = None
    passed = True
    if instance.exact_poly_norm is not None:
        poly_error = abs(poly.value - instance.exact_poly_norm)
        passed &= poly_error <= POLY_TOL * max(1.0, instance.exact_poly_norm)
    if instance.exact_ratio is not None:
        ratio_error = abs(ratio - abs(instance.exact_ratio))
        passed &= ratio_error <= RATIO_TOL * max(1.0, abs(instance.exact_ratio))
    return InstanceReport(
        name=instance.name,
        poly=poly,
        mixed=mixed,
        ratio=ratio,
        witness_value=witness_value,
        exact_poly_norm=instance.exact_poly_norm,
        exact_ratio=instance.exact_ratio,
        poly_error=poly_error,
        ratio_error=ratio_error,
        passed=passed,
    )
