"""Lower-bound estimation of polynomial / multilinear / mixed norms on ell_p balls.

Every estimator returns a NormEstimate: the best objective value found over
a deterministic family of starts (structured candidates plus seeded random
restarts), together with the witness vectors that attain it.  Values are
always lower bounds on the true suprema.

All three estimators run one engine, block ascent over the argument tuple
(x_1, ..., x_n) of a pattern (k_1, ..., k_n): poly_norm is the pattern
(m,), multilinear_norm the pattern (1, ..., 1), and mixed_norm any other.
Each sweep moves every block in turn, holding the others fixed:

- a linear block (k_j = 1) jumps to the exact maximizer of the linear
  functional it sees, by dual-norm alignment;
- a higher block on the real sup-norm ball takes exact coordinate moves,
  each maximizing a univariate polynomial over [-1, 1];
- any other block takes a projected gradient step with backtracking:
  radial normalization for 1 < p < infinity, soft-threshold projection
  for p = 1, modulus clipping for complex p = infinity.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .forms import (
    COMPLEX,
    REAL,
    Pattern,
    SpaceSpec,
    SymmetricForm,
    _mixed_value_grad,
    _mixed_values,
    as_pattern,
    conjugate_exponent,
)
from . import bounds as bounds_mod

_MIN_STEP = 1e-18
_MAX_STEP = 4.0
_CANDIDATE_CAP = 20_000
_TOP_CANDIDATE_STARTS = 8


class NormError(ValueError):
    """Invalid arguments for a norm estimation request."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start ascent settings.

    Each restart draws from an independent substream derived from
    (seed, restart index), so results do not depend on whether starts run
    serially or concurrently.  The tolerance applies to the relative
    objective change between accepted iterates.
    """

    restarts: int = 32
    max_iter: int = 500
    tol: float = 1e-10
    seed: int = 0
    parallel: bool = False
    init_step: float = 0.5
    structured_starts: bool = True

    def __post_init__(self):
        if self.restarts < 1:
            raise NormError(f"restarts must be >= 1, got {self.restarts}")
        if self.tol <= 0:
            raise NormError(f"tol must be positive, got {self.tol}")


DEFAULT_CONFIG = OptimizerConfig()


@dataclass
class NormEstimate:
    """A lower bound on a supremum, with the witnesses that attain it."""

    value: float
    witnesses: list[np.ndarray]
    method: str  # ascent | alternating | grid
    starts_converged: int

    def to_dict(self) -> dict:
        witnesses = []
        for w in self.witnesses:
            if np.iscomplexobj(w):
                witnesses.append([[float(c.real), float(c.imag)] for c in w])
            else:
                witnesses.append([float(c) for c in w])
        return {
            "value": self.value,
            "witnesses": witnesses,
            "method": self.method,
            "starts_converged": self.starts_converged,
        }


# ---------------------------------------------------------------------------
# ell_p geometry


def lp_norm(x: np.ndarray, p: float) -> float:
    moduli = np.abs(x)
    if math.isinf(p):
        return float(moduli.max()) if x.size else 0.0
    if p == 1.0:
        return float(moduli.sum())
    return float((moduli**p).sum() ** (1.0 / p))


def radial_normalize(x: np.ndarray, p: float) -> np.ndarray:
    norm = lp_norm(x, p)
    if norm == 0.0:
        raise NormError("cannot normalize the zero vector")
    return x / norm


def project_l1_sphere(x: np.ndarray) -> np.ndarray:
    """Nearest point of the unit l1 sphere.

    Exterior points project by soft thresholding of the moduli (phases are
    kept); interior points are pushed out radially.
    """
    moduli = np.abs(x)
    total = moduli.sum()
    if total == 0.0:
        raise NormError("cannot project the zero vector")
    if total <= 1.0:
        return x / total
    sorted_m = np.sort(moduli)[::-1]
    cumsum = np.cumsum(sorted_m)
    ranks = np.arange(1, len(sorted_m) + 1)
    tau_candidates = (cumsum - 1.0) / ranks
    k = np.nonzero(sorted_m - tau_candidates > 0)[0][-1]
    tau = tau_candidates[k]
    shrunk = np.maximum(moduli - tau, 0.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        phases = np.where(moduli > 0, x / np.where(moduli > 0, moduli, 1.0), 0.0)
    return phases * shrunk


def _clip_linf(x: np.ndarray) -> np.ndarray:
    moduli = np.abs(x)
    over = moduli > 1.0
    if not over.any():
        mx = moduli.max()
        return x / mx if mx > 0 else x
    out = x.copy()
    out[over] = x[over] / moduli[over]
    return out


def _sphere_move(x: np.ndarray, p: float) -> np.ndarray:
    if p == 1.0:
        return project_l1_sphere(x)
    if math.isinf(p):
        return _clip_linf(x)
    return radial_normalize(x, p)


def dual_align(phi: np.ndarray, p: float, dim: int) -> np.ndarray:
    """Exact maximizer of |<phi, y>| over the ell_p unit ball.

    Real phi: y_i = sign(phi_i) |phi_i|^{p'-1}, normalized; complex phi uses
    the conjugate phase.  Ties at p = 1 break to the lowest index; the zero
    functional returns e_1.
    """
    moduli = np.abs(phi)
    if not moduli.any():
        e1 = np.zeros(dim, dtype=phi.dtype)
        e1[0] = 1.0
        return e1
    with np.errstate(invalid="ignore", divide="ignore"):
        phases = np.where(moduli > 0, np.conj(phi) / np.where(moduli > 0, moduli, 1.0), 0.0)
    if not np.iscomplexobj(phi):
        phases = np.sign(phi)
    if p == 1.0:
        idx = int(np.argmax(moduli))
        out = np.zeros(dim, dtype=phi.dtype)
        out[idx] = phases[idx]
        return out
    if math.isinf(p):
        return phases.astype(phi.dtype)
    weights = moduli ** (conjugate_exponent(p) - 1.0)
    return radial_normalize(phases * weights, p)


# ---------------------------------------------------------------------------
# deterministic structured starts


def _ternary_candidates(dim: int, p: float, field: str) -> np.ndarray:
    """Normalized sign-pattern candidates {-1,0,1}^d (plus phases i, -i when
    the complex set stays small); exact maximizers of many extremal
    instances at p in {1, inf} live on this set."""
    alphabet: tuple = (-1.0, 0.0, 1.0)
    if field == COMPLEX and (5**dim - 1) <= _CANDIDATE_CAP:
        alphabet = (0.0, 1.0, -1.0, 1.0j, -1.0j)
    if len(alphabet) ** dim - 1 > _CANDIDATE_CAP:
        return np.zeros((0, dim))
    rows = [row for row in itertools.product(alphabet, repeat=dim) if any(c != 0 for c in row)]
    arr = np.array(rows, dtype=np.complex128 if field == COMPLEX else np.float64)
    moduli = np.abs(arr)
    if math.isinf(p):
        norms = moduli.max(axis=1)
    elif p == 1.0:
        norms = moduli.sum(axis=1)
    else:
        norms = (moduli**p).sum(axis=1) ** (1.0 / p)
    return arr / norms[:, None]


def _random_unit(rng: np.random.Generator, dim: int, p: float, field: str) -> np.ndarray:
    if field == COMPLEX:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    else:
        v = rng.standard_normal(dim)
    return radial_normalize(v, p)


def _restart_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))


def _run_starts(starts, worker, parallel: bool):
    """Evaluate every start with the worker; reduction is index-ordered so
    concurrent execution returns bit-identical results."""
    if parallel and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=min(8, len(starts))) as pool:
            outcomes = list(pool.map(worker, starts))
    else:
        outcomes = [worker(s) for s in starts]
    best = outcomes[0]
    for out in outcomes[1:]:
        if out[0] > best[0]:
            best = out
    converged = sum(1 for out in outcomes if out[2])
    return best, converged


# ---------------------------------------------------------------------------
# block values, gradients and coordinate polynomials
#
# A single block is P itself, so every helper evaluates it directly rather
# than through the block sign table.


def _values(form: SymmetricForm, pat: Pattern, tuples: np.ndarray) -> np.ndarray:
    """|L(x_1^{k_1} ... x_n^{k_n})| for each argument tuple; tuples (T, n, d)."""
    if pat.n == 1:
        return np.abs(form.eval_batch(tuples[:, 0, :]))
    return _mixed_values(form, pat.multiplicities, tuples, modulus=True)


def _value(form: SymmetricForm, pat: Pattern, xs: np.ndarray) -> float:
    # numpy's scalar and array complex moduli can differ in the last bit; a
    # single block keeps the scalar one its values have always used
    if pat.n == 1:
        return float(abs(form.eval_batch(xs)[0]))
    return float(_mixed_values(form, pat.multiplicities, xs[None], modulus=True)[0])


def _value_grads(form: SymmetricForm, pat: Pattern, xs: np.ndarray):
    """Signed value and the (n, d) block gradients at one argument tuple."""
    if pat.n == 1:
        vals, grads = form.eval_grad_batch(xs)
        return vals[0], grads
    return _mixed_value_grad(form, pat.multiplicities, xs)


def _coordinate_coeffs(form: SymmetricForm, pat: Pattern, xs: np.ndarray, j: int, i: int):
    """Ascending coefficients of t -> L(... (x_j with coordinate i = t)^{k_j} ...),
    exactly, for real forms."""
    if pat.n == 1:
        probe = xs[0].copy()
        probe[i] = 1.0
        monomials = np.prod(probe[None, None, :] ** form._exponents[None, :, :], axis=2)[0]
        contrib = monomials * form._values
        return np.bincount(form._exponents[:, i], weights=contrib, minlength=form.degree + 1)
    # multilinear expansion of block j in the basis direction e_i
    k_j = pat.multiplicities[j]
    base = xs[j].copy()
    base[i] = 0.0
    e_i = np.zeros(form.dim)
    e_i[i] = 1.0
    coeffs = np.zeros(k_j + 1)
    for s in range(k_j + 1):
        blocks, args = [], []
        for l, k_l in enumerate(pat.multiplicities):
            if l == j:
                if k_j - s > 0:
                    blocks.append(k_j - s)
                    args.append(base)
                if s > 0:
                    blocks.append(s)
                    args.append(e_i)
            else:
                blocks.append(k_l)
                args.append(xs[l])
        value = _mixed_values(form, tuple(blocks), np.stack(args)[None])[0]
        coeffs[s] = math.comb(k_j, s) * float(np.real(value))
    return coeffs


def _max_abs_univariate(coeffs: np.ndarray):
    """(t*, |q(t*)|) over [-1, 1] via stationary points of q plus endpoints."""
    candidates = [-1.0, 1.0]
    if len(coeffs) > 1:
        deriv = npoly.polyder(coeffs)
        if np.any(deriv != 0):
            roots = npoly.polyroots(deriv)
            for r in np.atleast_1d(roots):
                if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)) and -1.0 <= r.real <= 1.0:
                    candidates.append(float(r.real))
    candidates = sorted(set(candidates))
    values = np.abs(npoly.polyval(np.array(candidates), coeffs))
    idx = int(np.argmax(values))
    return candidates[idx], float(values[idx])


def _ascent_direction(value, grad):
    if np.iscomplexobj(grad):
        # at a zero of P the modulus still grows linearly along conj(grad)
        dirn = np.conj(grad) * value if value != 0 else np.conj(grad)
    else:
        dirn = grad if value >= 0 else -grad
    norm = float(np.linalg.norm(dirn))
    return (dirn / norm, norm) if norm > 0 else (dirn, 0.0)


# ---------------------------------------------------------------------------
# the ascent engine


def _starts(form, space, pat: Pattern, cfg: OptimizerConfig, extra_starts, diag_witness):
    """Argument tuples (n, d) to ascend from: the diagonal witness, axes, the
    normalized ones vector, the best ternary tuples at p in {1, inf}, the
    caller's extra starts, then one seeded random tuple per restart."""
    d, p, n = form.dim, space.p, pat.n
    dtype = np.complex128 if form.field == COMPLEX else np.float64
    starts: list[np.ndarray] = []
    if cfg.structured_starts:
        if diag_witness is not None:
            starts.append(np.broadcast_to(diag_witness.astype(dtype), (n, d)).copy())
        for axis in np.eye(d, dtype=dtype):
            starts.append(np.broadcast_to(axis, (n, d)).copy())
        starts.append(
            np.broadcast_to(radial_normalize(np.ones(d, dtype=dtype), p), (n, d)).copy()
        )
        if p == 1.0 or math.isinf(p):
            cands = _ternary_candidates(d, p, form.field)
            if len(cands) and len(cands) ** n <= _CANDIDATE_CAP:
                combos = np.array(list(itertools.product(range(len(cands)), repeat=n)))
                tuples = cands[combos]
                vals = _values(form, pat, tuples)
                order = np.argsort(-vals, kind="stable")[:_TOP_CANDIDATE_STARTS]
                starts.extend(tuples[i] for i in order)
    for xs in extra_starts:
        starts.append(np.array([np.asarray(x, dtype=dtype) for x in xs]))
    for i in range(cfg.restarts):
        rng = _restart_rng(cfg.seed, i)
        starts.append(np.stack([_random_unit(rng, d, p, form.field) for _ in range(n)]))
    return starts


def _block_ascent(form, p: float, pat: Pattern, xs0: np.ndarray, cfg: OptimizerConfig):
    """Cyclic block moves from one start: (value, xs, converged)."""
    d = form.dim
    xs = np.stack([_sphere_move(x, p) for x in xs0])
    val = _value(form, pat, xs)
    steps = [cfg.init_step] * pat.n
    real_sup = form.field == REAL and math.isinf(p)
    converged = False
    for _ in range(cfg.max_iter):
        before = val
        for j, k_j in enumerate(pat.multiplicities):
            if k_j == 1:
                _, grads = _value_grads(form, pat, xs)
                xs[j] = dual_align(grads[j], p, d)
                # evaluated only once a later move or the sweep's end needs it
                val = None
                continue
            if val is None:
                val = _value(form, pat, xs)
            if real_sup:
                for i in range(d):
                    t_star, v_star = _max_abs_univariate(_coordinate_coeffs(form, pat, xs, j, i))
                    if v_star > val:
                        xs[j, i] = t_star
                        val = v_star
                mx = float(np.abs(xs[j]).max())
                if 0.0 < mx < 1.0:
                    xs[j] = xs[j] / mx
                    val = _value(form, pat, xs)
            else:
                raw_val, grads = _value_grads(form, pat, xs)
                dirn, gnorm = _ascent_direction(raw_val, grads[j])
                if gnorm == 0.0:
                    continue
                step = steps[j]
                accepted = False
                while step >= _MIN_STEP:
                    cand = xs.copy()
                    cand[j] = _sphere_move(xs[j] + step * dirn, p)
                    cval = _value(form, pat, cand)
                    if cval > val:
                        xs, val = cand, cval
                        accepted = True
                        break
                    step *= 0.5
                # a stalled block may become movable again once the others
                # shift, so failure resets the step instead of pinning it
                steps[j] = min(step * 1.3, _MAX_STEP) if accepted else cfg.init_step
        if val is None:
            val = _value(form, pat, xs)
        if val - before <= cfg.tol * max(val, 1e-300):
            converged = True
            break
    return val, xs, converged


def _estimate(form, space, pat: Pattern, cfg: OptimizerConfig, extra_starts, diag_witness,
              method: str) -> NormEstimate:
    """Best block ascent over all starts, renormalized onto the unit sphere."""
    p = space.p
    starts = _starts(form, space, pat, cfg, extra_starts, diag_witness)
    (_, xs, _), converged = _run_starts(
        starts, lambda xs0: _block_ascent(form, p, pat, xs0, cfg), cfg.parallel
    )
    xs = np.stack([radial_normalize(x, p) if lp_norm(x, p) > 0 else x for x in xs])
    return NormEstimate(_value(form, pat, xs), list(xs), method, converged)


# ---------------------------------------------------------------------------
# the three public estimators: patterns (m,), (1, ..., 1) and any other


def _check_space(form: SymmetricForm, space: SpaceSpec) -> None:
    if space.dim != form.dim:
        raise NormError(f"space dim {space.dim} != form dim {form.dim}")
    if space.field != form.field:
        raise NormError(f"space field {space.field!r} != form field {form.field!r}")


def poly_norm(
    form: SymmetricForm,
    space: SpaceSpec,
    config: OptimizerConfig = DEFAULT_CONFIG,
    extra_starts: Sequence = (),
) -> NormEstimate:
    """Estimate sup of |P(x)| over the unit ball of the space.

    The single-block pattern (m,) of the block ascent; the result never
    exceeds the true norm and is deterministic for a fixed seed.
    """
    _check_space(form, space)
    pat = as_pattern(form.degree)
    return _estimate(form, space, pat, config, [[x] for x in extra_starts], None, "ascent")


def multilinear_norm(
    form: SymmetricForm,
    space: SpaceSpec,
    config: OptimizerConfig = DEFAULT_CONFIG,
    extra_starts: Sequence = (),
) -> NormEstimate:
    """Estimate the full multilinear norm sup |L(x_1, ..., x_m)|.

    The all-ones pattern of the block ascent, i.e. alternating maximization:
    with all slots but one fixed the objective is linear, so each slot update
    is the exact dual-alignment maximizer.  The diagonal witness of poly_norm
    seeds one start, which keeps the estimate at or above the polynomial norm.
    """
    _check_space(form, space)
    if form.degree > 20:
        raise NormError(f"degree {form.degree} exceeds the polarization cap")
    pat = as_pattern(tuple([1] * form.degree))
    diag = poly_norm(form, space, config).witnesses[0]
    return _estimate(form, space, pat, config, extra_starts, diag, "alternating")


def mixed_norm(
    form: SymmetricForm,
    space: SpaceSpec,
    pattern,
    config: OptimizerConfig = DEFAULT_CONFIG,
    extra_starts: Sequence = (),
) -> NormEstimate:
    """Estimate sup |L(x_1^{k_1} ... x_n^{k_n})| over unit vectors.

    Block ascent seeded with the diagonal witness of poly_norm; all-ones
    patterns go through multilinear_norm.
    """
    _check_space(form, space)
    pat = as_pattern(pattern)
    if pat.m != form.degree:
        raise NormError(f"pattern sums to {pat.m}, form degree is {form.degree}")
    if pat.n > 1 and set(pat.multiplicities) == {1}:
        return replace(multilinear_norm(form, space, config, extra_starts), method="ascent")
    diag = poly_norm(form, space, config).witnesses[0] if pat.n > 1 else None
    return _estimate(form, space, pat, config, extra_starts, diag, "ascent")


# ---------------------------------------------------------------------------
# grid oracle


def _dense_sphere_grid(space: SpaceSpec, resolution: int) -> np.ndarray:
    d, p = space.dim, space.p
    if space.field == COMPLEX:
        if d != 1:
            raise NormError("dense complex grids are supported only for dim 1")
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        return (np.cos(theta) + 1j * np.sin(theta))[:, None]
    if d == 1:
        return np.array([[-1.0], [1.0]])
    if d == 2:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif d == 3:
        if (resolution + 1) * resolution > 2_000_000:
            raise NormError("resolution too fine for the dense 3-d grid")
        polar = math.pi * np.arange(resolution + 1) / resolution
        azim = 2.0 * math.pi * np.arange(resolution) / resolution
        sin_p, cos_p = np.sin(polar), np.cos(polar)
        dirs = np.stack(
            [np.outer(sin_p, np.cos(azim)).ravel(),
             np.outer(sin_p, np.sin(azim)).ravel(),
             np.repeat(cos_p, resolution)],
            axis=1,
        )
    else:
        raise NormError("dense grids are supported only for dim <= 3")
    norms = np.array([lp_norm(row, p) for row in dirs])
    keep = norms > 0
    return dirs[keep] / norms[keep, None]


def _extreme_candidates(space: SpaceSpec, resolution: int) -> np.ndarray:
    d, p = space.dim, space.p
    cands = _ternary_candidates(d, p, space.field)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(20251122, d)))
    if space.field == COMPLEX:
        raw = rng.standard_normal((resolution, 2 * d))
        refine = raw[:, :d] + 1j * raw[:, d:]
    else:
        refine = rng.standard_normal((resolution, d))
    refine = np.stack([radial_normalize(r, p) for r in refine])
    return np.concatenate([cands, refine]) if len(cands) else refine


def grid_oracle(
    form: SymmetricForm,
    space: SpaceSpec,
    pattern=None,
    resolution: int = 64,
) -> NormEstimate:
    """Deterministic sampling lower bound used to validate the ascent estimators.

    Dense angular grids cover dim <= 3; at p in {1, inf} the sign-pattern
    extreme points (plus a fixed random refinement stream) cover any small
    dimension.  Doubling the resolution never decreases the value.
    """
    _check_space(form, space)
    if resolution < 8:
        raise NormError(f"resolution must be >= 8, got {resolution}")
    extreme_mode = space.p == 1.0 or math.isinf(space.p)
    if extreme_mode:
        cands = _extreme_candidates(space, resolution)
    else:
        cands = _dense_sphere_grid(space, resolution)
    pat = as_pattern(form.degree if pattern is None else pattern)
    if pat.m != form.degree:
        raise NormError(f"pattern sums to {pat.m}, form degree is {form.degree}")
    if len(cands) ** pat.n > 2_000_000:
        raise NormError("candidate grid too large for this pattern")
    combos = np.array(list(itertools.product(range(len(cands)), repeat=pat.n)))
    tuples = cands[combos]
    vals = _values(form, pat, tuples)
    idx = int(np.argmax(vals))
    return NormEstimate(float(vals[idx]), list(tuples[idx]), "grid", len(tuples))


# ---------------------------------------------------------------------------
# ratio measurement


DEFAULT_BOUND_SLACK = 5e-3


@dataclass
class BoundCheck:
    name: str
    bound: float
    passed: bool
    sharp: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "bound": self.bound, "passed": self.passed, "sharp": self.sharp}


@dataclass
class RatioReport:
    """Measured mixed-to-polynomial norm ratio with bound comparisons."""

    pattern: tuple[int, ...]
    p: float
    field: str
    mixed: NormEstimate
    poly: NormEstimate
    ratio: float
    checks: list[BoundCheck]
    slack: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "pattern": list(self.pattern),
            "p": self.p,
            "field": self.field,
            "mixed": self.mixed.to_dict(),
            "poly": self.poly.to_dict(),
            "ratio": self.ratio,
            "checks": [c.to_dict() for c in self.checks],
            "slack": self.slack,
            "passed": self.passed,
        }


def ratio_report(
    form: SymmetricForm,
    space: SpaceSpec,
    pattern,
    config: OptimizerConfig = DEFAULT_CONFIG,
    slack: float = DEFAULT_BOUND_SLACK,
) -> RatioReport:
    """Measure |L(x_1^{k_1}...)| / ||P|| and compare with every applicable bound.

    The multiplicative slack absorbs the estimation error of the
    denominator, which is itself only a lower bound.
    """
    pat = as_pattern(pattern)
    poly = poly_norm(form, space, config)
    if poly.value == 0.0:
        raise NormError("polynomial norm estimate is zero (degenerate form)")
    mixed = mixed_norm(form, space, pat, config)
    ratio = mixed.value / poly.value
    checks = []
    for rec in bounds_mod.applicable_bounds(pat, space.p, space.field):
        checks.append(
            BoundCheck(rec.name, rec.value, ratio <= rec.value * (1.0 + slack), rec.sharp)
        )
    passed = all(c.passed for c in checks)
    return RatioReport(
        pat.multiplicities, space.p, space.field, mixed, poly, ratio, checks, slack, passed
    )
