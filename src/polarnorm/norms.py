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

All starts of one estimate ascend in lockstep as one (S, n, d) array.
Every move evaluates the batch it reads, the tuples of the starts still
iterating.  Backtracking is one loop over halving ladders, one call per
round: the first round tries every start's own step, each later round the
next max(1, 4 S // pending) halvings of every start still pending, so a
call evaluates at most 4 S tuples, and each start takes the largest step
that improves.  Each start keeps its own step sizes and leaves the batch
when it converges, so it accepts the same candidates it would accept
alone, halving one step at a time.  The best start is the first of the
highest values, in start order.  The ell_p geometry below acts row-wise
on the last axis.  The sign-pattern candidates and the seeded restart
tuples depend only on their key, not on the form, so each is built once
and cached read-only; the restarts are keyed by (seed, restarts, space),
and every block count takes the first blocks of one draw.

Where a classical bound gives the norm exactly, the estimate also stops by
proof: _certified_upper returns max|a_i| for a pure-power form
sum_i a_i x_i^m at p <= m, and the largest singular value of the
coefficient matrix for a quadratic at p = 2, bounds that hold for every
pattern.  The ascent ends after the first sweep whose best value reaches
that bound, compared exactly, with no slack.  starts_converged still
counts only the starts that met tol.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .forms import (
    COMPLEX,
    POLARIZE_DEGREE_CAP,
    REAL,
    Pattern,
    SpaceSpec,
    SymmetricForm,
    _coordinate_coeffs,
    _mixed_value_grad,
    _mixed_values,
    as_pattern,
    conjugate_exponent,
)
from . import bounds as bounds_mod

_MIN_STEP = 1e-18
# later halving rounds evaluate up to _LADDER_FILL * S tuples per call.  On
# a 2-vCPU Xeon, verify-c21-l1 made 1.09x, 1.14x and 1.17x the reports per
# kcal of a fill of 1 at fills of 2, 4 and 8 (two 20 s runs each), and
# estimate-nonattaining-49 peaked at 41.1 MB at 4, 41.7 MB at 8 and 47.8 MB
# with whole ladders in one round, against 41.2 MB before
_LADDER_FILL = 4
_MAX_STEP = 4.0
_CANDIDATE_CAP = 20_000
_TOP_CANDIDATE_STARTS = 8


class NormError(ValueError):
    """Invalid arguments for a norm estimation request."""


class DegenerateFormError(NormError):
    """The polynomial norm estimate is zero, so a ratio has no denominator."""


@dataclass(frozen=True)
class OptimizerConfig:
    """Multi-start ascent settings.

    Each restart draws from an independent substream derived from
    (seed, restart index).  The draws depend only on the seed, the restart
    count and the space, so they are built once per key, cached, and
    shared by every block count.  All starts of one estimate ascend
    together in lockstep, so parallel is accepted for compatibility and
    has no effect on what is computed or returned.  The tolerance applies
    to the relative objective change between accepted iterates.  tol and
    init_step must be positive, init_step finite, and max_iter at least 0;
    NormError otherwise.
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
        if self.max_iter < 0:
            raise NormError(f"max_iter must be >= 0, got {self.max_iter}")
        # NaN fails these comparisons: a NaN tol never converges a start, and
        # a NaN step never ascends
        if not self.tol > 0:
            raise NormError(f"tol must be positive, got {self.tol}")
        if not 0 < self.init_step < math.inf:
            raise NormError(f"init_step must be positive and finite, got {self.init_step}")


DEFAULT_CONFIG = OptimizerConfig()


@dataclass
class NormEstimate:
    """A lower bound on a supremum, with the witnesses that attain it.

    starts_converged counts the starts that met tol; starts stopped because
    the best value met a certified upper bound are not counted.
    """

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
#
# Each function takes one vector (d,) or rows (S, d) and acts on the last axis.


def lp_norm(x: np.ndarray, p: float):
    """ell_p norm: a float for a vector, shape (S,) for rows.

    Moduli are divided by the largest before powering, so no finite p,
    however close to 1 or large, underflows a nonzero vector to norm 0.
    """
    moduli = np.abs(x)
    top = moduli.max(axis=-1, keepdims=True, initial=0.0)
    # kept dimensions: numpy's scalar power can round differently from its
    # array power, and a vector must get the same norm as the same row
    if math.isinf(p):
        norm = top
    elif p == 1.0:
        norm = moduli.sum(axis=-1, keepdims=True)
    else:
        scale = np.where(top > 0, top, 1.0)
        norm = scale * ((moduli / scale) ** p).sum(axis=-1, keepdims=True) ** (1.0 / p)
    return float(norm[0]) if x.ndim == 1 else norm[..., 0]


def radial_normalize(x: np.ndarray, p: float) -> np.ndarray:
    norm = lp_norm(x, p)
    if np.any(norm == 0.0):
        raise NormError("cannot normalize the zero vector")
    return x / np.asarray(norm)[..., None]


def project_l1_sphere(x: np.ndarray) -> np.ndarray:
    """Nearest point of the unit l1 sphere.

    Exterior points project by soft thresholding of the moduli (phases are
    kept); interior points are pushed out radially.
    """
    rows = x.reshape(-1, x.shape[-1])
    moduli = np.abs(rows)
    total = moduli.sum(axis=1, keepdims=True)
    if np.any(total == 0.0):
        raise NormError("cannot project the zero vector")
    sorted_m = np.sort(moduli, axis=1)[:, ::-1]
    tau_candidates = (np.cumsum(sorted_m, axis=1) - 1.0) / np.arange(1, rows.shape[1] + 1)
    # the threshold of the last rank whose sorted modulus exceeds it
    k = rows.shape[1] - 1 - (sorted_m > tau_candidates)[:, ::-1].argmax(axis=1)
    tau = tau_candidates[np.arange(len(rows)), k][:, None]
    shrunk = np.maximum(moduli - tau, 0.0)
    phases = np.where(moduli > 0, rows / np.where(moduli > 0, moduli, 1.0), 0.0)
    return np.where(total <= 1.0, rows / total, phases * shrunk).reshape(x.shape)


def _clip_linf(x: np.ndarray) -> np.ndarray:
    """Entries of modulus above 1 scaled onto the unit circle; a row inside
    the ball is pushed out radially instead."""
    moduli = np.abs(x)
    top = moduli.max(axis=-1, keepdims=True)
    return x / np.where(top > 1.0, np.maximum(moduli, 1.0), np.where(top > 0, top, 1.0))


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

    For 1 < p < infinity the moduli are scaled by their largest, top, as in
    lp_norm, so w = (|phi| / top)^{p'-1} has largest entry exactly 1.0.
    For real phi, lp_norm of sign(phi) * w would then rescale by 1.0 and
    power the moduli w themselves, so the norm is taken from w directly:
    the bits of radial_normalize, in one pass, with no zero row possible.
    """
    moduli = np.abs(phi)
    top = moduli.max(axis=-1, keepdims=True)
    zero = top == 0.0
    if zero.any():
        e1 = np.eye(1, dim)[0]
        phi, moduli = np.where(zero, e1, phi), np.where(zero, e1, moduli)
        top = np.where(zero, 1.0, top)
    if np.iscomplexobj(phi):
        phases = np.where(moduli > 0, np.conj(phi) / np.where(moduli > 0, moduli, 1.0), 0.0)
    else:
        phases = np.sign(phi)
    if p == 1.0:
        idx = np.argmax(moduli, axis=-1)[..., None]
        return np.where(np.arange(dim) == idx, phases, 0.0)
    if math.isinf(p):
        return phases
    # scaled like lp_norm: near p = 1 the power p' - 1 is huge
    w = (moduli / top) ** (conjugate_exponent(p) - 1.0)
    if np.iscomplexobj(phi):
        return radial_normalize(phases * w, p)
    return phases * w / (w**p).sum(axis=-1, keepdims=True) ** (1.0 / p)


# ---------------------------------------------------------------------------
# deterministic structured starts


@functools.lru_cache(maxsize=8)
def _ternary_candidates(dim: int, p: float, field: str) -> np.ndarray:
    """Normalized sign-pattern candidates {-1,0,1}^d (plus phases i, -i when
    the complex set stays small), one per class of unit multiples; exact
    maximizers of many extremal instances at p in {1, inf} live on this set.

    Every block value and every ell_p norm ignores a unit scalar on a
    block, so of the rows c*x, c in {-1, 1} (and {i, -i} with the complex
    alphabet), only the one whose first nonzero entry is 1 is kept, in
    itertools.product order: (|A|^d - 1) / |U| rows.  The cap counts the
    whole alphabet's rows.  Built once per key and returned read-only.
    """
    alphabet: tuple = (-1.0, 0.0, 1.0)
    if field == COMPLEX and (5**dim - 1) <= _CANDIDATE_CAP:
        alphabet = (0.0, 1.0, -1.0, 1.0j, -1.0j)
    if len(alphabet) ** dim - 1 > _CANDIDATE_CAP:
        cands = np.zeros((0, dim))
    else:
        rows = [row for row in itertools.product(alphabet, repeat=dim)
                if next((c for c in row if c != 0), None) == 1]
        arr = np.array(rows, dtype=np.complex128 if field == COMPLEX else np.float64)
        cands = radial_normalize(arr, p)
    cands.flags.writeable = False
    return cands


def _restart_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))


@functools.lru_cache(maxsize=8)
def _restart_tuples(seed: int, restarts: int, blocks: int, dim: int, p: float,
                    field: str) -> np.ndarray:
    """The seeded random starts (restarts, blocks, d), read-only: restart i
    draws all its blocks, each a real part then an imaginary part for
    complex fields, in one call to _restart_rng(seed, i), and every row
    is normalized in one pass.

    A generator's stream does not depend on how its draws are split, so
    the first n blocks are the n-block starts, and every block count of
    one (seed, restarts, space) shares one build; the small cache keeps a
    cycle of many seeds from holding their draws.
    """
    shape = (blocks, 2, dim) if field == COMPLEX else (blocks, dim)
    draws = np.stack([_restart_rng(seed, i).standard_normal(shape) for i in range(restarts)])
    if field == COMPLEX:
        draws = draws[:, :, 0] + 1j * draws[:, :, 1]
    tuples = radial_normalize(draws, p)
    tuples.flags.writeable = False
    return tuples


# ---------------------------------------------------------------------------
# block values and gradients
#
# A single block is P itself, so every helper evaluates it directly rather
# than through the block sign table.


def _values(form: SymmetricForm, pat: Pattern, tuples: np.ndarray) -> np.ndarray:
    """|L(x_1^{k_1} ... x_n^{k_n})| for each argument tuple; tuples (T, n, d)."""
    if pat.n == 1:
        return np.abs(form.eval_batch(tuples[:, 0, :]))
    return _mixed_values(form, pat.multiplicities, tuples, modulus=True)


def _value_grads(form: SymmetricForm, pat: Pattern, tuples: np.ndarray):
    """Signed values (T,) and block gradients (T, n, d) of tuples (T, n, d)."""
    if pat.n == 1:
        vals, grads = form.eval_grad_batch(tuples[:, 0, :])
        return vals, grads[:, None, :]
    return _mixed_value_grad(form, pat.multiplicities, tuples)


def _max_abs_univariate(coeffs: np.ndarray):
    """Per row of ascending coefficients (A, K + 1) of q: (t*, |q(t*)|) over
    [-1, 1], from the real stationary points of q plus the endpoints.

    Roots come from companion eigenvalues, batched over the rows whose
    derivative has the same degree once trailing zero coefficients are
    dropped; the first of equal maxima in ascending t wins.
    """
    rows, size = coeffs.shape
    deriv = coeffs[:, 1:] * np.arange(1, size)
    nonzero = deriv != 0
    degree = np.where(nonzero.any(axis=1), size - 2 - nonzero[:, ::-1].argmax(axis=1), 0)
    roots = np.full((rows, max(size - 2, 0)), np.nan, dtype=complex)
    for k in np.unique(degree[degree > 0]):
        sel = np.flatnonzero(degree == k)
        c = deriv[sel, : k + 1]
        if k == 1:
            roots[sel, 0] = -c[:, 0] / c[:, 1]
            continue
        companion = np.zeros((len(sel), k, k))
        companion.reshape(len(sel), -1)[:, k :: k + 1] = 1.0
        companion[:, :, -1] -= c[:, :-1] / c[:, -1:]
        roots[sel, :k] = np.linalg.eigvals(companion)
    real = (np.abs(roots.imag) <= 1e-9 * (1.0 + np.abs(roots.real))) & (np.abs(roots.real) <= 1.0)
    ends = np.broadcast_to([-1.0, 1.0], (rows, 2))
    t = np.sort(np.concatenate([ends, np.where(real, roots.real, np.nan)], axis=1), axis=1)
    q = coeffs[:, -1:] + t * 0
    for e in range(size - 2, -1, -1):
        q = coeffs[:, e : e + 1] + q * t
    values = np.where(np.isnan(t), -np.inf, np.abs(q))
    best = values.argmax(axis=1)
    pick = np.arange(rows)
    return t[pick, best], values[pick, best]


def _ascent_direction(values: np.ndarray, grads: np.ndarray):
    """Per row, the unit direction in which |value| grows, and its length
    before scaling (0 where there is none); values (R,), grads (R, d)."""
    if np.iscomplexobj(grads):
        # at a zero of P the modulus still grows linearly along conj(grad)
        dirn = np.conj(grads) * np.where(values != 0, values, 1.0)[:, None]
    else:
        dirn = np.where((values >= 0)[:, None], grads, -grads)
    # np.linalg.norm(dirn, axis=1), without its dispatch
    norm = np.sqrt(np.add.reduce((dirn.conj() * dirn).real, axis=1))
    return dirn / np.where(norm > 0, norm, 1.0)[:, None], norm


# ---------------------------------------------------------------------------
# the ascent engine


def _score_grid(form, pat: Pattern, cands: np.ndarray):
    """Every tuple of the product grid cands^n, (T, n, d) in row-major order
    of the candidate indices, and its value |L| (T,)."""
    combos = np.indices((len(cands),) * pat.n).reshape(pat.n, -1).T
    tuples = cands[combos]
    return tuples, _values(form, pat, tuples)


def _starts(form, space, pat: Pattern, cfg: OptimizerConfig, extra_starts, diag_witness):
    """Argument tuples (S, n, d) to ascend from: the diagonal witness, axes, the
    normalized ones vector, the best ternary tuples at p in {1, inf}, the
    caller's extra starts, then one seeded random tuple per restart.

    The ternary tuples are the top values of the product grid of class
    representatives, so no two are unit multiples block by block; the grid
    is scored only while it has at most _CANDIDATE_CAP tuples.  The
    candidates and the restart tuples come from small per-key caches and
    are read-only; the final np.concatenate copies them.
    """
    d, p, n = form.dim, space.p, pat.n
    dtype = np.complex128 if form.field == COMPLEX else np.float64
    parts: list[np.ndarray] = []
    if cfg.structured_starts:
        # each of these vectors fills every block of its start
        vectors = [np.eye(d, dtype=dtype), radial_normalize(np.ones((1, d), dtype=dtype), p)]
        if diag_witness is not None:
            vectors.insert(0, diag_witness.astype(dtype)[None])
        diagonal = np.concatenate(vectors)
        parts.append(np.broadcast_to(diagonal[:, None], (len(diagonal), n, d)))
        if p == 1.0 or math.isinf(p):
            cands = _ternary_candidates(d, p, form.field)
            if len(cands) and len(cands) ** n <= _CANDIDATE_CAP:
                tuples, vals = _score_grid(form, pat, cands)
                parts.append(tuples[np.argsort(-vals, kind="stable")[:_TOP_CANDIDATE_STARTS]])
    if len(extra_starts):
        parts.append(np.array([[np.asarray(x, dtype=dtype) for x in xs] for xs in extra_starts]))
    # as many blocks as any estimate of this form takes, so they share one draw
    blocks = max(n, form.degree if form.degree <= POLARIZE_DEGREE_CAP else 1)
    parts.append(_restart_tuples(cfg.seed, cfg.restarts, blocks, d, p, form.field)[:, :n])
    return np.concatenate(parts)


def _coordinate_moves(form, pat: Pattern, j: int, xs, vals, act) -> None:
    """Exact coordinate moves of block j on the real sup-norm ball, for the
    starts act; updates xs (S, n, d) and vals (S,) in place."""
    for i in range(form.dim):
        t_star, v_star = _max_abs_univariate(
            _coordinate_coeffs(form, pat.multiplicities, xs[act], j, i))
        better = v_star > vals[act]
        xs[act[better], j, i] = t_star[better]
        vals[act[better]] = v_star[better]
    top = np.abs(xs[act, j]).max(axis=1)
    inside = (0.0 < top) & (top < 1.0)
    if inside.any():
        rows = act[inside]
        xs[rows, j] /= top[inside, None]
        vals[rows] = _values(form, pat, xs[rows])


def _gradient_moves(form, p: float, pat: Pattern, j: int, xs, vals, steps, act,
                    init_step: float) -> None:
    """One projected gradient step with backtracking on block j, for the
    starts act.  Updates xs (S, n, d), vals (S,) and steps (S, n) in place.

    One loop walks each start's halving ladder step * 2^-k, one kernel call
    per round.  The first round tries rung 0, every start's own step; each
    later round gives every start still pending its next w rungs,
    w = max(1, _LADDER_FILL * S // pending), so no call evaluates more than
    _LADDER_FILL * S tuples and a lone stalled start walks its whole ladder
    in one call.  A start takes its first (largest) improving rung: the
    step that halving one at a time would accept; the rungs past it are
    evaluated and unused.
    """
    raw, grads = _value_grads(form, pat, xs[act])
    dirn, gnorm = _ascent_direction(raw, grads[:, j])
    moving = gnorm > 0
    rows, dirn = act[moving], dirn[moving]
    step = steps[rows, j]
    accepted = np.zeros(len(rows), dtype=bool)
    pending = np.flatnonzero(step >= _MIN_STEP)
    rungs = np.arange(1)
    while len(pending):
        # ldexp halves exactly: rung k has the bits of k successive halvings
        ladder = np.ldexp(step[pending, None], -rungs)
        valid = ladder >= _MIN_STEP
        idx, trial = pending[valid.nonzero()[0]], ladder[valid]
        tried = rows[idx]
        cand = xs[tried]
        cand[:, j] = _sphere_move(cand[:, j] + trial[:, None] * dirn[idx], p)
        cvals = _values(form, pat, cand)
        # idx ascends and, within a start, trial descends: the first improving
        # candidate of each start is its largest improving step
        up = np.flatnonzero(cvals > vals[tried])
        first = up[idx[up] != np.append(-1, idx[up][:-1])]
        won = idx[first]
        xs[rows[won]] = cand[first]
        vals[rows[won]] = cvals[first]
        step[won] = trial[first]
        accepted[won] = True
        pending = pending[~accepted[pending] & (0.5 * ladder[:, -1] >= _MIN_STEP)]
        # rungs count halvings of the entry step; pending never outnumbers the
        # S starts, so each gets at least _LADDER_FILL rungs (the max guards
        # the loop's end)
        rungs = rungs[-1] + np.arange(1, _LADDER_FILL * len(xs) // max(1, len(pending)) + 1)
    # a stalled block may become movable again once the others shift, so
    # failure resets the step instead of pinning it
    steps[rows, j] = np.where(accepted, np.minimum(step * 1.3, _MAX_STEP), init_step)


def _block_ascent(form, p: float, pat: Pattern, xs0: np.ndarray, cfg: OptimizerConfig,
                  *, upper: float | None = None):
    """Cyclic block moves from every start xs0 (S, n, d) in lockstep:
    (values (S,), xs (S, n, d), converged (S,)).

    converged marks the starts that met tol.  With upper, a proven upper
    bound on every value, all starts stop at the end of the first sweep
    whose best value is at least upper; those still iterating stay
    unconverged.

    The starts still iterating (act) make each move together, and each move
    evaluates the batch xs[act] it reads; every start keeps its own step
    sizes and leaves when it converges, so it follows the path it would
    follow alone.
    """
    S, n, d = xs0.shape
    xs = _sphere_move(xs0.reshape(-1, d), p).reshape(S, n, d)
    real_sup = form.field == REAL and math.isinf(p)
    vals = _values(form, pat, xs)
    steps = np.full((S, n), cfg.init_step)
    converged = np.zeros(S, dtype=bool)
    act = np.arange(S)
    for _ in range(cfg.max_iter):
        before = vals[act]
        # after a linear move the values are evaluated only once a later
        # move or the sweep's end needs them
        stale = False
        for j, k_j in enumerate(pat.multiplicities):
            if k_j == 1:
                _, grads = _value_grads(form, pat, xs[act])
                xs[act, j] = dual_align(grads[:, j], p, d)
                stale = True
                continue
            if stale:
                vals[act] = _values(form, pat, xs[act])
                stale = False
            if real_sup:
                _coordinate_moves(form, pat, j, xs, vals, act)
            else:
                _gradient_moves(form, p, pat, j, xs, vals, steps, act, cfg.init_step)
        if stale:
            vals[act] = _values(form, pat, xs[act])
        done = vals[act] - before <= cfg.tol * np.maximum(vals[act], 1e-300)
        converged[act[done]] = True
        if upper is not None and vals.max() >= upper:
            break
        act = act[~done]
        if not len(act):
            break
    return vals, xs, converged


def _certified_upper(form: SymmetricForm, p: float) -> float | None:
    """A proven upper bound on |L(x_1^{k_1} ... x_n^{k_n})| over unit vectors
    of ell_p, for every pattern, or None where neither case applies.

    - Width 1, P = sum_i a_i x_i^m, p <= m: |L| <= max|a_i| sum_i prod_j
      |x_{j,i}|^{k_j} <= max|a_i| prod_j ||x_j||_m^{k_j} <= max|a_i|, by
      Hoelder with exponents m / k_j and ||x||_m <= ||x||_p.
    - m = 2, p = 2: L(x, y) = x^T A y with A_ii = a_{2e_i} and
      A_ij = A_ji = a_{e_i+e_j} / 2, so every pattern's norm is the largest
      singular value of A: max|lambda| for real A, the Takagi value for
      complex A.
    Both are attained, at an axis and at a singular vector.
    """
    top = form._pure_power_top
    if top is not None and p <= form.degree:
        return top
    if form.degree == 2 and p == 2.0:
        A = np.zeros((form.dim, form.dim), dtype=complex if form.field == COMPLEX else float)
        for alpha, a in form.coeffs.items():
            i, j = np.repeat(np.arange(form.dim), alpha.exponents)
            A[i, j] = A[j, i] = a if i == j else a / 2
        return float(np.linalg.norm(A, 2))
    return None


def _estimate(form, space, pat: Pattern, cfg: OptimizerConfig, extra_starts, diag_witness,
              method: str) -> NormEstimate:
    """Best block ascent over all starts, renormalized onto the unit sphere;
    the ascent stops early once its best value meets _certified_upper."""
    p = space.p
    starts = _starts(form, space, pat, cfg, extra_starts, diag_witness)
    vals, tuples, converged = _block_ascent(form, p, pat, starts, cfg,
                                            upper=_certified_upper(form, p))
    # index-ordered strict reduction: the first of equal values wins
    best = 0
    for s in range(1, len(vals)):
        if vals[s] > vals[best]:
            best = s
    xs = tuples[best]
    nonzero = lp_norm(xs, p) > 0
    xs[nonzero] = radial_normalize(xs[nonzero], p)
    value = float(_values(form, pat, xs[None])[0])
    return NormEstimate(value, list(xs), method, int(converged.sum()))


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
    *,
    poly: NormEstimate | None = None,
) -> NormEstimate:
    """Estimate the full multilinear norm sup |L(x_1, ..., x_m)|.

    The all-ones pattern of the block ascent, i.e. alternating maximization:
    with all slots but one fixed the objective is linear, so each slot update
    is the exact dual-alignment maximizer.  The diagonal witness of poly_norm
    seeds one start, which keeps the estimate at or above the polynomial norm.
    A caller that holds poly_norm(form, space, config) passes it as poly,
    and it is not estimated again.
    """
    _check_space(form, space)
    if form.degree > POLARIZE_DEGREE_CAP:
        raise NormError(f"degree {form.degree} exceeds the polarization cap")
    pat = as_pattern(tuple([1] * form.degree))
    if poly is None:
        poly = poly_norm(form, space, config)
    return _estimate(form, space, pat, config, extra_starts, poly.witnesses[0], "alternating")


def mixed_norm(
    form: SymmetricForm,
    space: SpaceSpec,
    pattern,
    config: OptimizerConfig = DEFAULT_CONFIG,
    extra_starts: Sequence = (),
    *,
    poly: NormEstimate | None = None,
) -> NormEstimate:
    """Estimate sup |L(x_1^{k_1} ... x_n^{k_n})| over unit vectors.

    Block ascent seeded with the diagonal witness of poly_norm; all-ones
    patterns go through multilinear_norm.  A caller that holds
    poly_norm(form, space, config) passes it as poly, and it is not
    estimated again; the result is the same.  For the pattern (m,) with no
    extra starts that estimate is the result itself.
    """
    _check_space(form, space)
    pat = as_pattern(pattern)
    if pat.m != form.degree:
        raise NormError(f"pattern sums to {pat.m}, form degree is {form.degree}")
    if pat.n > 1 and set(pat.multiplicities) == {1}:
        return replace(multilinear_norm(form, space, config, extra_starts, poly=poly),
                       method="ascent")
    if pat.n == 1:
        if poly is not None and not len(extra_starts):
            return replace(poly)
        return _estimate(form, space, pat, config, extra_starts, None, "ascent")
    if poly is None:
        poly = poly_norm(form, space, config)
    return _estimate(form, space, pat, config, extra_starts, poly.witnesses[0], "ascent")


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
    norms = lp_norm(dirs, p)
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
    refine = radial_normalize(refine, p)
    return np.concatenate([cands, refine]) if len(cands) else refine


def grid_oracle(
    form: SymmetricForm,
    space: SpaceSpec,
    pattern=None,
    resolution: int = 64,
) -> NormEstimate:
    """Deterministic sampling lower bound used to validate the ascent estimators.

    Dense angular grids cover dim <= 3; at p in {1, inf} the sign-pattern
    extreme points, one per class of unit multiples (plus a fixed random
    refinement stream), cover any small dimension.  Doubling the resolution
    never decreases the value.  starts_converged is the number of tuples
    scored: the candidate count to the power n.
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
    tuples, vals = _score_grid(form, pat, cands)
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
        raise DegenerateFormError("polynomial norm estimate is zero (degenerate form)")
    mixed = mixed_norm(form, space, pat, config, poly=poly)
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
