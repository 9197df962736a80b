"""Symmetric multilinear forms stored as homogeneous-polynomial coefficients.

A degree-m form L on K^d is represented by the coefficients a_alpha of its
diagonal polynomial P(x) = sum_alpha a_alpha x^alpha.  The symmetric tensor
entry at index multiset beta is a_beta * beta!/m!, which makes the
polynomial <-> form round trip unambiguous.  All evaluation routines are
pure and operate on immutable form objects.

Only this module knows how monomials are stored: each form compiles once
into a table holding, per monomial, the flat indices e*d + i of its
nonzero exponents e, ascending in the coordinate i and padded with x_0^0 to
the widest support of any monomial of the form, so a diagonal form gathers
one power per monomial.  Values, gradients (one exponent lowered) and
coordinate polynomials multiply the gathered entries of one power table
x_i^e, 0 <= e <= m.  A padding factor 1.0 changes no bit of a real product;
of a complex one it can change only the sign of a zero part.

A table of width 1 holds pure powers x_i^m only, as a diagonal form does,
so each coordinate has at most one gradient row.  At real points each
monomial is then its one gathered power, and a real form gathers its
gradient rows straight into coordinate order instead of scattering them
by a dense 0/1 matmul, with the same bits.  Complex arithmetic keeps the
products and the matmul, whose signs of zero parts a shortcut would not
reproduce.  Such a form's largest coefficient modulus, _pure_power_top,
bounds its norms at p <= m.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

REAL = "real"
COMPLEX = "complex"

# 2^m sign patterns per polarization; beyond this the exact average is off the table.
POLARIZE_DEGREE_CAP = 20
# d^m entries for the dense tensor oracle.
TENSOR_ENTRY_CAP = 10_000_000


class FormError(ValueError):
    """Invalid construction or evaluation request for a symmetric form."""


@dataclass(frozen=True)
class MultiIndex:
    """Exponent tuple alpha of a monomial x^alpha; degree is sum(alpha)."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 for e in exps):
            raise FormError(f"multi-index entries must be >= 0, got {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)


@dataclass(frozen=True)
class Pattern:
    """Multiplicities (k_1, ..., k_n) with which base vectors enter a form."""

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        ks = tuple(int(k) for k in self.multiplicities)
        if not ks:
            raise FormError("pattern needs at least one block")
        if any(k < 1 for k in ks):
            raise FormError(f"pattern multiplicities must be >= 1, got {ks}")
        object.__setattr__(self, "multiplicities", ks)

    @property
    def n(self) -> int:
        return len(self.multiplicities)

    @property
    def m(self) -> int:
        return sum(self.multiplicities)

    def __iter__(self):
        return iter(self.multiplicities)


def as_pattern(pattern) -> Pattern:
    if isinstance(pattern, Pattern):
        return pattern
    if isinstance(pattern, int):
        return Pattern((pattern,))
    return Pattern(tuple(pattern))


@dataclass(frozen=True)
class SpaceSpec:
    """Ambient space ell_p^d over the given scalar field (p in [1, inf])."""

    p: float
    dim: int
    field: str = REAL

    def __post_init__(self):
        p = float(self.p)
        if not p >= 1.0:
            raise FormError(f"p must satisfy p >= 1, got {p}")
        if self.dim < 1:
            raise FormError(f"dim must be >= 1, got {self.dim}")
        if self.field not in (REAL, COMPLEX):
            raise FormError(f"field must be 'real' or 'complex', got {self.field!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def conjugate(self) -> float:
        """Conjugate exponent p' with 1/p + 1/p' = 1 (extended values)."""
        return conjugate_exponent(self.p)


def conjugate_exponent(p: float) -> float:
    """Conjugate exponent p' with 1/p + 1/p' = 1 (extended values)."""
    if not p >= 1.0:
        raise FormError(f"p must satisfy p >= 1, got {p}")
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


class SymmetricForm:
    """Degree-m symmetric form on K^d, keyed by monomial exponents.

    coeffs maps MultiIndex alpha (|alpha| = m, len d) to the polynomial
    coefficient a_alpha.  The instance is immutable after construction;
    cached evaluation arrays are derived lazily.
    """

    def __init__(self, degree: int, dim: int, field: str, coeffs: dict):
        if degree < 1:
            raise FormError(f"degree must be >= 1, got {degree}")
        if dim < 1:
            raise FormError(f"dim must be >= 1, got {dim}")
        if field not in (REAL, COMPLEX):
            raise FormError(f"field must be 'real' or 'complex', got {field!r}")
        clean: dict[MultiIndex, complex] = {}
        for alpha, value in coeffs.items():
            if not isinstance(alpha, MultiIndex):
                alpha = MultiIndex(tuple(alpha))
            if len(alpha) != dim:
                raise FormError(
                    f"multi-index {alpha.exponents} has length {len(alpha)}, expected dim {dim}"
                )
            if alpha.degree != degree:
                raise FormError(
                    f"multi-index {alpha.exponents} has degree {alpha.degree}, expected {degree}"
                )
            value = complex(value)
            if not np.isfinite(value):
                raise FormError(f"non-finite coefficient {value} at {alpha.exponents}")
            if field == REAL and value.imag != 0.0:
                raise FormError(f"complex coefficient {value} in a real form")
            clean[alpha] = value
        self.degree = int(degree)
        self.dim = int(dim)
        self.field = field
        # canonical key order so identical forms always evaluate identically
        self.coeffs = {
            k: (clean[k].real if field == REAL else clean[k])
            for k in sorted(clean, key=lambda a: a.exponents)
        }

    # -- derived arrays ----------------------------------------------------

    @cached_property
    def _exponents(self) -> np.ndarray:
        return np.array([k.exponents for k in self.coeffs], dtype=np.int64).reshape(-1, self.dim)

    @cached_property
    def _values(self) -> np.ndarray:
        dtype = np.float64 if self.field == REAL else np.complex128
        return np.array(list(self.coeffs.values()), dtype=dtype)

    @cached_property
    def _table(self):
        """Monomial rows (C, r), r the widest support of a monomial, plus
        gradient rows with one exponent e at coordinate i lowered, their
        weights a_alpha * e and 0/1 scatter to i, and the placement.

        At width 1 every monomial is a pure power x_i^m, so no two gradient
        rows share a coordinate.  The placement of a real form of width 1 is
        then, per coordinate, its gradient row (d, 1) and weight (d,), with
        x_0^0 and weight 0 for a coordinate that has none; None otherwise.
        """
        E = self._exponents
        r = int((E > 0).sum(axis=1).max(initial=0))
        # a stable sort of the zero flags puts the support first, in coordinate order
        coords = np.argsort(E == 0, axis=1, kind="stable")[:, :r]
        exps = np.take_along_axis(E, coords, axis=1)
        support = exps > 0
        rows = np.where(support, exps * self.dim + coords, 0)
        grad_rows = (rows[:, None, :] - self.dim * np.eye(r, dtype=np.int64))[support]
        grad_weights = (self._values[:, None] * exps)[support]
        scatter = np.zeros((len(grad_rows), self.dim))
        scatter[np.arange(len(grad_rows)), coords[support]] = 1.0
        placed = None
        if r == 1 and self.field == REAL:
            place_rows = np.zeros((self.dim, 1), dtype=np.int64)
            place_weights = np.zeros(self.dim)
            place_rows[coords[support]] = grad_rows
            place_weights[coords[support]] = grad_weights
            placed = place_rows, place_weights
        return rows, grad_rows, grad_weights, scatter, placed

    @cached_property
    def _pure_power_top(self):
        """max |a_alpha| when the table has width 1, every monomial a pure
        power x_i^m; None for any other form, the zero form included."""
        return float(np.abs(self._values).max()) if self._table[0].shape[1] == 1 else None

    # -- evaluation --------------------------------------------------------

    def _products(self, points: np.ndarray, *tables: np.ndarray) -> list[np.ndarray]:
        """Per table of rows (K, r), the product over each row of the gathered
        powers x_i^e of points (N, d), shape (N, K).

        The power table is exponent-major, (m+1, d, N), so each power, each
        gather and each product runs over N contiguous points; its entries
        come by repeated multiplication, which is far cheaper than libm pow.

        For real points 1.0 * x is x, so x_i^1 is a copy of the transposed
        points, later powers multiply contiguous rows, and a table of width
        1 gathers one power per row, which is its product.  A complex
        multiplication by 1 + 0j can flip the sign of a zero part, so
        complex points keep every multiplication.
        """
        real = points.dtype.kind != "c"
        powers = np.empty((self.degree + 1, self.dim, len(points)), dtype=points.dtype)
        powers[0] = 1.0
        base, start = points.T, 0
        if real:
            powers[1] = base
            base, start = powers[1], 1
        for e in range(start, self.degree):
            np.multiply(powers[e], base, out=powers[e + 1])
        powers = powers.reshape(-1, len(points))
        gathered = [np.take(powers, rows[:, 0] if real and rows.shape[1] == 1 else rows, axis=0)
                    for rows in tables]
        del powers  # freed before the products, which bounds the peak of large batches
        return [(g if g.ndim == 2 else np.multiply.reduce(g, axis=1)).T for g in gathered]

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """P at each row of points, shape (N, d) -> (N,)."""
        (monomials,) = self._products(np.atleast_2d(points), self._table[0])
        return monomials @ self._values

    def eval_grad_batch(self, points: np.ndarray):
        """(P(x), grad P(x)) per row; complex forms return holomorphic partials.

        A real form of width 1 at real points gathers its weighted gradient
        rows through the placement, in coordinate order.  Each entry of the
        0/1 scatter matmul is one such product plus exact zeros, so for
        finite entries the placement has its bits once + 0.0 turns a -0 into
        the +0 that dgemm's sum gives.  A complex result keeps the matmul:
        zgemm can leave a -0 part in an exact zero, which no placement
        reproduces.
        """
        rows, grad_rows, grad_weights, scatter, placed = self._table
        points = np.atleast_2d(points)
        if placed is not None and points.dtype.kind != "c":
            monomials, lowered = self._products(points, rows, placed[0])
            grads = np.empty(lowered.shape)
            np.multiply(lowered, placed[1], out=grads)
            grads += 0.0
        else:
            monomials, lowered = self._products(points, rows, grad_rows)
            grads = (lowered * grad_weights[None, :]) @ scatter
        return monomials @ self._values, grads

    def scaled(self, factor) -> "SymmetricForm":
        """New form with every coefficient multiplied by factor."""
        return SymmetricForm(
            self.degree,
            self.dim,
            self.field if (self.field == COMPLEX or complex(factor).imag == 0.0) else COMPLEX,
            {k: v * factor for k, v in self.coeffs.items()},
        )

    def __repr__(self):
        return (
            f"SymmetricForm(degree={self.degree}, dim={self.dim}, "
            f"field={self.field!r}, terms={len(self.coeffs)})"
        )


# ---------------------------------------------------------------------------
# construction


def make_form(degree: int, dim: int, field: str, entries: Iterable) -> SymmetricForm:
    """Build a validated form from (alpha, coefficient) pairs.

    Duplicate multi-indices are rejected rather than merged.
    """
    coeffs: dict[MultiIndex, complex] = {}
    for alpha, value in entries:
        key = alpha if isinstance(alpha, MultiIndex) else MultiIndex(tuple(alpha))
        if key in coeffs:
            raise FormError(f"duplicate multi-index {key.exponents}")
        coeffs[key] = value
    return SymmetricForm(degree, dim, field, coeffs)


def zero_form(degree: int, dim: int, field: str = REAL) -> SymmetricForm:
    return SymmetricForm(degree, dim, field, {})


def random_form(rng: np.random.Generator, degree: int, dim: int, field: str = REAL) -> SymmetricForm:
    """Dense form with iid standard-normal coefficients over all monomials."""
    entries = []
    for alpha in itertools.combinations_with_replacement(range(dim), degree):
        exps = [0] * dim
        for i in alpha:
            exps[i] += 1
        if field == REAL:
            value = rng.standard_normal()
        else:
            value = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2.0)
        entries.append((tuple(exps), value))
    return make_form(degree, dim, field, entries)


# ---------------------------------------------------------------------------
# evaluation operations


def _as_vector(form: SymmetricForm, x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.shape != (form.dim,):
        raise FormError(f"vector has shape {arr.shape}, expected ({form.dim},)")
    if np.iscomplexobj(arr):
        return arr.astype(np.complex128)
    return arr.astype(np.float64)


def eval_poly(form: SymmetricForm, x):
    """P(x) = sum_alpha a_alpha x^alpha."""
    point = _as_vector(form, x)
    val = form.eval_batch(point[None, :])[0]
    return complex(val) if np.iscomplexobj(val) else float(val)


@lru_cache(maxsize=64)
def _sign_table(m: int):
    """All epsilon in {-1,+1}^m with the product of signs per row."""
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=m)))
    return signs, np.prod(signs, axis=1)


@lru_cache(maxsize=256)
def _block_table(multiplicities: tuple[int, ...]):
    """Collapsed sign enumeration for block arguments.

    Grouping the 2^m sign patterns by per-block sign sums turns the
    polarization average into prod(k_j + 1) evaluations: combo (t_1..t_n)
    carries weight prod_j C(k_j, t_j) * (-1)^(k_j - t_j) and block
    multiplier 2 t_j - k_j.  Returns (mult, weights, block-gradient map
    (weights * mult).T (n, combos)), read-only.
    """
    combos = list(itertools.product(*(range(k + 1) for k in multiplicities)))
    mult = np.array(
        [[2 * t - k for t, k in zip(combo, multiplicities)] for combo in combos],
        dtype=np.float64,
    )
    weights = np.array(
        [
            math.prod(math.comb(k, t) for t, k in zip(combo, multiplicities))
            * (-1) ** (sum(multiplicities) - sum(combo))
            for combo in combos
        ],
        dtype=np.float64,
    )
    # a transposed view, not a contiguous copy: the matmul's rounding can
    # depend on its operands' layout
    grad_map = (weights[:, None] * mult).T
    for arr in (mult, weights, grad_map):
        arr.flags.writeable = False
    return mult, weights, grad_map


def _polar_scale(m: int) -> float:
    return 1.0 / float(2**m * math.factorial(m))


def polarize(form: SymmetricForm, vectors: Sequence, cap: int = POLARIZE_DEGREE_CAP):
    """L(x_1, ..., x_m) via the exact 2^m signed average of P.

    Equals the Rademacher-integral polarization formula because the
    integrand is constant on dyadic intervals.
    """
    m = form.degree
    if len(vectors) != m:
        raise FormError(f"polarize needs {m} vectors, got {len(vectors)}")
    if m > cap:
        raise FormError(f"degree {m} exceeds polarization cap {cap}")
    xs = np.stack([_as_vector(form, x) for x in vectors])
    signs, sign_prod = _sign_table(m)
    vals = form.eval_batch(signs @ xs)
    out = (sign_prod @ vals) * _polar_scale(m)
    return complex(out) if np.iscomplexobj(out) else float(out)


def _mixed_values(form: SymmetricForm, multiplicities: tuple[int, ...], tuples: np.ndarray,
                  modulus: bool = False) -> np.ndarray:
    """Unchecked core of eval_mixed: L(x_1^{k_1} ... x_n^{k_n}) for each
    argument tuple, tuples (T, n, d) -> (T,).

    With modulus, |L| is taken before the polarization scale is applied;
    for complex values that order is not interchangeable bit for bit.
    """
    mult, weights, _ = _block_table(multiplicities)
    points = (mult @ tuples).reshape(-1, form.dim)
    sums = form.eval_batch(points).reshape(tuples.shape[0], -1) @ weights
    return (np.abs(sums) if modulus else sums) * _polar_scale(sum(multiplicities))


def _mixed_value_grad(form: SymmetricForm, multiplicities: tuple[int, ...], tuples: np.ndarray):
    """Unchecked core of eval_mixed_grad: values (T,) and block gradients
    (T, n, d) for argument tuples (T, n, d)."""
    mult, weights, grad_map = _block_table(multiplicities)
    points = (mult @ tuples).reshape(-1, form.dim)
    vals, grads = form.eval_grad_batch(points)
    scale = _polar_scale(sum(multiplicities))
    sums = vals.reshape(tuples.shape[0], -1) @ weights
    return sums * scale, grad_map @ grads.reshape(tuples.shape[0], -1, form.dim) * scale


def _coordinate_coeffs(form: SymmetricForm, multiplicities: tuple[int, ...], tuples: np.ndarray,
                       j: int, i: int) -> np.ndarray:
    """Ascending coefficients of t -> L(... (x_j with coordinate i = t)^{k_j} ...),
    exactly, for real forms; tuples (T, n, d) -> (T, k_j + 1)."""
    if len(multiplicities) == 1:
        # a single block is P itself: read the powers of t off the monomial table
        probe = tuples[:, 0, :].copy()
        probe[:, i] = 1.0
        (monomials,) = form._products(probe, form._table[0])
        powers_of_t = form._exponents[:, i, None] == np.arange(form.degree + 1)
        return (monomials * form._values) @ powers_of_t
    # multilinear expansion of block j in the basis direction e_i
    k_j = multiplicities[j]
    base = tuples[:, j, :].copy()
    base[:, i] = 0.0
    e_i = np.zeros_like(base)
    e_i[:, i] = 1.0
    coeffs = np.zeros((len(tuples), k_j + 1))
    for s in range(k_j + 1):
        blocks, args = [], []
        for l, k_l in enumerate(multiplicities):
            if l == j:
                if k_j - s > 0:
                    blocks.append(k_j - s)
                    args.append(base)
                if s > 0:
                    blocks.append(s)
                    args.append(e_i)
            else:
                blocks.append(k_l)
                args.append(tuples[:, l, :])
        values = _mixed_values(form, tuple(blocks), np.stack(args, axis=1))
        coeffs[:, s] = math.comb(k_j, s) * np.real(values)
    return coeffs


def _mixed_arguments(form: SymmetricForm, pattern, vectors: Sequence, cap: int):
    """(multiplicities, one argument tuple (1, n, d)) for the checked mixed
    evaluation of the block vectors in pattern."""
    pat = as_pattern(pattern)
    if pat.m != form.degree:
        raise FormError(f"pattern sums to {pat.m}, form degree is {form.degree}")
    if len(vectors) != pat.n:
        raise FormError(f"pattern has {pat.n} blocks, got {len(vectors)} vectors")
    if pat.m > cap:
        raise FormError(f"degree {pat.m} exceeds polarization cap {cap}")
    return pat.multiplicities, np.stack([_as_vector(form, x) for x in vectors])[None]


def eval_mixed(form: SymmetricForm, pattern, vectors: Sequence, cap: int = POLARIZE_DEGREE_CAP):
    """L(x_1^{k_1} ... x_n^{k_n}) by block sign enumeration."""
    out = _mixed_values(form, *_mixed_arguments(form, pattern, vectors, cap))[0]
    return complex(out) if np.iscomplexobj(out) else float(out)


def eval_mixed_grad(form: SymmetricForm, pattern, vectors: Sequence):
    """Mixed value plus its gradient with respect to every block vector.

    Returns (value, grads) with grads[j] the (holomorphic) partial of the
    mixed value in the j-th block argument; shape (n, d).  Degrees above
    POLARIZE_DEGREE_CAP are refused, as in eval_mixed.
    """
    values, grads = _mixed_value_grad(
        form, *_mixed_arguments(form, pattern, vectors, POLARIZE_DEGREE_CAP))
    return values[0], grads[0]


def _multiset_index_tuples(alpha):
    """Distinct orderings of the index multiset {i repeated alpha_i times}."""
    counts = list(alpha)
    total = sum(counts)
    out = [0] * total

    def rec(pos):
        if pos == total:
            yield tuple(out)
            return
        for i, c in enumerate(counts):
            if c:
                counts[i] -= 1
                out[pos] = i
                yield from rec(pos + 1)
                counts[i] += 1

    yield from rec(0)


def eval_tensor_direct(form: SymmetricForm, vectors: Sequence, cap: int = TENSOR_ENTRY_CAP):
    """Brute-force oracle: contract the dense symmetric tensor with the arguments.

    The tensor entry at an index tuple with count vector beta is
    a_beta * beta!/m!; cost O(d^m) in memory and time.
    """
    m, d = form.degree, form.dim
    if len(vectors) != m:
        raise FormError(f"tensor contraction needs {m} vectors, got {len(vectors)}")
    if d**m > cap:
        raise FormError(f"d^m = {d**m} exceeds tensor cap {cap}")
    dtype = np.float64 if form.field == REAL else np.complex128
    xs = [_as_vector(form, x) for x in vectors]
    if any(np.iscomplexobj(x) for x in xs):
        dtype = np.complex128
    tensor = np.zeros((d,) * m, dtype=dtype)
    fact_m = math.factorial(m)
    for alpha, a in form.coeffs.items():
        beta_fact = math.prod(math.factorial(e) for e in alpha)
        entry = a * beta_fact / fact_m
        for idx in _multiset_index_tuples(alpha.exponents):
            tensor[idx] = entry
    out = tensor
    for x in xs:
        out = np.tensordot(out, x, axes=([0], [0]))
    out = out.item()
    return out if form.field == COMPLEX or isinstance(out, complex) else float(out)


def frechet(form: SymmetricForm, x, k: int, ys: Sequence):
    """k-th Frechet derivative D^k P(x)(y_1, ..., y_k) = k! C(m,k) L(x^{m-k}, ys)."""
    m = form.degree
    if not 1 <= k <= m:
        raise FormError(f"derivative order k={k} out of range 1..{m}")
    if len(ys) != k:
        raise FormError(f"expected {k} direction vectors, got {len(ys)}")
    factor = math.factorial(k) * math.comb(m, k)
    if k == m:
        return factor * polarize(form, list(ys))
    pattern = (m - k,) + (1,) * k
    return factor * eval_mixed(form, pattern, [x, *ys])


def multinomial_terms(form: SymmetricForm, vectors: Sequence):
    """All terms of P(x_1 + ... + x_n) = sum m!/prod(j_i!) L(x_1^{j_1} ... x_n^{j_n}).

    Returns a list of (exponents j, weight m!/prod(j!), mixed value); the
    weighted values sum to P at the sum vector.
    """
    if not vectors:
        raise FormError("need at least one vector")
    m, n = form.degree, len(vectors)
    xs = [_as_vector(form, x) for x in vectors]
    fact_m = math.factorial(m)
    terms = []
    for js in itertools.product(range(m + 1), repeat=n):
        if sum(js) != m:
            continue
        weight = fact_m / math.prod(math.factorial(j) for j in js)
        blocks = [(j, xs[i]) for i, j in enumerate(js) if j > 0]
        value = eval_mixed(form, tuple(j for j, _ in blocks), [v for _, v in blocks])
        terms.append((js, weight, value))
    return terms


def complexify_form(form: SymmetricForm) -> SymmetricForm:
    """Canonical complex extension: same coefficients read over C^d."""
    if form.field == COMPLEX:
        raise FormError("form is already complex")
    return SymmetricForm(form.degree, form.dim, COMPLEX, dict(form.coeffs))


def complexify_eval(form: SymmetricForm, x, y) -> complex:
    """Value of the canonical complex extension at x + iy, from block values.

    Real part: sum_k (-1)^k C(m,2k) L(x^{m-2k} y^{2k}); imaginary part:
    sum_k (-1)^k C(m,2k+1) L(x^{m-2k-1} y^{2k+1}).
    """
    if form.field != REAL:
        raise FormError("complexify_eval expects a real form")
    m = form.degree
    xv, yv = _as_vector(form, x), _as_vector(form, y)

    def block_value(i: int, j: int):
        if i == 0 and j == 0:
            raise FormError("degree-0 block")
        if j == 0:
            return eval_poly(form, xv)
        if i == 0:
            return eval_poly(form, yv)
        return eval_mixed(form, (i, j), [xv, yv])

    re = sum((-1) ** k * math.comb(m, 2 * k) * block_value(m - 2 * k, 2 * k) for k in range(m // 2 + 1))
    im = sum(
        (-1) ** k * math.comb(m, 2 * k + 1) * block_value(m - 2 * k - 1, 2 * k + 1)
        for k in range((m - 1) // 2 + 1)
    )
    return complex(re, im)


# ---------------------------------------------------------------------------
# file format


def form_to_dict(form: SymmetricForm) -> dict:
    coeffs = []
    for alpha, value in form.coeffs.items():
        entry = {"alpha": list(alpha.exponents), "re": float(np.real(value))}
        im = float(np.imag(value))
        if im != 0.0:
            entry["im"] = im
        coeffs.append(entry)
    return {"degree": form.degree, "dim": form.dim, "field": form.field, "coeffs": coeffs}


def form_from_dict(doc: dict) -> SymmetricForm:
    try:
        degree, dim, field = doc["degree"], doc["dim"], doc["field"]
        raw = doc["coeffs"]
    except (KeyError, TypeError) as exc:
        raise FormError(f"malformed form document: missing {exc}") from exc
    try:
        entries = [
            (tuple(int(e) for e in item["alpha"]), complex(item["re"], item.get("im", 0.0)))
            for item in raw
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormError(f"malformed coefficient entry: {exc!r}") from exc
    return make_form(degree, dim, field, entries)


def save_form(form: SymmetricForm, path) -> None:
    Path(path).write_text(json.dumps(form_to_dict(form), indent=2) + "\n")


def load_form(path) -> SymmetricForm:
    return form_from_dict(json.loads(Path(path).read_text()))
