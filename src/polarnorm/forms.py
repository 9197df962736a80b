"""Symmetric multilinear forms stored as homogeneous-polynomial coefficients.

A degree-m form L on K^d is stored as the coefficients a_alpha of its
diagonal polynomial P(x) = sum_alpha a_alpha x^alpha.  Its dense symmetric
tensor SymmetricForm._tensor holds a_beta beta!/m! at every ordering of the
index multiset beta, so the polynomial <-> form round trip is unambiguous.
Evaluation routines are pure and operate on immutable form objects.

Only this module knows how monomials are stored: each form compiles once
into a table holding, per monomial, the flat indices e*d + i of its
nonzero exponents e, ascending in the coordinate i and padded with x_0^0 to
the widest support of any monomial of the form, so a diagonal form gathers
one power per monomial.  Values, gradients (one exponent lowered) and P's
coordinate polynomials multiply the gathered entries of one power table
x_i^e, 0 <= e <= m.  A padding factor 1.0 changes no bit of a real product;
of a complex one it can change only the sign of a zero part.  A mixed value
of several blocks sums P over block sign patterns, and its coordinate
polynomial is solved from one evaluation at k_j + 1 nodes; a single block
(m,) is P itself, evaluated directly.

A table of width 1 holds pure powers x_i^m only, as a diagonal form does.
Any form's largest tensor entry modulus, _tensor_top, bounds its norms at
p = 1; on a pure-power form it is the largest coefficient modulus, bit for
bit, which bounds its norms at p <= m.
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
        weights a_alpha * e and 0/1 scatter to i."""
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
        return rows, grad_rows, grad_weights, scatter

    @property
    def _pure_powers(self) -> bool:
        return self._table[0].shape[1] == 1  # every monomial a pure power x_i^m

    @cached_property
    def _tensor_weights(self) -> np.ndarray:
        """beta!/m! per monomial, each one correctly rounded integer ratio."""
        fact_m = math.factorial(self.degree)
        return np.array([math.prod(map(math.factorial, alpha)) / fact_m for alpha in self.coeffs])

    @cached_property
    def _tensor_top(self):
        """The largest tensor entry modulus, None for the zero form.  A pure
        power's weight is exactly 1.0, so a pure-power form's value is its
        largest coefficient modulus, bit for bit."""
        if not self.coeffs:
            return None
        return float((np.abs(self._values) * self._tensor_weights).max())

    @cached_property
    def _tensor(self) -> np.ndarray:
        """The dense tensor (d,)*m in the dtype of _values: a_beta beta!/m! at
        every ordering of each index multiset beta."""
        tensor = np.zeros((self.dim,) * self.degree, dtype=self._values.dtype)
        for alpha, entry in zip(self.coeffs, self._values * self._tensor_weights):
            for idx in _multiset_index_tuples(alpha.exponents):
                tensor[idx] = entry
        return tensor

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

    def _monomials(self, points: np.ndarray) -> np.ndarray:
        """x^alpha (N, C) of points (N, d): the same for every form of this support."""
        (monomials,) = self._products(np.atleast_2d(points), self._table[0])
        return monomials

    def _eval_monomials(self, monomials: np.ndarray) -> np.ndarray:
        """P at the points whose _monomials these are, (N, C) -> (N,)."""
        return monomials @ self._values

    def eval_batch(self, points: np.ndarray) -> np.ndarray:
        """P at each row of points, shape (N, d) -> (N,)."""
        return self._eval_monomials(self._monomials(points))

    def eval_grad_batch(self, points: np.ndarray):
        """(P(x), grad P(x)) per row; complex forms return holomorphic partials."""
        rows, grad_rows, grad_weights, scatter = self._table
        monomials, lowered = self._products(np.atleast_2d(points), rows, grad_rows)
        return self._eval_monomials(monomials), (lowered * grad_weights[None, :]) @ scatter

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


def _polar_points(multiplicities: tuple[int, ...], tuples: np.ndarray) -> np.ndarray:
    """Each tuple's points sum_j (2 t_j - k_j) x_j, (T, n, d) -> (T * combos, d);
    a single block's are its vectors, since L(x^m) = P(x)."""
    if len(multiplicities) == 1:
        return tuples[:, 0, :]
    mult, _, _ = _block_table(multiplicities)
    return (mult @ tuples).reshape(-1, tuples.shape[-1])


def _polar_sum(multiplicities: tuple[int, ...], values: np.ndarray,
               modulus: bool = False) -> np.ndarray:
    """L(x_1^{k_1} ... x_n^{k_n}) per tuple from P at its _polar_points, (T * combos,)
    -> (T,), a single block's as they are.  With modulus, |L| is taken before the
    scale, an order that is not interchangeable bit for bit for complex values."""
    if len(multiplicities) == 1:
        return np.abs(values) if modulus else values
    _, weights, _ = _block_table(multiplicities)
    sums = values.reshape(-1, len(weights)) @ weights
    return (np.abs(sums) if modulus else sums) * _polar_scale(sum(multiplicities))


def _mixed_values(form: SymmetricForm, multiplicities: tuple[int, ...], tuples: np.ndarray,
                  modulus: bool = False) -> np.ndarray:
    """Unchecked core of eval_mixed: L(x_1^{k_1} ... x_n^{k_n}) (or its
    modulus) for each argument tuple, tuples (T, n, d) -> (T,)."""
    return _polar_sum(multiplicities, form.eval_batch(_polar_points(multiplicities, tuples)),
                      modulus)


def _mixed_value_grad(form: SymmetricForm, multiplicities: tuple[int, ...], tuples: np.ndarray):
    """Unchecked core of eval_mixed_grad: values (T,) and block gradients (T, n, d)
    for argument tuples (T, n, d), a single block's those of eval_grad_batch."""
    vals, grads = form.eval_grad_batch(_polar_points(multiplicities, tuples))
    if len(multiplicities) == 1:
        return vals, grads[:, None, :]
    _, _, grad_map = _block_table(multiplicities)
    grads = grad_map @ grads.reshape(tuples.shape[0], -1, form.dim)
    return _polar_sum(multiplicities, vals), grads * _polar_scale(sum(multiplicities))


@lru_cache(maxsize=32)
def _interpolation_nodes(k: int):
    """The k + 1 Chebyshev nodes on [-1, 1] and the inverse of their Vandermonde matrix,
    read-only: a degree-k polynomial's ascending coefficients are inverse @ its values."""
    nodes = np.cos(np.pi * (np.arange(k + 1) + 0.5) / (k + 1))
    inverse = np.linalg.inv(np.vander(nodes, increasing=True))
    nodes.flags.writeable = inverse.flags.writeable = False
    return nodes, inverse


def _coordinate_coeffs(form: SymmetricForm, multiplicities: tuple[int, ...], tuples: np.ndarray,
                       j: int, i: int) -> np.ndarray:
    """Ascending coefficients of t -> L(... (x_j with coordinate i = t)^{k_j} ...)
    for real forms; tuples (T, n, d) -> (T, k_j + 1).  A single block, P, reads them
    exactly off the monomial table; several blocks solve them from one kernel call at
    the k_j + 1 _interpolation_nodes, within the polarization sum's rounding."""
    if len(multiplicities) == 1:
        probe = tuples[:, 0, :].copy()
        probe[:, i] = 1.0
        (monomials,) = form._products(probe, form._table[0])
        powers_of_t = form._exponents[:, i, None] == np.arange(form.degree + 1)
        return (monomials * form._values) @ powers_of_t
    nodes, inverse = _interpolation_nodes(multiplicities[j])
    probes = np.repeat(tuples, len(nodes), axis=0)
    probes[:, j, i] = np.tile(nodes, len(tuples))
    values = np.real(_mixed_values(form, multiplicities, probes))
    return values.reshape(len(tuples), len(nodes)) @ inverse.T


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
    """L(x_1^{k_1} ... x_n^{k_n}) by block sign enumeration; L(x^m) is eval_poly's P(x)."""
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
    """Brute-force oracle: contract the dense symmetric tensor form._tensor,
    built once per form in O(d^m) memory and time, with the arguments."""
    m, d = form.degree, form.dim
    if len(vectors) != m:
        raise FormError(f"tensor contraction needs {m} vectors, got {len(vectors)}")
    if d**m > cap:
        raise FormError(f"d^m = {d**m} exceeds tensor cap {cap}")
    xs = [_as_vector(form, x) for x in vectors]
    out = form._tensor
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
