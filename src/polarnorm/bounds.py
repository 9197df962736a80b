"""Closed-form constants bounding mixed-argument norms against polynomial norms.

Every calculator returns a BoundRecord carrying the numeric value, its
log-domain twin, and an applicability predicate (field, p-range, pattern).
Exact integer arithmetic is used up to degree 18; beyond that everything is
assembled from log-gamma terms so the asymptotic scans never overflow.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .forms import COMPLEX, REAL, Pattern, as_pattern, conjugate_exponent

BOTH = "both"

EXACT_DEGREE_LIMIT = 18

# Known exact constants the general calculators cannot see.
SHARP_PATTERN_REGISTRY = {
    (REAL, (2, 2)): (3.0, "two-square-difference witness on sup-norm R^4"),
}


class BoundError(ValueError):
    """Invalid arguments for a bound calculator."""


@dataclass(frozen=True)
class BoundRecord:
    """One named constant with its applicability predicate."""

    name: str
    value: float
    log_value: float
    field: str  # real | complex | both
    p_lo: float = 1.0
    p_hi: float = math.inf
    pattern: Optional[tuple[int, ...]] = None
    sharp: bool = False
    citation: str = ""
    applicable: bool = True
    proven: bool = True
    exact: Optional[float] = None
    note: str = ""

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "value": self.value,
            "log_value": self.log_value,
            "field": self.field,
            "p_range": [self.p_lo, self.p_hi],
            "pattern": list(self.pattern) if self.pattern is not None else None,
            "sharp": self.sharp,
            "citation": self.citation,
            "applicable": self.applicable,
            "proven": self.proven,
        }
        if self.exact is not None:
            out["exact"] = self.exact
        if self.note:
            out["note"] = self.note
        return out


def _record(name, log_value, value=None, **kw) -> BoundRecord:
    if value is None:
        value = _or_inf(lambda: math.exp(log_value))
    return BoundRecord(name=name, value=float(value), log_value=float(log_value), **kw)


def _or_inf(compute: Callable[[], float]) -> float:
    """compute(), or inf when it overflows the float range."""
    try:
        return compute()
    except OverflowError:
        return math.inf


def _lgamma1(n: float) -> float:
    return math.lgamma(n + 1.0)


def _xlogx(k: float) -> float:
    """k log k with the 0^0 := 1 convention."""
    return 0.0 if k == 0 else k * math.log(k)


def _check_p(p: float) -> float:
    p = float(p)
    if not p >= 1.0:
        raise BoundError(f"p must be >= 1, got {p}")
    return p


def _pattern_logs(pat: Pattern):
    m = pat.m
    base_log = m * math.log(m) - sum(_xlogx(k) for k in pat)
    fact_log = sum(_lgamma1(k) for k in pat) - _lgamma1(m)
    return base_log, fact_log


def _log_sum_exp(terms: Sequence[float]) -> float:
    """log sum_i exp(t_i), shifted by the largest term so no exp overflows."""
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def _exact_ratio(num: int, den: int):
    """(value, log) of an exact integer ratio; the value is inf beyond floats."""
    return _or_inf(lambda: float(Fraction(num, den))), math.log(num) - math.log(den)


# ---------------------------------------------------------------------------
# single-degree constants


def polar_range(m: int) -> BoundRecord:
    """m^m/m!: the universal gap between the form norm and the polynomial norm."""
    if m < 1:
        raise BoundError(f"m must be >= 1, got {m}")
    log_value = m * math.log(m) - _lgamma1(m) if m > 1 else 0.0
    value = None
    if m <= EXACT_DEGREE_LIMIT:
        value, log_value = _exact_ratio(m**m, math.factorial(m))
    return _record(
        "polar_range",
        log_value,
        value,
        field=BOTH,
        pattern=tuple([1] * m),
        sharp=True,
        citation="polarization inequality; sharp on the 1-summing spaces",
    )


def bound_hilbert(pattern) -> BoundRecord:
    """Mixed-argument constant 1 on Hilbert space (Banach's equality theorem)."""
    pat = as_pattern(pattern)
    return _record(
        "hilbert",
        0.0,
        1.0,
        field=BOTH,
        p_lo=2.0,
        p_hi=2.0,
        pattern=pat.multiplicities,
        sharp=True,
        citation="Banach's theorem: form and polynomial norms coincide on Hilbert space",
    )


def bound_banach_mazur(pattern, p: Optional[float] = None) -> BoundRecord:
    """n^{m|1/2-1/p|} on ell_p, n^{m/2} on arbitrary spaces (distance to ell_2^n)."""
    pat = as_pattern(pattern)
    n, m = pat.n, pat.m
    if p is None:
        exponent = m / 2.0
        p_lo, p_hi, note = 1.0, math.inf, "any space"
    else:
        p = _check_p(p)
        inv_p = 0.0 if math.isinf(p) else 1.0 / p
        exponent = m * abs(0.5 - inv_p)
        p_lo = p_hi = p
        note = ""
    log_value = exponent * math.log(n)
    return _record(
        "banach_mazur",
        log_value,
        field=BOTH,
        p_lo=p_lo,
        p_hi=p_hi,
        pattern=pat.multiplicities,
        sharp=False,
        citation="Banach-Mazur distance of n-dimensional subspaces to Euclidean space",
        note=note,
    )


def bound_Kmp(m: int, p: float) -> BoundRecord:
    """Degree-m polarization constant of ell_p, in the three p-ranges of
    _complex_lp_branch.

    The middle range takes the smaller of the outer-branch value frozen at
    p = m' and the Euclidean-distance bound m^{m|p-2|/(2p)}.
    """
    if m < 2:
        raise BoundError(f"m must be >= 2, got {m}")
    p = _check_p(p)
    _, sharp, p_lo, p_hi = _complex_lp_branch(m, p)
    log_m = math.log(m)
    note = ""
    if sharp:
        log_value = (m / p) * log_m - _lgamma1(m)
    elif math.isinf(p_hi):
        log_value = (m / conjugate_exponent(p)) * log_m - _lgamma1(m)
    else:
        first = (m / p_lo) * log_m - _lgamma1(m)
        second = (m * abs(p - 2.0) / (2.0 * p)) * log_m
        log_value = min(first, second)
        note = "interpolation branch" if second < first else "polarization branch"
    return _record(
        "K_m_p",
        log_value,
        field=BOTH,
        p_lo=p,
        p_hi=p,
        pattern=tuple([1] * m),
        sharp=sharp,
        citation="degree-m polarization constant of the p-summing spaces",
        note=note,
    )


def harris_conjecture(m: int, p: float) -> BoundRecord:
    """(m^m/m!)^{|p-2|/p} on complex ell_p; proven only when m is a power of 2."""
    if m < 1:
        raise BoundError(f"m must be >= 1, got {m}")
    p = _check_p(p)
    exponent = 1.0 if math.isinf(p) else abs(p - 2.0) / p
    base_log = m * math.log(m) - _lgamma1(m)
    proven = m & (m - 1) == 0
    return _record(
        "harris",
        exponent * base_log,
        field=COMPLEX,
        p_lo=p,
        p_hi=p,
        pattern=tuple([1] * m),
        sharp=False,
        proven=proven,
        citation="Harris's interpolated polarization bound (conjectured for all degrees)",
    )


# ---------------------------------------------------------------------------
# complex-space constants


def _complex_lp_branch(m: int, p: float):
    """(exponent, sharp, p_lo, p_hi) of the degree-m complex ell_p constants
    at p: the exponent of the any-space base is 1/p on [1, m'] (sharp),
    1/p' on [m, inf], and 1/m' on the gap (m', m) between them."""
    mprime = conjugate_exponent(m)
    if p <= mprime:
        return 1.0 / p, True, 1.0, mprime
    if p >= m:
        return 1.0 / conjugate_exponent(p), False, m, math.inf
    return 1.0 / mprime, False, mprime, m


def bound_complex_lp(pattern, p: float) -> BoundRecord:
    """Mixed-argument constant on complex ell_p; no estimate on (m', m).

    (m^m / prod k_i^{k_i})^{1/p} * prod k_i!/m! for 1 <= p <= m', the same
    expression with exponent 1/p' for m <= p <= infinity; sharp on the
    first range.
    """
    pat = as_pattern(pattern)
    exponent, sharp, p_lo, p_hi = _complex_lp_branch(pat.m, _check_p(p))
    if not sharp and math.isfinite(p_hi):  # the gap (m', m)
        return _record(
            "complex_lp",
            math.inf,
            math.inf,
            field=COMPLEX,
            p_lo=p_lo,
            p_hi=p_hi,
            pattern=pat.multiplicities,
            sharp=False,
            applicable=False,
            citation="no p-specific estimate between the conjugate exponents",
            note="use bound_best: the Banach-Mazur bound covers this range",
        )
    base_log, fact_log = _pattern_logs(pat)
    value, log_value = None, exponent * base_log + fact_log
    if exponent == 1.0:
        cx = bound_complex_any(pat)
        value, log_value = cx.value, cx.log_value
    citation = "Cauchy-formula bound with torus averaging"
    return _record(
        "complex_lp",
        log_value,
        value,
        field=COMPLEX,
        p_lo=p_lo,
        p_hi=p_hi,
        pattern=pat.multiplicities,
        sharp=sharp,
        citation=(citation + "; attained by block products") if sharp else citation,
    )


def bound_complex_any(pattern) -> BoundRecord:
    """m^m/prod k_i^{k_i} * prod k_i!/m! on any complex space; sharp."""
    pat = as_pattern(pattern)
    base_log, fact_log = _pattern_logs(pat)
    value = None
    log_value = base_log + fact_log
    if pat.m <= EXACT_DEGREE_LIMIT:
        num = pat.m**pat.m * math.prod(math.factorial(k) for k in pat)
        den = math.prod(k**k for k in pat) * math.factorial(pat.m)
        value, log_value = _exact_ratio(num, den)
    return _record(
        "complex_any",
        log_value,
        value,
        field=COMPLEX,
        pattern=pat.multiplicities,
        sharp=True,
        citation="quotient of the 1-summing case; attained by block products",
    )


def markov_complex_lp(k: int, m: int, p: float) -> BoundRecord:
    """Markov constant for the k-homogeneous derivative polynomial on complex ell_p."""
    if not 1 <= k <= m:
        raise BoundError(f"need 1 <= k <= m, got k={k}, m={m}")
    exponent, sharp, lo, hi = _complex_lp_branch(m, _check_p(p))
    base_log = m * math.log(m) - _xlogx(m - k) - _xlogx(k)
    value = None
    log_value = exponent * base_log + _lgamma1(k)
    if exponent == 1.0:
        # the any-space constant, with its exact integer ratio at low degree
        homog = markov_complex_any(k, m)[0]
        value, log_value = homog.value, homog.log_value
    return _record(
        "markov_complex_lp",
        log_value,
        value,
        field=COMPLEX,
        p_lo=lo,
        p_hi=hi,
        pattern=(m - k, k) if k < m else (m,),
        sharp=sharp,
        citation="derivative bound from the mixed-argument constant on complex ell_p",
    )


def markov_complex_any(k: int, m: int) -> tuple[BoundRecord, BoundRecord]:
    """Sharp Markov constants on any complex space.

    Returns (bound for the k-homogeneous derivative polynomial, bound for
    the full k-linear derivative); conventions use 0^0 := 1 at k = m.
    """
    if not 1 <= k <= m:
        raise BoundError(f"need 1 <= k <= m, got k={k}, m={m}")
    base_log = m * math.log(m) - _xlogx(m - k)
    homog_value = full_value = None
    homog_log = base_log - _xlogx(k) + _lgamma1(k)
    full_log = base_log
    if m <= EXACT_DEGREE_LIMIT:
        mk_pow = (m - k) ** (m - k) if m > k else 1  # 0^0 := 1
        homog_value, homog_log = _exact_ratio(m**m * math.factorial(k), mk_pow * k**k)
        full_value, full_log = _exact_ratio(m**m, mk_pow)
    homog = _record(
        "markov_complex_homogeneous",
        homog_log,
        homog_value,
        field=COMPLEX,
        sharp=True,
        pattern=(m - k, k) if k < m else (m,),
        citation="sharp derivative bound on complex spaces (diagonal restriction)",
    )
    full = _record(
        "markov_complex_full",
        full_log,
        full_value,
        field=COMPLEX,
        sharp=True,
        pattern=(m - k, k) if k < m else (m,),
        citation="sharp derivative bound on complex spaces (multilinear derivative)",
    )
    return homog, full


# ---------------------------------------------------------------------------
# real-space constants


def bound_real_complexification(pattern) -> BoundRecord:
    """2^{m-1} times the complex constant, via the canonical complex extension."""
    pat = as_pattern(pattern)
    cx = bound_complex_any(pat)
    log_value = (pat.m - 1) * math.log(2.0) + cx.log_value
    value = _or_inf(lambda: 2.0 ** (pat.m - 1) * cx.value) if math.isfinite(cx.value) else None
    return _record(
        "real_complexification",
        log_value,
        value,
        field=REAL,
        pattern=pat.multiplicities,
        sharp=False,
        citation="complex extension doubles the polynomial norm at most 2^{m-1} times",
    )


def bound_real_polar(pattern) -> BoundRecord:
    """n^{m-1}/m! * sum k_i^{m-1}, from the blocked polarization average."""
    pat = as_pattern(pattern)
    n, m = pat.n, pat.m
    value = None
    if m <= EXACT_DEGREE_LIMIT:
        num = n ** (m - 1) * sum(k ** (m - 1) for k in pat)
        value, log_value = _exact_ratio(num, math.factorial(m))
    else:
        # the unshifted terms underflow to 0 at large m
        log_sum = _log_sum_exp([(m - 1) * (math.log(k) - math.log(m)) for k in pat])
        log_value = (m - 1) * math.log(n) - _lgamma1(m) + (m - 1) * math.log(m) + log_sum
    return _record(
        "real_polar",
        log_value,
        value,
        field=REAL,
        pattern=pat.multiplicities,
        sharp=False,
        citation="blocked polarization average with interpolated sign-sum moments",
    )


def bound_real_hilbert(pattern) -> BoundRecord:
    """sqrt(m^m / prod k_i^{k_i}), by factoring through the Euclidean case."""
    pat = as_pattern(pattern)
    base_log, _ = _pattern_logs(pat)
    return _record(
        "real_hilbert",
        0.5 * base_log,
        field=REAL,
        pattern=pat.multiplicities,
        sharp=False,
        citation="restriction to a weighted Euclidean section where the constant is 1",
    )


def _registry_exact(field: str, multiplicities: tuple[int, ...]):
    """(exact, note) from SHARP_PATTERN_REGISTRY for these block sizes in any
    order, else (None, "").  It takes a plain tuple, since Pattern refuses
    the Markov pattern (m - k, k) at k = m."""
    entry = SHARP_PATTERN_REGISTRY.get((field, tuple(sorted(multiplicities))))
    if entry is None:
        return None, ""
    exact, cite = entry
    return exact, f"; exact constant {exact} ({cite})"


def bound_real_best(pattern) -> BoundRecord:
    """Smaller of the two general real bounds, plus any known exact constant."""
    pat = as_pattern(pattern)
    polar = bound_real_polar(pat)
    hilbert = bound_real_hilbert(pat)
    winner = polar if polar.value <= hilbert.value else hilbert
    exact, note = _registry_exact(REAL, pat.multiplicities)
    return replace(winner, name="real_best", exact=exact, note=f"from {winner.name}{note}")


def bound_real_lp_disjoint(pattern, p: float) -> BoundRecord:
    """Real ell_p constant for disjointly supported unit vectors.

    (1/m!) (sum k_i^{p-1})^{m/p} for p >= m and
    n^{(m-p)/p}/m! * sum k_i^{m-1} for 1 <= p <= m; only valid when the
    test vectors have pairwise disjoint supports.
    """
    pat = as_pattern(pattern)
    p = _check_p(p)
    n, m = pat.n, pat.m
    if math.isinf(p):
        log_value = m * math.log(max(pat.multiplicities)) - _lgamma1(m)
    elif p >= m:
        # k^(p-1) leaves the float range once (p - 1) log2(k) >= 1024
        log_value = (m / p) * _log_sum_exp([(p - 1.0) * math.log(k) for k in pat]) - _lgamma1(m)
    else:
        log_value = ((m - p) / p) * math.log(n) - _lgamma1(m) + math.log(
            sum(k ** (m - 1) for k in pat)
        )
    return _record(
        "real_lp_disjoint",
        log_value,
        field=REAL,
        p_lo=p,
        p_hi=p,
        pattern=pat.multiplicities,
        sharp=False,
        citation="disjoint-support estimate on real p-summing spaces",
        note="valid only for disjointly supported arguments",
    )


@dataclass(frozen=True)
class MarkovRange:
    """Lower/upper brackets for the homogeneous real Markov constants."""

    m: int
    k: int
    homogeneous_lower: float
    homogeneous_upper: float
    full_lower: float
    full_upper: float
    homogeneous_exact: Optional[float] = None

    def to_dict(self) -> dict:
        out = {
            "m": self.m,
            "k": self.k,
            "M_range": [self.homogeneous_lower, self.homogeneous_upper],
            "K_range": [self.full_lower, self.full_upper],
        }
        if self.homogeneous_exact is not None:
            out["M_exact"] = self.homogeneous_exact
        return out


def real_markov_range(m: int, k: int) -> MarkovRange:
    """Brackets for the smallest real Markov constants of degree-m polynomials.

    Lower ends are the complex sharp values; upper ends are the lower ends
    times C(m,k) sqrt(k^k (m-k)^(m-k) / m^m) >= 1 (derivative identity and
    square-root mixed bound), never below them, and inf past the float range.
    M = k! C(m,k) K(m-k, k) is exact where K is a registered sharp constant.
    """
    homog, full = markov_complex_any(k, m)
    mk = m - k
    if m <= EXACT_DEGREE_LIMIT:
        factor = math.sqrt(Fraction(math.comb(m, k) ** 2 * k**k * mk**mk, m**m))  # 0^0 = 1
    else:
        log_factor = math.log(math.comb(m, k)) + 0.5 * (_xlogx(k) + _xlogx(mk) - m * math.log(m))
        factor = _or_inf(lambda: math.exp(log_factor))
    sharp, _ = _registry_exact(REAL, (mk, k))
    exact = None if sharp is None else math.factorial(k) * math.comb(m, k) * sharp
    return MarkovRange(m, k, homog.value, homog.value * factor, full.value, full.value * factor, exact)


# ---------------------------------------------------------------------------
# classical one-variable constants


def chebyshev_markov(m: int, k: int) -> BoundRecord:
    """T_m^{(k)}(1) = m^2 (m^2-1) ... (m^2-(k-1)^2) / (1*3*...*(2k-1)).

    Sharp bound for the k-homogeneous derivative of a degree-m polynomial
    with sup norm at most 1 on a real space.
    """
    if not 1 <= k <= m:
        raise BoundError(f"need 1 <= k <= m, got k={k}, m={m}")
    num = math.prod(m * m - j * j for j in range(k))
    den = math.prod(2 * j + 1 for j in range(k))
    value, log_value = _exact_ratio(num, den)
    return _record(
        "chebyshev_markov",
        log_value,
        value,
        field=REAL,
        sharp=True,
        citation="extremal growth of Chebyshev polynomial derivatives at the endpoint",
    )


def chebyshev_coefficients(m: int) -> list[int]:
    """Integer coefficients of T_m, ascending order, by the three-term recurrence."""
    if m < 0:
        raise BoundError("degree must be >= 0")
    prev, cur = [1], [0, 1]
    if m == 0:
        return prev
    for _ in range(m - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def chebyshev_derivative_at_one(m: int, k: int) -> float:
    """Oracle for chebyshev_markov: differentiate the recurrence polynomial k times."""
    coeffs = chebyshev_coefficients(m)
    for _ in range(k):
        coeffs = [i * c for i, c in enumerate(coeffs)][1:]
    return float(sum(coeffs))


def bernstein_pointwise(m: int, p_at_x: float, x_norm: float) -> float:
    """min{m sqrt(1-P(x)^2)/sqrt(1-||x||^2), m^2} for ||P|| <= 1, ||x|| < 1."""
    if m < 1:
        raise BoundError(f"m must be >= 1, got {m}")
    if abs(p_at_x) > 1.0:
        raise BoundError(f"|P(x)| must be <= 1, got {p_at_x}")
    if not 0.0 <= x_norm < 1.0:
        raise BoundError(f"||x|| must lie in [0, 1), got {x_norm}")
    slope = m * math.sqrt(1.0 - p_at_x * p_at_x) / math.sqrt(1.0 - x_norm * x_norm)
    return min(slope, float(m * m))


def bernstein_width(m: int, width: float, x_norm: Optional[float] = None) -> dict:
    """Width-based derivative bounds on a symmetric convex body.

    gradient: 2 m^2 / w(K); pointwise (when the evaluation point's gauge is
    given): 2 m / (w(K) sqrt(1 - ||x||_K^2)).
    """
    if m < 1:
        raise BoundError(f"m must be >= 1, got {m}")
    if width <= 0.0:
        raise BoundError(f"width must be positive, got {width}")
    out = {"gradient": 2.0 * m * m / width, "pointwise": None}
    if x_norm is not None:
        if not 0.0 <= x_norm < 1.0:
            raise BoundError(f"||x||_K must lie in [0, 1), got {x_norm}")
        out["pointwise"] = 2.0 * m / (width * math.sqrt(1.0 - x_norm * x_norm))
    return out


def rademacher_moment(k: int, m: int) -> float:
    """E|eps_1 + ... + eps_k|^m, exactly, by binomial weighting of the k+1
    sums; inf past the float range."""
    if k < 1 or m < 0:
        raise BoundError(f"need k >= 1 and m >= 0, got k={k}, m={m}")
    total = sum(math.comb(k, t) * abs(2 * t - k) ** m for t in range(k + 1))
    return _or_inf(lambda: float(Fraction(total, 2**k)))


# ---------------------------------------------------------------------------
# asymptotics and aggregation


def equal_split_family(n: int) -> Callable[[int], tuple[int, ...]]:
    """Pattern family with n equal blocks; defined on multiples of n."""
    if n < 1:
        raise BoundError(f"n must be >= 1, got {n}")

    def family(m: int) -> tuple[int, ...]:
        if m % n != 0:
            raise BoundError(f"m={m} is not a multiple of n={n}")
        return tuple([m // n] * n)

    return family


def asymptotic_scan(pattern_family: Callable[[int], Sequence[int]], m_list: Sequence[int], field: str):
    """(m, bound, bound^{1/m}) along a pattern family, in the log domain.

    field 'complex' scans the sharp complex constant; 'real' scans its
    2^{m-1}-inflated complexification bound.
    """
    if field not in (REAL, COMPLEX):
        raise BoundError(f"field must be 'real' or 'complex', got {field!r}")
    rows = []
    for m in m_list:
        pat = as_pattern(pattern_family(m))
        if pat.m != m:
            raise BoundError(f"family returned pattern of degree {pat.m} for m={m}")
        rec = bound_complex_any(pat) if field == COMPLEX else bound_real_complexification(pat)
        rows.append((m, rec.value, math.exp(rec.log_value / m)))
    return rows


def applicable_bounds(pattern, p: Optional[float], field: str) -> list[BoundRecord]:
    """Every proven calculator that covers (pattern, p, field), most specific
    first: a new list of the frozen records, built once per key."""
    return list(_bound_table(as_pattern(pattern).multiplicities, p, field)[0])


@functools.lru_cache(maxsize=32)
def _bound_table(multiplicities, p: Optional[float], field: str):
    """(applicable records, their bound_best record), both frozen."""
    pat = Pattern(multiplicities)
    if field not in (REAL, COMPLEX):
        raise BoundError(f"field must be 'real' or 'complex', got {field!r}")
    all_ones = set(pat.multiplicities) == {1}
    records: list[BoundRecord] = []
    if pat.n == 1:
        records.append(replace(bound_hilbert(pat), name="single_block", p_lo=1.0, p_hi=math.inf,
                               citation="diagonal block: |L(x^m)| = |P(x)| <= ||P||"))
    if p == 2.0:
        records.append(bound_hilbert(pat))
    if field == COMPLEX:
        if p is not None:
            lp = bound_complex_lp(pat, p)
            if lp.applicable:
                records.append(lp)
        records.append(bound_complex_any(pat))
    else:
        records.append(bound_real_polar(pat))
        records.append(bound_real_hilbert(pat))
        records.append(bound_real_complexification(pat))
    if all_ones:
        records.append(polar_range(pat.m))
        if p is not None and pat.m >= 2:
            records.append(bound_Kmp(pat.m, p))
        if field == COMPLEX and p is not None:
            harris = harris_conjecture(pat.m, p)
            if harris.proven:
                records.append(harris)
    records.append(bound_banach_mazur(pat, p))
    winner = min(records, key=lambda rec: rec.value)
    exact, note = _registry_exact(field, multiplicities)
    note = f"from {winner.name}{note}"
    # complex_lp is kept above only where it applies
    sharp_lp = [rec for rec in records if rec.name == "complex_lp" and rec.sharp]
    if exact is None and sharp_lp:
        exact = sharp_lp[0].value
        note += "; sharp on this p-range, attained by block products"
    return tuple(records), replace(winner, name="best", exact=exact, note=note)


def bound_best(pattern, p: Optional[float], field: str) -> BoundRecord:
    """Minimum over all applicable calculators, recording the winner; frozen,
    built once per (pattern, p, field)."""
    return _bound_table(as_pattern(pattern).multiplicities, p, field)[1]
