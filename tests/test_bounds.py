import math

import pytest
from hypothesis import given, settings, strategies as st

from polarnorm.bounds import (
    BoundError,
    BoundRecord,
    applicable_bounds,
    asymptotic_scan,
    bernstein_pointwise,
    bernstein_width,
    bound_banach_mazur,
    bound_best,
    bound_complex_any,
    bound_complex_lp,
    bound_hilbert,
    bound_Kmp,
    bound_real_best,
    bound_real_complexification,
    bound_real_hilbert,
    bound_real_lp_disjoint,
    bound_real_polar,
    chebyshev_derivative_at_one,
    chebyshev_markov,
    equal_split_family,
    harris_conjecture,
    markov_complex_any,
    markov_complex_lp,
    polar_range,
    rademacher_moment,
    real_markov_range,
)

INF = math.inf

patterns = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)


# ---------------------------------------------------------------------------
# single-degree constants


def test_polar_range_values():
    assert polar_range(3).value == pytest.approx(4.5)
    assert polar_range(1).value == 1.0
    assert polar_range(4).value == pytest.approx(32.0 / 3.0)
    with pytest.raises(BoundError):
        polar_range(0)


def test_hilbert_is_one():
    for pat in [(2, 2), (1, 1, 1), (5,)]:
        assert bound_hilbert(pat).value == 1.0
        assert bound_hilbert(pat).sharp


def test_banach_mazur():
    assert bound_banach_mazur((2, 2), 1.0).value == pytest.approx(4.0)
    assert bound_banach_mazur((3, 1), 2.0).value == pytest.approx(1.0)
    assert bound_banach_mazur((1, 1, 1), None).value == pytest.approx(3.0**1.5)
    assert bound_banach_mazur((2, 2), INF).value == pytest.approx(4.0)


def test_Kmp_branches():
    assert bound_Kmp(3, 1.0).value == pytest.approx(4.5)
    assert bound_Kmp(3, 1.0).sharp
    assert bound_Kmp(3, INF).value == pytest.approx(4.5)
    assert bound_Kmp(4, 2.0).value == pytest.approx(1.0)
    with pytest.raises(BoundError):
        bound_Kmp(1, 2.0)


def test_harris():
    assert harris_conjecture(2, INF).value == pytest.approx(2.0)
    assert harris_conjecture(2, INF).proven
    assert harris_conjecture(4, 2.0).value == pytest.approx(1.0)
    rec = harris_conjecture(3, 1.0)
    assert rec.value == pytest.approx(4.5)
    assert not rec.proven


# ---------------------------------------------------------------------------
# complex constants


def test_complex_lp_sharp_range():
    rec = bound_complex_lp((2, 1), 1.0)
    assert rec.value == pytest.approx(2.25)
    assert rec.sharp
    assert bound_complex_lp((1, 1, 1), 1.0).value == pytest.approx(4.5)
    assert bound_complex_lp((2, 1), INF).value == pytest.approx(2.25)


def test_complex_lp_gap_is_flagged():
    rec = bound_complex_lp((2, 1), 2.0)  # m' = 1.5 < 2 < 3 = m
    assert not rec.applicable
    assert rec.value == INF


def test_complex_any_values():
    assert bound_complex_any((2, 2)).value == pytest.approx(8.0 / 3.0)
    assert bound_complex_any((1, 1, 1, 1)).value == pytest.approx(256.0 / 24.0)
    assert bound_complex_any((3, 1)).value == pytest.approx(64.0 / 27.0)


def test_markov_complex_lp():
    assert markov_complex_lp(2, 4, 1.0).value == pytest.approx(32.0)
    assert markov_complex_lp(2, 4, INF).value == pytest.approx(32.0)
    assert markov_complex_lp(4, 4, 1.0).value == pytest.approx(24.0)  # 0^0 := 1 at k = m


def test_markov_complex_any():
    homog, full = markov_complex_any(2, 4)
    assert homog.value == pytest.approx(32.0)
    assert full.value == pytest.approx(64.0)
    for m in (2, 3, 5):
        homog, full = markov_complex_any(1, m)
        expected = m**m / (m - 1) ** (m - 1)
        assert homog.value == pytest.approx(expected)
        assert full.value == pytest.approx(expected)
    homog, full = markov_complex_any(3, 3)
    assert homog.value == pytest.approx(6.0)
    assert full.value == pytest.approx(27.0)
    # cross-check against the polarization range: ||D^m P|| = m! ||L||
    for m in (2, 3, 4, 6):
        _, full = markov_complex_any(m, m)
        assert full.value == pytest.approx(math.factorial(m) * polar_range(m).value)


# ---------------------------------------------------------------------------
# real constants


def test_real_complexification():
    assert bound_real_complexification((1, 1, 1)).value == pytest.approx(4.0 * 4.5)
    assert bound_real_complexification((2, 2)).value == pytest.approx(64.0 / 3.0)
    assert bound_real_complexification((1,)).value == pytest.approx(1.0)


def test_real_polar():
    for m in (2, 3, 5):
        assert bound_real_polar(tuple([1] * m)).value == pytest.approx(m**m / math.factorial(m))
    assert bound_real_polar((2, 2)).value == pytest.approx(16.0 / 3.0)
    assert bound_real_polar((2, 1)).value == pytest.approx(10.0 / 3.0)


def test_real_hilbert():
    assert bound_real_hilbert((2, 2)).value == pytest.approx(4.0)
    assert bound_real_hilbert((1, 1, 1)).value == pytest.approx(3.0**1.5)
    assert bound_real_hilbert((4,)).value == pytest.approx(1.0)


def test_real_best():
    rec = bound_real_best((2, 2))
    assert rec.value == pytest.approx(4.0)
    assert rec.exact == pytest.approx(3.0)
    assert bound_real_best((1, 1, 1)).value == pytest.approx(4.5)
    assert bound_real_best((3,)).value == pytest.approx(1.0)


def test_real_lp_disjoint():
    assert bound_real_lp_disjoint((1, 1, 1), 3.0).value == pytest.approx(27.0 ** (1 / 3.0) / 6.0)
    assert bound_real_lp_disjoint((2, 2), 4.0).value == pytest.approx(2.0 / 3.0)
    assert bound_real_lp_disjoint((2, 2), 1.0).value == pytest.approx(16.0 / 3.0)
    # second branch at p = 1 coincides with the blocked polarization bound
    assert bound_real_lp_disjoint((2, 1), 1.0).value == pytest.approx(bound_real_polar((2, 1)).value)


@pytest.mark.parametrize("pattern", [(2, 1), (3, 3), (4, 2, 1), (1, 1, 1)])
def test_real_lp_disjoint_at_large_p_approaches_its_sup_norm_value(pattern):
    # k^(p-1) overflows the float range for k >= 2 from p = 1025 on
    at_inf = bound_real_lp_disjoint(pattern, math.inf)
    m = sum(pattern)
    assert at_inf.value == pytest.approx(max(pattern) ** m / math.factorial(m), rel=1e-12)
    for p in (1025.0, 1e6):
        assert math.isfinite(bound_real_lp_disjoint(pattern, p).log_value)
    assert bound_real_lp_disjoint(pattern, 1e6).value == pytest.approx(at_inf.value, rel=1e-4)


def test_real_markov_range():
    r = real_markov_range(4, 2)
    assert r.homogeneous_lower == pytest.approx(32.0)
    assert r.homogeneous_upper == pytest.approx(48.0)
    assert r.homogeneous_exact == pytest.approx(36.0)
    assert r.full_lower == pytest.approx(64.0)
    assert r.full_upper == pytest.approx(96.0)
    # k = m: 0^0 convention makes the lower end m!
    r = real_markov_range(5, 5)
    assert r.homogeneous_lower == pytest.approx(math.factorial(5))


def test_real_markov_brackets_are_ordered():
    # at k = m the two ends are equal in exact arithmetic; they rounded apart, inverted
    for m in range(1, 301):
        for k in range(1, m + 1):
            r = real_markov_range(m, k)
            assert r.homogeneous_lower <= r.homogeneous_upper, (m, k)
            assert r.full_lower <= r.full_upper, (m, k)
        r = real_markov_range(m, m)
        assert r.homogeneous_upper == r.homogeneous_lower and r.full_upper == r.full_lower, m


# ---------------------------------------------------------------------------
# classical one-variable constants


def test_chebyshev_markov_spot_values():
    assert chebyshev_markov(4, 1).value == pytest.approx(16.0)
    assert chebyshev_markov(4, 2).value == pytest.approx(80.0)


def test_chebyshev_matches_recurrence_oracle():
    for m in range(1, 13):
        for k in range(1, m + 1):
            calc = chebyshev_markov(m, k).value
            oracle = chebyshev_derivative_at_one(m, k)
            assert abs(calc - oracle) <= 1e-9 * abs(oracle)


def test_bernstein_pointwise():
    assert bernstein_pointwise(3, 0.0, 0.0) == pytest.approx(3.0)
    assert bernstein_pointwise(3, 1.0, 0.0) == pytest.approx(0.0)
    assert bernstein_pointwise(3, 0.0, 1.0 - 1e-12) == pytest.approx(9.0)
    with pytest.raises(BoundError):
        bernstein_pointwise(3, 1.5, 0.0)
    with pytest.raises(BoundError):
        bernstein_pointwise(3, 0.0, 1.0)


def test_bernstein_width():
    out = bernstein_width(2, 2.0, 0.0)
    assert out["pointwise"] == pytest.approx(2.0)
    assert out["gradient"] == pytest.approx(4.0)
    assert bernstein_width(1, 2.0)["gradient"] == pytest.approx(1.0)
    assert bernstein_width(2, 2.0, 0.6)["pointwise"] == pytest.approx(2.5)


def test_rademacher_moment_values():
    assert rademacher_moment(2, 2) == pytest.approx(2.0)
    assert rademacher_moment(3, 4) == pytest.approx(21.0)
    for m in (1, 3, 7):
        assert rademacher_moment(1, m) == pytest.approx(1.0)


def test_rademacher_moment_past_the_float_range_is_inf():
    assert rademacher_moment(3, 2000) == math.inf


def test_rademacher_moment_interpolation_bound():
    for k in range(1, 13):
        for m in range(2, 13):
            val = rademacher_moment(k, m)
            assert val <= k ** (m - 1) + 1e-12
            if m == 2:
                assert val == pytest.approx(float(k))


# ---------------------------------------------------------------------------
# asymptotics


def test_asymptotic_scan_complex():
    rows = asymptotic_scan(equal_split_family(2), range(2, 201, 2), "complex")
    assert rows[0][2] == pytest.approx(math.sqrt(2.0))
    roots = [r for _, _, r in rows]
    assert roots[-1] <= 1.02
    assert all(math.isfinite(r) for r in roots)


def test_asymptotic_scan_real():
    rows = asymptotic_scan(equal_split_family(2), [200], "real")
    assert rows[0][2] <= 2.05
    assert math.isfinite(rows[0][2])


# ---------------------------------------------------------------------------
# aggregation


def test_bound_best_real_22():
    rec = bound_best((2, 2), None, "real")
    assert rec.value == pytest.approx(4.0)
    assert "real_hilbert" in rec.note
    assert rec.exact == pytest.approx(3.0)


def test_bound_best_complex_21_p1():
    rec = bound_best((2, 1), 1.0, "complex")
    assert rec.value == pytest.approx(2.25)
    assert "complex_lp" in rec.note


def test_bound_best_single_block():
    for field in ("real", "complex"):
        rec = bound_best((4,), None, field)
        assert rec.value == pytest.approx(1.0)


@pytest.mark.parametrize("p", [None, 1.0, 2.0, math.inf])
def test_the_single_block_record_holds_on_every_p(p):
    for field in ("real", "complex"):
        rec = applicable_bounds((3,), p, field)[0]
        assert rec == BoundRecord(
            "single_block", 1.0, 0.0, "both", p_lo=1.0, p_hi=math.inf, pattern=(3,), sharp=True,
            citation="diagonal block: |L(x^m)| = |P(x)| <= ||P||")


def test_bound_best_fills_complex_lp_gap():
    # on (m', m) the lp calculator abstains; the distance bound still applies
    rec = bound_best((2, 1), 2.0, "complex")
    assert math.isfinite(rec.value)
    assert rec.value <= bound_complex_any((2, 1)).value + 1e-12


def test_applicable_bounds_all_finite():
    for rec in applicable_bounds((2, 1), 1.0, "complex"):
        assert rec.applicable
        assert math.isfinite(rec.value)


@pytest.mark.parametrize("p", [None, 1.0, 2.0, 3.0, INF])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_applicable_bounds_hands_out_a_new_list_of_one_table_per_key(field, p):
    # a pattern given as an int, a list, a tuple or a Pattern is one key;
    # each call gets its own list, equal to a build from a cleared cache
    from polarnorm import bounds
    from polarnorm.forms import Pattern

    for forms in ([3, [3], (3,), Pattern((3,))], [[2, 1], (2, 1), Pattern((2, 1))],
                  [[1, 1], (1, 1), Pattern((1, 1))]):
        bounds._bound_table.cache_clear()
        cold = applicable_bounds(forms[0], p, field)
        best = bound_best(forms[0], p, field)
        lists = [applicable_bounds(pattern, p, field) for pattern in forms]
        assert bounds._bound_table.cache_info().currsize == 1
        assert all(got == cold and got is not cold for got in lists)
        assert all(bound_best(pattern, p, field) == best for pattern in forms)
        lists[0].clear()
        assert applicable_bounds(forms[1], p, field) == cold
    with pytest.raises(BoundError):
        applicable_bounds((2, 1), p, "quaternion")


# ---------------------------------------------------------------------------
# structural invariants


def test_branch_continuity_Kmp_vs_complex_lp():
    for m in (2, 3, 4, 7):
        mprime = m / (m - 1)
        ones = tuple([1] * m)
        a = bound_Kmp(m, mprime).value
        b = bound_complex_lp(ones, mprime).value
        assert abs(a - b) <= 1e-12 * abs(b)
        a = bound_Kmp(m, float(m)).value
        b = bound_complex_lp(ones, float(m)).value
        assert abs(a - b) <= 1e-12 * abs(b)


@settings(max_examples=60, deadline=None)
@given(patterns, st.permutations(range(4)))
def test_pattern_symmetry(pat, perm):
    shuffled = tuple(pat[i] for i in perm[: len(pat)] if i < len(pat))
    if sorted(shuffled) != sorted(pat):
        shuffled = tuple(reversed(pat))
    for fn in (bound_complex_any, bound_real_polar, bound_real_hilbert, bound_real_best):
        assert fn(pat).value == pytest.approx(fn(shuffled).value, rel=1e-12)
    assert bound_banach_mazur(pat, 1.5).value == pytest.approx(
        bound_banach_mazur(shuffled, 1.5).value, rel=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(patterns)
def test_dominance_chain(pat):
    best = bound_real_best(pat).value
    assert best <= bound_real_polar(pat).value + 1e-12
    assert best <= bound_real_hilbert(pat).value * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(patterns)
def test_complex_below_real_complexification(pat):
    m = sum(pat)
    cx = bound_complex_any(pat).value
    real = bound_real_complexification(pat).value
    assert cx == real / 2.0 ** (m - 1)


def test_banach_mazur_monotone_in_p_above_two():
    ps = [2.0, 2.5, 3.0, 4.0, 8.0, 64.0, INF]
    vals = [bound_banach_mazur((2, 2, 1), p).value for p in ps]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


@settings(max_examples=40, deadline=None)
@given(patterns, st.one_of(st.none(), st.floats(1.0, 64.0)))
def test_log_domain_fidelity(pat, p):
    records = [
        bound_complex_any(pat),
        bound_real_polar(pat),
        bound_real_hilbert(pat),
        bound_real_complexification(pat),
        bound_banach_mazur(pat, p),
    ]
    if p is not None:
        lp = bound_complex_lp(pat, p)
        if lp.applicable:
            records.append(lp)
    for rec in records:
        assert math.isfinite(rec.value)
        assert abs(math.exp(rec.log_value) - rec.value) <= 1e-12 * rec.value
