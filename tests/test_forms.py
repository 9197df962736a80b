import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarnorm.forms import (
    COMPLEX,
    REAL,
    FormError,
    MultiIndex,
    Pattern,
    SpaceSpec,
    _coordinate_coeffs,
    complexify_eval,
    complexify_form,
    eval_mixed,
    eval_mixed_grad,
    eval_poly,
    eval_tensor_direct,
    form_from_dict,
    form_to_dict,
    frechet,
    make_form,
    multinomial_terms,
    polarize,
    random_form,
    zero_form,
)


def product_form(m, d, field=REAL):
    alpha = tuple([1] * m + [0] * (d - m))
    return make_form(m, d, field, [(alpha, 1.0)])


def e(i, d):
    v = np.zeros(d)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# types


def test_multiindex_rejects_negative():
    with pytest.raises(FormError):
        MultiIndex((1, -1))


def test_pattern_validation():
    p = Pattern((2, 1))
    assert p.n == 2 and p.m == 3
    with pytest.raises(FormError):
        Pattern((0, 2))
    with pytest.raises(FormError):
        Pattern(())


def test_space_conjugate_exponent():
    assert SpaceSpec(1.0, 3).conjugate == math.inf
    assert SpaceSpec(math.inf, 3).conjugate == 1.0
    assert SpaceSpec(2.0, 3).conjugate == 2.0
    assert SpaceSpec(4.0, 3).conjugate == pytest.approx(4.0 / 3.0)
    with pytest.raises(FormError):
        SpaceSpec(0.5, 3)


# ---------------------------------------------------------------------------
# construction


def test_make_form_single_monomial():
    f = product_form(3, 3)
    assert eval_poly(f, [1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_make_form_rejects_duplicates():
    with pytest.raises(FormError):
        make_form(2, 2, REAL, [((1, 1), 1.0), ((1, 1), 2.0)])


def test_make_form_rejects_degree_mismatch():
    with pytest.raises(FormError):
        make_form(3, 2, REAL, [((1, 1), 1.0)])


def test_make_form_rejects_dim_mismatch():
    with pytest.raises(FormError):
        make_form(2, 3, REAL, [((1, 1), 1.0)])


def test_make_form_rejects_complex_scalar_in_real_form():
    with pytest.raises(FormError):
        make_form(2, 2, REAL, [((1, 1), 1.0 + 2.0j)])


# ---------------------------------------------------------------------------
# eval_poly


def test_eval_poly_product():
    f = product_form(3, 3)
    assert eval_poly(f, [1, 1, 1]) == pytest.approx(1.0)
    assert eval_poly(f, [1, 0, 1]) == 0.0


def test_eval_poly_square():
    f = make_form(2, 1, REAL, [((2,), 1.0)])
    assert eval_poly(f, [3.0]) == pytest.approx(9.0)


def test_eval_poly_dimension_mismatch():
    f = product_form(2, 2)
    with pytest.raises(FormError):
        eval_poly(f, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# polarize: frozen values computed from the tensor oracle


def test_polarize_bilinear_basis():
    # tensor oracle: entry at (1,2) is a_(1,1) * 1!1!/2! = 1/2
    f = product_form(2, 2)
    assert polarize(f, [e(0, 2), e(1, 2)]) == pytest.approx(0.5, abs=1e-14)
    assert eval_tensor_direct(f, [e(0, 2), e(1, 2)]) == pytest.approx(0.5, abs=1e-14)


def test_polarize_product_three_basis_vectors():
    f = product_form(3, 3)
    assert polarize(f, [e(0, 3), e(1, 3), e(2, 3)]) == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert eval_tensor_direct(f, [e(0, 3), e(1, 3), e(2, 3)]) == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_polarize_argument_count_and_cap():
    f = product_form(2, 2)
    with pytest.raises(FormError):
        polarize(f, [e(0, 2)])
    with pytest.raises(FormError):
        polarize(f, [e(0, 2), e(1, 2)], cap=1)


def test_tensor_oracle_repeated_index_is_zero():
    f = product_form(3, 3)
    assert eval_tensor_direct(f, [e(0, 3), e(0, 3), e(1, 3)]) == pytest.approx(0.0, abs=1e-15)


def test_tensor_cap():
    f = product_form(3, 3)
    with pytest.raises(FormError):
        eval_tensor_direct(f, [e(0, 3)] * 3, cap=10)


def test_tensor_oracle_high_degree_low_dim():
    # d^m stays small even though m! is astronomical; multiset enumeration
    # must not blow up with the repeated indices
    rng = np.random.default_rng(101)
    form = random_form(rng, 12, 2)
    xs = [rng.standard_normal(2) for _ in range(12)]
    a = eval_tensor_direct(form, xs)
    b = polarize(form, xs)
    assert abs(a - b) <= 1e-9 * (1.0 + abs(b))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("m,d", [(2, 2), (3, 3), (4, 2), (5, 4)])
def test_polarize_matches_tensor_oracle(field, m, d):
    rng = np.random.default_rng(1234 + m * 10 + d)
    form = random_form(rng, m, d, field)
    for _ in range(3):
        if field == REAL:
            xs = [rng.standard_normal(d) for _ in range(m)]
        else:
            xs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(m)]
        a = polarize(form, xs)
        b = eval_tensor_direct(form, xs)
        assert abs(a - b) <= 1e-9 * (1.0 + abs(b))


def test_polarize_diagonal_recovers_poly():
    rng = np.random.default_rng(7)
    for m, d in [(2, 3), (3, 2), (4, 4), (5, 3)]:
        form = random_form(rng, m, d)
        x = rng.standard_normal(d)
        p = eval_poly(form, x)
        q = polarize(form, [x] * m)
        assert abs(p - q) <= 1e-12 * (1.0 + abs(p))


def test_polarize_symmetry_under_permutation():
    rng = np.random.default_rng(11)
    form = random_form(rng, 4, 3)
    xs = [rng.standard_normal(3) for _ in range(4)]
    base = polarize(form, xs)
    assert polarize(form, [xs[2], xs[0], xs[3], xs[1]]) == pytest.approx(base, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2, 4),
    st.integers(2, 3),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.integers(0, 10_000),
)
def test_polarize_multilinearity(m, d, a, b, seed):
    rng = np.random.default_rng(seed)
    form = random_form(rng, m, d)
    xs = [rng.standard_normal(d) for _ in range(m)]
    u, v = rng.standard_normal(d), rng.standard_normal(d)
    lhs = polarize(form, [a * u + b * v] + xs[1:])
    rhs = a * polarize(form, [u] + xs[1:]) + b * polarize(form, [v] + xs[1:])
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# eval_mixed


def test_eval_mixed_single_block_is_poly():
    rng = np.random.default_rng(3)
    form = random_form(rng, 4, 3)
    x = rng.standard_normal(3)
    assert eval_mixed(form, (4,), [x]) == pytest.approx(eval_poly(form, x), rel=1e-12)


def test_eval_mixed_product_pattern_21():
    # tensor oracle: L(x1, x1, e3) with x1 = (1,1,0) equals 1/3
    f = product_form(3, 3)
    x1 = np.array([1.0, 1.0, 0.0])
    assert eval_mixed(f, (2, 1), [x1, e(2, 3)]) == pytest.approx(1.0 / 3.0, abs=1e-13)
    assert eval_tensor_direct(f, [x1, x1, e(2, 3)]) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_eval_mixed_agrees_with_expanded_polarize():
    rng = np.random.default_rng(5)
    for field in (REAL, COMPLEX):
        form = random_form(rng, 5, 3, field)
        xs = [rng.standard_normal(3) for _ in range(2)]
        expanded = polarize(form, [xs[0]] * 3 + [xs[1]] * 2)
        blocked = eval_mixed(form, (3, 2), xs)
        assert abs(expanded - blocked) <= 1e-9 * (1.0 + abs(expanded))


def test_eval_mixed_validation():
    f = product_form(3, 3)
    with pytest.raises(FormError):
        eval_mixed(f, (2, 2), [e(0, 3), e(1, 3)])
    with pytest.raises(FormError):
        eval_mixed(f, (2, 1), [e(0, 3)])


def test_eval_mixed_grad_matches_finite_difference():
    rng = np.random.default_rng(17)
    form = random_form(rng, 4, 3)
    xs = [rng.standard_normal(3), rng.standard_normal(3)]
    value, grads = eval_mixed_grad(form, (2, 2), xs)
    assert value == pytest.approx(eval_mixed(form, (2, 2), xs), rel=1e-12)
    h = 1e-6
    for j in range(2):
        for i in range(3):
            up = [x.copy() for x in xs]
            dn = [x.copy() for x in xs]
            up[j][i] += h
            dn[j][i] -= h
            fd = (eval_mixed(form, (2, 2), up) - eval_mixed(form, (2, 2), dn)) / (2 * h)
            assert grads[j][i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_eval_mixed_grad_refuses_a_degree_over_the_cap_like_eval_mixed():
    # (21,) has a 22-row block table, so the check, not the cost, refuses it
    f = make_form(21, 1, REAL, [((21,), 1.0)])
    x = np.array([1.0])
    with pytest.raises(FormError, match="polarization cap"):
        eval_mixed(f, (21,), [x])
    with pytest.raises(FormError, match="polarization cap"):
        eval_mixed_grad(f, (21,), [x])


# one monomial table behind value, gradient and coordinate polynomials

# supports of sizes 1, 3 and 2, so the table pads two of its rows
MIXED_SUPPORT = [((3, 0, 0, 0), 1.0), ((1, 1, 1, 0), 1.0), ((0, 1, 0, 2), 1.0)]


def _kernel_forms():
    rng = np.random.default_rng(23)
    forms = [
        random_form(rng, m, d, field)
        for field in (REAL, COMPLEX)
        for m, d in ((1, 4), (2, 3), (3, 5), (4, 1), (5, 2), (5, 5))
    ]
    forms += [make_form(3, 4, field, MIXED_SUPPORT) for field in (REAL, COMPLEX)]
    forms += [zero_form(3, 4, field) for field in (REAL, COMPLEX)]
    return forms


@pytest.mark.parametrize("form", _kernel_forms(), ids=repr)
def test_eval_grad_batch_matches_central_differences(form):
    rng = np.random.default_rng(29)
    pts = rng.standard_normal((6, form.dim))
    if form.field == COMPLEX:
        pts = pts + 1j * rng.standard_normal((6, form.dim))
    vals, grads = form.eval_grad_batch(pts)
    assert grads.shape == (6, form.dim)
    np.testing.assert_array_equal(vals, form.eval_batch(pts))
    h = 1e-6
    for i, step in enumerate(h * np.eye(form.dim)):
        # a holomorphic partial equals the derivative along the real axis
        fd = (form.eval_batch(pts + step) - form.eval_batch(pts - step)) / (2 * h)
        np.testing.assert_allclose(grads[:, i], fd, rtol=1e-6, atol=1e-6)


def test_eval_grad_batch_zero_form_is_zero():
    for field in (REAL, COMPLEX):
        vals, grads = zero_form(3, 4, field).eval_grad_batch(np.ones((5, 4)))
        assert vals.shape == (5,) and grads.shape == (5, 4)
        assert not vals.any() and not grads.any()


def test_eval_grad_batch_degree_one_is_coefficients():
    a = np.array([1.5, -2.0, 0.0, 0.25])
    form = make_form(1, 4, REAL, [(tuple(np.eye(4, dtype=int)[i]), a[i]) for i in range(4)])
    pts = np.random.default_rng(31).standard_normal((7, 4))
    vals, grads = form.eval_grad_batch(pts)
    np.testing.assert_allclose(vals, pts @ a, rtol=1e-15)
    np.testing.assert_array_equal(grads, np.broadcast_to(a, (7, 4)))


def test_eval_grad_batch_mixed_supports_exact():
    form = make_form(3, 4, REAL, MIXED_SUPPORT)
    pts = np.array([[1.0, 2.0, 3.0, 4.0], [-0.5, 0.0, 2.0, -1.0], [0.0, 0.0, 0.0, 0.0]])
    x1, x2, x3, x4 = pts.T
    vals, grads = form.eval_grad_batch(pts)
    np.testing.assert_array_equal(vals, x1**3 + x1 * x2 * x3 + x2 * x4**2)
    expected = np.stack([3 * x1**2 + x2 * x3, x1 * x3 + x4**2, x1 * x2, 2 * x2 * x4], axis=1)
    np.testing.assert_array_equal(grads, expected)


def test_table_compiles_rows_to_the_widest_support():
    from polarnorm.extremals import nonattaining_bilinear, real44_form

    assert nonattaining_bilinear(5).form._table[0].shape[1] == 1
    assert real44_form().form._table[0].shape[1] == 2
    assert make_form(3, 4, REAL, MIXED_SUPPORT)._table[0].shape[1] == 3
    rng = np.random.default_rng(41)
    for m, d in ((1, 4), (2, 3), (3, 5), (4, 2), (5, 5)):
        assert random_form(rng, m, d)._table[0].shape[1] == min(m, d)


def test_pure_power_top_is_the_largest_coefficient_modulus_at_width_one():
    from polarnorm.extremals import nonattaining_bilinear, real44_form

    assert nonattaining_bilinear(5).form._pure_power_top == 5 / 6
    pure = make_form(3, 3, COMPLEX, [((3, 0, 0), 1 - 2j), ((0, 0, 3), -2.0)])
    assert pure._pure_power_top == np.abs(1 - 2j)
    # every linear form is a sum of pure powers x_i^1
    assert random_form(np.random.default_rng(3), 1, 4)._pure_power_top is not None
    assert real44_form().form._pure_power_top is None
    assert random_form(np.random.default_rng(3), 2, 2)._pure_power_top is None
    assert zero_form(2, 3)._pure_power_top is None


def _padded_eval_grad(form, points):
    """eval_grad_batch from rows padded with x_0^0 to min(m, d) factors, the
    width every table had before tables took the widest support."""
    E, d = form._exponents, form.dim
    r = min(form.degree, d)
    coords = np.argsort(E == 0, axis=1, kind="stable")[:, :r]
    exps = np.take_along_axis(E, coords, axis=1)
    support = exps > 0
    rows = np.where(support, exps * d + coords, 0)
    grad_rows = (rows[:, None, :] - d * np.eye(r, dtype=np.int64))[support]
    grad_weights = (form._values[:, None] * exps)[support]
    scatter = np.zeros((len(grad_rows), d))
    scatter[np.arange(len(grad_rows)), coords[support]] = 1.0
    monomials, lowered = form._products(points, rows, grad_rows)
    return monomials @ form._values, (lowered * grad_weights[None, :]) @ scatter


def _narrow_forms(field, count, rng):
    """Random sparse forms whose monomials have at most w < min(m, d) factors."""
    forms = []
    while len(forms) < count:
        m, d = rng.integers(2, 6, size=2)
        w = rng.integers(1, min(m, d))
        entries = {}
        for _ in range(rng.integers(1, 8)):
            exps = np.zeros(d, dtype=int)
            coords = rng.choice(d, size=w, replace=False)
            exps[coords] = 1
            np.add.at(exps, rng.choice(coords, size=m - w), 1)
            value = rng.standard_normal() if field == REAL else complex(*rng.standard_normal(2))
            entries[tuple(exps)] = value
        forms.append(make_form(int(m), int(d), field, entries.items()))
    return forms


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_narrow_tables_evaluate_with_the_bits_of_padded_ones(field):
    # a padding factor x_0^0 = 1.0 changes no bit of a value, the sign of
    # zero included.  A complex product with 1 + 0j can turn a -0 part of an
    # exact zero into +0, so a complex gradient entry that is exactly zero
    # may carry either sign; every other entry keeps its bits.
    rng = np.random.default_rng(43)
    forms = _narrow_forms(field, 100, rng) + _kernel_forms()
    for form in forms:
        pts = rng.standard_normal((12, form.dim))
        if field == COMPLEX:
            pts = pts + 1j * rng.standard_normal((12, form.dim))
        pts[rng.random(pts.shape) < 0.3] = 0.0
        pts[rng.random(pts.shape) < 0.2] = -0.0
        if field == COMPLEX:
            pts[rng.random(pts.shape) < 0.2] = complex(-0.0, -1.0)
        pts[-1] = -0.0
        vals, grads = form.eval_grad_batch(pts)
        ref_vals, ref_grads = _padded_eval_grad(form, pts)
        nonzero = ref_grads != 0 if field == COMPLEX else np.ones(ref_grads.shape, dtype=bool)
        for got, ref in ((vals, ref_vals), (form.eval_batch(pts), ref_vals),
                         (grads[nonzero], ref_grads[nonzero])):
            np.testing.assert_array_equal(got, ref)
            np.testing.assert_array_equal(np.signbit(got.real), np.signbit(ref.real))
            np.testing.assert_array_equal(np.signbit(np.imag(got)), np.signbit(np.imag(ref)))
        np.testing.assert_array_equal(grads, ref_grads)


def _dense_kernel(form, points):
    """Values and gradients as the kernel gives them with no shortcut: powers
    by repeated multiplication by the points, the product of every gathered
    row, and the weighted gradient rows scattered by a dense 0/1 matmul."""
    E, d = form._exponents, form.dim
    r = int((E > 0).sum(axis=1).max(initial=0))
    coords = np.argsort(E == 0, axis=1, kind="stable")[:, :r]
    exps = np.take_along_axis(E, coords, axis=1)
    support = exps > 0
    rows = np.where(support, exps * d + coords, 0)
    grad_rows = (rows[:, None, :] - d * np.eye(r, dtype=np.int64))[support]
    grad_weights = (form._values[:, None] * exps)[support]
    scatter = np.zeros((len(grad_rows), d))
    scatter[np.arange(len(grad_rows)), coords[support]] = 1.0
    powers = np.empty((form.degree + 1, d, len(points)), dtype=points.dtype)
    powers[0] = 1.0
    for k in range(form.degree):
        np.multiply(powers[k], points.T, out=powers[k + 1])
    powers = powers.reshape(-1, len(points))
    monomials, lowered = (np.multiply.reduce(np.take(powers, table, axis=0), axis=1).T
                          for table in (rows, grad_rows))
    return monomials @ form._values, (lowered * grad_weights[None, :]) @ scatter


def _bits(x):
    return np.ascontiguousarray(x).view(np.int64)


@pytest.mark.parametrize("point_field", [REAL, COMPLEX])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_pure_power_forms_evaluate_with_the_bits_of_the_dense_scatter(field, point_field):
    # sum_i a_i x_i^m over some coordinates: a width-1 table, whose real
    # monomials are their one gathered power
    rng = np.random.default_rng(47)
    for m in range(1, 6):
        for d in range(1, 13):
            entries = []
            for i in np.flatnonzero(rng.random(d) < 0.7):
                alpha = tuple(m * (np.arange(d) == i))
                entries.append((alpha, rng.standard_normal() if field == REAL
                                else complex(*rng.standard_normal(2))))
            form = make_form(m, d, field, entries)
            assert form._table[0].shape[1] == (1 if entries else 0)
            for n in (1, 2, 33, 132):
                pts = rng.standard_normal((n, d))
                if point_field == COMPLEX:
                    pts = pts + 1j * rng.standard_normal((n, d))
                    pts[rng.random(pts.shape) < 0.1] = complex(-0.0, -1.0)
                    pts[rng.random(pts.shape) < 0.1] = complex(1.0, -0.0)
                pts[rng.random(pts.shape) < 0.3] = 0.0
                pts[rng.random(pts.shape) < 0.2] = -0.0
                pts[-1] = -0.0
                vals, grads = form.eval_grad_batch(pts)
                ref_vals, ref_grads = _dense_kernel(form, pts)
                assert grads.shape == ref_grads.shape and grads.dtype == ref_grads.dtype
                for got, ref in ((vals, ref_vals), (form.eval_batch(pts), ref_vals),
                                 (grads, ref_grads)):
                    np.testing.assert_array_equal(_bits(got), _bits(ref))


@pytest.mark.parametrize("pattern", [(3,), (2, 2)])
def test_coordinate_coeffs_reproduce_the_mixed_value(pattern):
    rng = np.random.default_rng(37)
    form = random_form(rng, sum(pattern), 3)
    xs = rng.uniform(-1.0, 1.0, (len(pattern), 3))
    for j in range(len(pattern)):
        for i in range(3):
            coeffs = _coordinate_coeffs(form, pattern, xs[None], j, i)[0]
            assert len(coeffs) == pattern[j] + 1
            for t in (-1.0, -0.3, 0.5, 1.0):
                probe = xs.copy()
                probe[j, i] = t
                expected = eval_mixed(form, pattern, list(probe))
                assert abs(np.polynomial.polynomial.polyval(t, coeffs) - expected) <= 1e-12


# ---------------------------------------------------------------------------
# frechet derivatives


def test_frechet_bilinear_first_derivative():
    f = product_form(2, 2)
    # D P(e1)(e2) = 2 L(e1, e2) = 1
    assert frechet(f, e(0, 2), 1, [e(1, 2)]) == pytest.approx(1.0, abs=1e-14)


def test_frechet_top_derivative_independent_of_x():
    rng = np.random.default_rng(23)
    form = random_form(rng, 3, 2)
    ys = [rng.standard_normal(2) for _ in range(3)]
    a = frechet(form, np.zeros(2), 3, ys)
    b = frechet(form, rng.standard_normal(2), 3, ys)
    expected = math.factorial(3) * polarize(form, ys)
    assert a == pytest.approx(expected, rel=1e-12)
    assert b == pytest.approx(expected, rel=1e-12)


def test_frechet_univariate_square():
    f = make_form(2, 1, REAL, [((2,), 1.0)])
    assert frechet(f, np.array([1.0]), 1, [np.array([1.0])]) == pytest.approx(2.0)


def test_frechet_first_derivative_central_difference():
    rng = np.random.default_rng(29)
    for m, d in [(2, 2), (3, 3), (4, 2)]:
        form = random_form(rng, m, d)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        h = 1e-5
        fd = (eval_poly(form, x + h * y) - eval_poly(form, x - h * y)) / (2 * h)
        val = frechet(form, x, 1, [y])
        assert abs(val - fd) <= 1e-6 * (1.0 + abs(val))


def test_frechet_k_out_of_range():
    f = product_form(2, 2)
    with pytest.raises(FormError):
        frechet(f, e(0, 2), 3, [e(0, 2)] * 3)


# ---------------------------------------------------------------------------
# multinomial expansion


def test_multinomial_single_vector():
    rng = np.random.default_rng(31)
    form = random_form(rng, 3, 2)
    x = rng.standard_normal(2)
    terms = multinomial_terms(form, [x])
    assert len(terms) == 1
    js, weight, value = terms[0]
    assert js == (3,) and weight == 1.0
    assert value == pytest.approx(eval_poly(form, x), rel=1e-12)


def test_multinomial_sum_identity():
    rng = np.random.default_rng(37)
    for field in (REAL, COMPLEX):
        form = random_form(rng, 4, 3, field)
        xs = [rng.standard_normal(3) for _ in range(2)]
        terms = multinomial_terms(form, xs)
        total = sum(w * v for _, w, v in terms)
        direct = eval_poly(form, xs[0] + xs[1])
        assert abs(total - direct) <= 1e-9 * (1.0 + abs(direct))


def test_multinomial_contains_central_term():
    rng = np.random.default_rng(41)
    form = random_form(rng, 4, 4)
    xs = [rng.standard_normal(4), rng.standard_normal(4)]
    terms = {js: (w, v) for js, w, v in multinomial_terms(form, xs)}
    w, v = terms[(2, 2)]
    assert w == 6.0
    assert v == pytest.approx(eval_mixed(form, (2, 2), xs), rel=1e-12)


# ---------------------------------------------------------------------------
# complexification


def test_complexify_univariate_square():
    f = make_form(2, 1, REAL, [((2,), 1.0)])
    a, b = 1.7, -0.4
    val = complexify_eval(f, np.array([a]), np.array([b]))
    assert val == pytest.approx(complex(a * a - b * b, 2 * a * b), rel=1e-12)


def test_complexify_zero_imaginary_part():
    rng = np.random.default_rng(43)
    form = random_form(rng, 3, 3)
    x = rng.standard_normal(3)
    val = complexify_eval(form, x, np.zeros(3))
    assert abs(val.imag) <= 1e-12
    assert val.real == pytest.approx(eval_poly(form, x), rel=1e-12)


def test_complexify_product_basis():
    f = product_form(2, 2)
    val = complexify_eval(f, e(0, 2), e(1, 2))
    assert val == pytest.approx(1j, abs=1e-14)


def test_complexify_matches_direct_complex_evaluation():
    rng = np.random.default_rng(47)
    for m, d in [(2, 2), (3, 3), (4, 2), (5, 3)]:
        form = random_form(rng, m, d)
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        via_blocks = complexify_eval(form, x, y)
        direct = eval_poly(complexify_form(form), x + 1j * y)
        assert abs(via_blocks - direct) <= 1e-10 * (1.0 + abs(direct))


def test_complexify_rejects_complex_form():
    rng = np.random.default_rng(53)
    form = random_form(rng, 2, 2, COMPLEX)
    with pytest.raises(FormError):
        complexify_eval(form, np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# zero form and scaling


def test_zero_form_identities():
    f = zero_form(3, 2)
    x = np.array([1.0, 2.0])
    assert eval_poly(f, x) == 0.0
    assert polarize(f, [x, x, x]) == 0.0
    assert eval_tensor_direct(f, [x, x, x]) == 0.0


def test_scaled_form():
    f = product_form(2, 2)
    g = f.scaled(3.0)
    assert eval_poly(g, [1.0, 1.0]) == pytest.approx(3.0)
    assert g.field == REAL


# ---------------------------------------------------------------------------
# file format


def test_form_roundtrip(tmp_path):
    rng = np.random.default_rng(59)
    for field in (REAL, COMPLEX):
        form = random_form(rng, 3, 3, field)
        doc = form_to_dict(form)
        back = form_from_dict(json.loads(json.dumps(doc)))
        assert back.degree == form.degree and back.dim == form.dim and back.field == field
        for k, v in form.coeffs.items():
            assert back.coeffs[k] == v


def test_form_file_bad_document():
    with pytest.raises(FormError):
        form_from_dict({"degree": 2, "dim": 2})
