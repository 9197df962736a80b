import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from polarnorm.forms import (
    COMPLEX,
    REAL,
    SpaceSpec,
    SymmetricForm,
    _mixed_values,
    as_pattern,
    conjugate_exponent,
    eval_mixed,
    make_form,
    polarize,
    random_form,
    zero_form,
)
from polarnorm import norms
from polarnorm.cli import verify_samples
from polarnorm.norms import (
    _MAX_STEP,
    _MIN_STEP,
    DegenerateFormError,
    NormError,
    OptimizerConfig,
    _ascent_direction,
    _block_ascent,
    _clip_linf,
    _coordinate_moves,
    _gradient_moves,
    _sphere_move,
    _starts,
    _ternary_candidates,
    _value_grads,
    _values,
    dual_align,
    grid_oracle,
    lp_norm,
    mixed_norm,
    multilinear_norm,
    poly_norm,
    project_l1_sphere,
    radial_normalize,
    ratio_report,
)

CFG = OptimizerConfig(restarts=16)


def product_form(m, d, field=REAL):
    alpha = tuple([1] * m + [0] * (d - m))
    return make_form(m, d, field, [(alpha, 1.0)])


# ---------------------------------------------------------------------------
# geometry helpers


def test_lp_norm_basics():
    x = np.array([3.0, -4.0])
    assert lp_norm(x, 2.0) == pytest.approx(5.0)
    assert lp_norm(x, 1.0) == pytest.approx(7.0)
    assert lp_norm(x, math.inf) == pytest.approx(4.0)


def test_project_l1_sphere():
    y = project_l1_sphere(np.array([2.0, 0.5, -0.1]))
    assert lp_norm(y, 1.0) == pytest.approx(1.0, abs=1e-12)
    # interior points move out radially
    y = project_l1_sphere(np.array([0.2, 0.2]))
    assert y == pytest.approx(np.array([0.5, 0.5]))


def test_dual_align_real():
    phi = np.array([3.0, -4.0, 0.0])
    y = dual_align(phi, 2.0, 3)
    assert y == pytest.approx(phi / 5.0)
    y = dual_align(phi, 1.0, 3)
    assert y == pytest.approx(np.array([0.0, -1.0, 0.0]))
    y = dual_align(phi, math.inf, 3)
    assert y == pytest.approx(np.array([1.0, -1.0, 0.0]))
    # ties at p = 1 break to the lowest index; zero functional returns e1
    y = dual_align(np.array([2.0, -2.0]), 1.0, 2)
    assert y == pytest.approx(np.array([1.0, 0.0]))
    y = dual_align(np.zeros(3), 1.0, 3)
    assert y == pytest.approx(np.array([1.0, 0.0, 0.0]))


def test_dual_align_complex():
    phi = np.array([1.0 + 1.0j, 0.0])
    y = dual_align(phi, 2.0, 2)
    assert abs(np.vdot(np.conj(phi), y)) == pytest.approx(lp_norm(phi, 2.0))
    assert lp_norm(y, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_dual_align_is_exact_linear_maximizer():
    rng = np.random.default_rng(0)
    for p in [1.0, 1.5, 2.0, 3.0, math.inf]:
        phi = rng.standard_normal(4)
        y = dual_align(phi, p, 4)
        assert lp_norm(y, p) == pytest.approx(1.0, abs=1e-12)
        pprime = 1.0 if math.isinf(p) else (math.inf if p == 1.0 else p / (p - 1.0))
        assert float(phi @ y) == pytest.approx(lp_norm(phi, pprime), rel=1e-12)


def _geometry_rows(field):
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((6, 4)) * np.array([[0.1], [0.3], [1.0], [2.0], [30.0], [1e-3]])
    if field == COMPLEX:
        rows = rows + 1j * rng.standard_normal((6, 4))
    rows[1, 2] = 0.0
    rows[2] = [0.5, -0.5, 0.5, -0.1]  # a tie in modulus
    return rows


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_row_wise_geometry_equals_the_vector_call_per_row(field):
    rows = _geometry_rows(field)
    moves = [project_l1_sphere, _clip_linf]
    for p in (1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 1e6, math.inf):
        np.testing.assert_array_equal(lp_norm(rows, p), [lp_norm(row, p) for row in rows])
        moves += [lambda x, p=p: radial_normalize(x, p), lambda x, p=p: dual_align(x, p, 4)]
    for fn in moves:
        np.testing.assert_array_equal(fn(rows), np.stack([fn(row) for row in rows]))
    zero = np.zeros((2, 4), dtype=rows.dtype)
    np.testing.assert_array_equal(_clip_linf(zero), zero)
    for p in (1.0, 2.0, math.inf):
        np.testing.assert_array_equal(dual_align(zero, p, 4), [[1, 0, 0, 0]] * 2)


@pytest.mark.parametrize("p", [1.0 + 1e-9, 1.001, 1.5, 2.0, 3.0, 1e6])
def test_real_dual_align_has_the_bits_of_the_normalized_alignment(p):
    # the reference normalizes sign(phi) * (|phi| / top)^(p' - 1) with
    # radial_normalize
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((40, 5)) * 10.0 ** rng.integers(-3, 4, size=(40, 1))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    rows[rng.random(rows.shape) < 0.2] = -0.0
    rows[3] = 0.0
    rows[4] = -0.0
    rows[5] = [0.5, -0.5, 0.5, -0.0, -0.5]  # ties in modulus
    rows[6] = [-2.0, 0.0, 2.0, 2.0, -0.0]
    zero = ~rows.any(axis=1, keepdims=True)
    phi = np.where(zero, np.eye(1, 5), rows)
    moduli = np.abs(phi)
    aligned = np.sign(phi) * (moduli / moduli.max(axis=1, keepdims=True)) ** (
        conjugate_exponent(p) - 1.0)
    expected = radial_normalize(aligned, p)
    got = dual_align(rows, p, 5)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
    np.testing.assert_array_equal(got[zero[:, 0]], [[1, 0, 0, 0, 0]] * int(zero.sum()))
    for row, want in zip(rows, expected):
        vector = dual_align(row, p, 5)
        assert vector.shape == (5,)
        np.testing.assert_array_equal(vector.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_ascent_direction_lengths_have_the_bits_of_linalg_norm(field):
    rows = _geometry_rows(field)
    rows[0] = 0.0
    values = np.array([1.5, -2.0, 0.0, -0.0, 3.0, -1e-300])
    dirn, length = _ascent_direction(values, rows)
    if field == COMPLEX:
        unscaled = np.conj(rows) * np.where(values != 0, values, 1.0)[:, None]
    else:
        unscaled = np.where((values >= 0)[:, None], rows, -rows)
    expected = np.linalg.norm(unscaled, axis=1)
    np.testing.assert_array_equal(length.view(np.int64), expected.view(np.int64))
    np.testing.assert_array_equal(dirn, unscaled / np.where(expected > 0, expected, 1.0)[:, None])
    assert length[0] == 0.0 and not dirn[0].any()


def test_row_wise_geometry_rejects_a_zero_row():
    rows = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(NormError):
        radial_normalize(rows, 2.0)
    with pytest.raises(NormError):
        project_l1_sphere(rows)


# ---------------------------------------------------------------------------
# poly_norm


def test_poly_norm_product_l1():
    est = poly_norm(product_form(3, 3), SpaceSpec(1.0, 3), CFG)
    assert est.value == pytest.approx(1.0 / 27.0, abs=1e-6)
    assert est.method == "ascent"


def test_poly_norm_product_l2():
    est = poly_norm(product_form(3, 3), SpaceSpec(2.0, 3), CFG)
    assert est.value == pytest.approx(3.0**-1.5, abs=1e-6)


def test_poly_norm_square_univariate():
    f = make_form(2, 1, REAL, [((2,), 1.0)])
    est = poly_norm(f, SpaceSpec(2.0, 1), CFG)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_poly_norm_product_am_gm_formula():
    # closed form m^{-m/p} for the product polynomial on its own dimension
    for p in (1.0, 1.5, 2.0, 3.0):
        est = poly_norm(product_form(3, 3), SpaceSpec(p, 3), CFG)
        assert est.value == pytest.approx(3.0 ** (-3.0 / p), abs=1e-5)


def test_poly_norm_validation():
    f = product_form(2, 2)
    with pytest.raises(NormError):
        poly_norm(f, SpaceSpec(2.0, 3), CFG)
    with pytest.raises(NormError):
        poly_norm(f, SpaceSpec(2.0, 2, COMPLEX), CFG)


def test_poly_norm_witness_feasible():
    rng = np.random.default_rng(5)
    for p in (1.0, 2.0, 3.5, math.inf):
        f = random_form(rng, 3, 3)
        est = poly_norm(f, SpaceSpec(p, 3), CFG)
        w = est.witnesses[0]
        assert abs(lp_norm(w, p) - 1.0) <= 1e-12
        assert abs(abs(f.eval_batch(w[None])[0]) - est.value) <= 1e-10 * (1 + est.value)


def test_poly_norm_zero_form():
    est = poly_norm(zero_form(2, 2), SpaceSpec(2.0, 2), CFG)
    assert est.value == 0.0
    assert abs(lp_norm(est.witnesses[0], 2.0) - 1.0) <= 1e-12


# finite coefficients whose values overflow float64 at unit vectors: the
# quadratic's polynomial norm is finite but its bilinear value is not
OVERFLOWING_QUADRATIC = [((2, 0), 1e308), ((1, 1), 1.7e308), ((0, 2), -1e308)]
OVERFLOWING_CUBIC = [(a, 1.5e308) for a in itertools.product(range(4), repeat=3) if sum(a) == 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_poly_norm_of_an_overflowing_form_raises():
    with pytest.raises(NormError, match="not finite"):
        poly_norm(make_form(3, 3, REAL, OVERFLOWING_CUBIC), SpaceSpec(2.0, 3), CFG)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mixed_norm_of_an_overflowing_form_raises():
    form, space = make_form(2, 2, REAL, OVERFLOWING_QUADRATIC), SpaceSpec(2.0, 2)
    assert math.isfinite(poly_norm(form, space, CFG).value)
    with pytest.raises(NormError, match="not finite"):
        mixed_norm(form, space, (1, 1), CFG)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_poly_norm_linear_form_is_dual_norm(p, field):
    # the norm of x -> <a, x> on ell_p is ||a||_{p'}
    rng = np.random.default_rng(23)
    d = 4
    a = rng.standard_normal(d)
    if field == COMPLEX:
        a = a + 1j * rng.standard_normal(d)
    f = make_form(1, d, field, [(tuple(np.eye(d, dtype=int)[i]), a[i]) for i in range(d)])
    est = poly_norm(f, SpaceSpec(p, d, field), CFG)
    assert est.value == pytest.approx(lp_norm(a, conjugate_exponent(p)), rel=1e-12)


def test_poly_norm_complex_product():
    # complex product polynomial keeps the AM-GM norm
    est = poly_norm(product_form(2, 2, COMPLEX), SpaceSpec(2.0, 2, COMPLEX), CFG)
    assert est.value == pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# multilinear_norm


def test_multilinear_product_l1():
    est = multilinear_norm(product_form(3, 3), SpaceSpec(1.0, 3), CFG)
    assert est.value == pytest.approx(1.0 / 6.0, abs=1e-6)
    assert est.method == "alternating"


def test_multilinear_at_least_poly():
    rng = np.random.default_rng(11)
    for p in (1.0, 2.0, math.inf):
        f = random_form(rng, 3, 3)
        sp = SpaceSpec(p, 3)
        assert multilinear_norm(f, sp, CFG).value >= poly_norm(f, sp, CFG).value - 1e-9


def test_multilinear_hilbert_equality():
    rng = np.random.default_rng(13)
    for m, d in [(3, 3), (3, 3), (4, 2), (4, 3), (2, 3)]:
        f = random_form(rng, m, d)
        sp = SpaceSpec(2.0, d)
        ratio = multilinear_norm(f, sp, CFG).value / poly_norm(f, sp, CFG).value
        assert 0.98 <= ratio <= 1.02


def test_multilinear_witnesses():
    f = product_form(3, 3)
    est = multilinear_norm(f, SpaceSpec(1.0, 3), CFG)
    assert len(est.witnesses) == 3
    for w in est.witnesses:
        assert abs(lp_norm(w, 1.0) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# mixed_norm


def test_mixed_single_block_is_poly():
    rng = np.random.default_rng(17)
    f = random_form(rng, 3, 2)
    sp = SpaceSpec(2.0, 2)
    a = mixed_norm(f, sp, (3,), CFG)
    b = poly_norm(f, sp, CFG)
    assert a.value == pytest.approx(b.value, rel=1e-12)
    assert a.method == "ascent"


def test_mixed_all_ones_matches_multilinear():
    rng = np.random.default_rng(19)
    f = random_form(rng, 3, 3)
    sp = SpaceSpec(2.0, 3)
    a = mixed_norm(f, sp, (1, 1, 1), CFG)
    b = multilinear_norm(f, sp, CFG)
    assert a.value == pytest.approx(b.value, rel=1e-10)


def test_mixed_product_21_l1():
    est = mixed_norm(product_form(3, 3), SpaceSpec(1.0, 3), (2, 1), CFG)
    assert est.value == pytest.approx(1.0 / 12.0, abs=1e-6)


def test_mixed_pattern_mismatch():
    f = product_form(3, 3)
    with pytest.raises(NormError):
        mixed_norm(f, SpaceSpec(2.0, 3), (2, 2), CFG)


def test_mixed_witnesses_feasible():
    rng = np.random.default_rng(23)
    f = random_form(rng, 4, 3)
    sp = SpaceSpec(1.5, 3)
    est = mixed_norm(f, sp, (2, 2), CFG)
    for w in est.witnesses:
        assert abs(lp_norm(w, 1.5) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# grid oracle


def test_grid_oracle_product_l2():
    est = grid_oracle(product_form(2, 2), SpaceSpec(2.0, 2), resolution=3600)
    assert est.value == pytest.approx(0.5, abs=1e-3)
    assert est.method == "grid"


def test_grid_oracle_sup_norm_vertices():
    coeffs = [
        ((4, 0, 0, 0), 1.0), ((0, 4, 0, 0), 1.0), ((2, 2, 0, 0), -2.0),
        ((0, 0, 4, 0), -1.0), ((0, 0, 0, 4), -1.0), ((0, 0, 2, 2), 2.0),
    ]
    f = make_form(4, 4, REAL, coeffs)
    est = grid_oracle(f, SpaceSpec(math.inf, 4), resolution=64)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_grid_oracle_refinement_monotone():
    rng = np.random.default_rng(29)
    f = random_form(rng, 3, 3)
    for p in (1.0, 2.0):
        sp = SpaceSpec(p, 3)
        lo = grid_oracle(f, sp, resolution=64).value
        hi = grid_oracle(f, sp, resolution=128).value
        assert hi >= lo


def test_grid_oracle_resolution_floor():
    with pytest.raises(NormError):
        grid_oracle(product_form(2, 2), SpaceSpec(2.0, 2), resolution=4)


def test_grid_oracle_dominated_by_ascent():
    rng = np.random.default_rng(31)
    for p in (1.0, 2.0, math.inf):
        f = random_form(rng, 3, 3)
        sp = SpaceSpec(p, 3)
        oracle = grid_oracle(f, sp, resolution=400)
        ascent = poly_norm(f, sp, CFG)
        assert ascent.value >= oracle.value - 1e-6


def test_grid_oracle_pattern_mode():
    f = product_form(3, 3)
    est = grid_oracle(f, SpaceSpec(1.0, 3), (2, 1), resolution=32)
    assert est.value == pytest.approx(1.0 / 12.0, abs=1e-9)


# ---------------------------------------------------------------------------
# ternary candidates: one per class of unit multiples

UNITS = {REAL: (1.0, -1.0), COMPLEX: (1.0, -1.0, 1.0j, -1.0j)}
ALPHABETS = {REAL: (-1.0, 0.0, 1.0), COMPLEX: (0.0, 1.0, -1.0, 1.0j, -1.0j)}


def _unit_multiples(a, b, field):
    """(A, B) table: is b_j = u * a_i for some unit u of the field."""
    units = np.array(UNITS[field])[:, None, None, None]
    gaps = np.abs(units * a[None, :, None, :] - b[None, None, :, :]).max(axis=-1)
    return (gaps <= 1e-12).any(axis=0)


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("dim", [2, 3, 4])
def test_ternary_candidates_keep_one_row_per_class_of_unit_multiples(dim, field):
    p = 1.0
    rows = _ternary_candidates(dim, p, field)
    alphabet = ALPHABETS[field]
    assert len(rows) == (len(alphabet) ** dim - 1) // len(UNITS[field])
    # no two rows are unit multiples of each other
    assert (_unit_multiples(rows, rows, field) == np.eye(len(rows), dtype=bool)).all()
    # every nonzero row of the full alphabet is a unit multiple of exactly one
    full = np.array([r for r in itertools.product(alphabet, repeat=dim) if any(r)])
    full = radial_normalize(full.astype(rows.dtype), p)
    assert (_unit_multiples(rows, full, field).sum(axis=0) == 1).all()


def test_ternary_starts_are_pairwise_inequivalent_under_block_unit_scalars():
    # the first form of `verify --pattern 2,1 --field complex --p 1 --d 3 --seed 3`
    form = random_form(np.random.default_rng(3), 3, 3, COMPLEX)
    space = SpaceSpec(1.0, 3, COMPLEX)
    pat = as_pattern((2, 1))
    starts = _all_starts(form, space, pat, OptimizerConfig(restarts=1, seed=3), (), None)
    # the d axes and the ones vector come first, the restart last
    ternary = starts[4:-1]
    assert len(ternary) == norms._TOP_CANDIDATE_STARTS
    # tuples s and t are one start when every block of t is a unit multiple of s's
    same = np.ones((len(ternary),) * 2, dtype=bool)
    for j in range(pat.n):
        same &= _unit_multiples(ternary[:, j], ternary[:, j], COMPLEX)
    assert (same == np.eye(len(ternary), dtype=bool)).all()


def _all_starts(form, space, pat, cfg, extra_starts, diag_witness):
    """Every start an estimate may ascend from: the structured ones, then the
    restarts."""
    head, restarts = _starts(form, space, pat, cfg, extra_starts, diag_witness)
    return np.concatenate([head, restarts()])


def _clear_start_caches():
    norms._restart_tuples.cache_clear()
    norms._start_grid.cache_clear()
    norms._diagonal_starts.cache_clear()


def _each_row_moved(starts, p):
    """starts (S, n, d) with every (d,) row _sphere_move-d alone, as a batch of one."""
    moved = np.empty_like(starts)
    for s, b in np.ndindex(starts.shape[:2]):
        moved[s, b] = _sphere_move(starts[s, b][None], p)[0]
    return moved


def _serial_restarts(seed, restarts, n, dim, p, field):
    """Restart i draws its n unit vectors in turn from _restart_rng(seed, i),
    each drawn and normalized alone."""
    draws = []
    for i in range(restarts):
        rng = norms._restart_rng(seed, i)
        units = []
        for _ in range(n):
            if field == COMPLEX:
                v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            else:
                v = rng.standard_normal(dim)
            units.append(radial_normalize(v, p))
        draws.append(np.stack(units))
    return np.stack(draws)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _count_restart_draws(monkeypatch):
    calls = []
    original = norms._restart_rng
    monkeypatch.setattr(norms, "_restart_rng", lambda *a: calls.append(a) or original(*a))
    return calls


def test_each_report_draws_each_restart_once(monkeypatch):
    # no certificate applies to a real cubic at p = 1.5: all forms of one
    # verify share the config, and the poly estimates (n = 1) and the mixed
    # estimates (n = 2) share one draw
    calls = _count_restart_draws(monkeypatch)
    _clear_start_caches()
    rng = np.random.default_rng(3)
    forms = [random_form(rng, 3, 3) for _ in range(5)]
    cfg = OptimizerConfig(restarts=8, seed=3)
    verify_samples(forms, SpaceSpec(1.5, 3), (2, 1), cfg, 5e-3)
    assert len(calls) == cfg.restarts


def test_estimates_certified_on_their_structured_starts_draw_no_restart(monkeypatch):
    # at p = 1 the scored grid holds the vertex tuple at the largest tensor
    # entry, and on the non-attaining instance the axis e_n meets n/(n+1):
    # every estimate ends on its structured starts, before any draw
    from polarnorm.extremals import nonattaining_bilinear, verify_instance

    calls = _count_restart_draws(monkeypatch)
    _clear_start_caches()
    rng = np.random.default_rng(3)
    forms = [random_form(rng, 3, 3, COMPLEX) for _ in range(5)]
    verify_samples(forms, SpaceSpec(1.0, 3, COMPLEX), (2, 1), OptimizerConfig(restarts=8, seed=3),
                   5e-3)
    verify_instance(nonattaining_bilinear(9))
    assert calls == [] and norms._restart_tuples.cache_info().currsize == 0


@pytest.mark.parametrize("field,p", [(COMPLEX, 1.0), (REAL, math.inf), (REAL, 1.5)])
def test_starts_are_the_same_from_a_cold_and_a_warm_cache(field, p):
    form = random_form(np.random.default_rng(5), 3, 3, field)
    space, pat = SpaceSpec(p, 3, field), as_pattern((2, 1))
    cfg = OptimizerConfig(restarts=6, seed=9)
    _clear_start_caches()
    cold = _all_starts(form, space, pat, cfg, (), None)
    warm = _all_starts(form, space, pat, cfg, (), None)
    assert np.array_equal(cold, warm) and cold.flags.writeable
    # the restarts, last, are the draws of one generator per restart, each
    # row then moved onto the sphere once
    serial = _serial_restarts(cfg.seed, cfg.restarts, pat.n, 3, p, field)
    assert np.array_equal(cold[-cfg.restarts:], _each_row_moved(serial, p))


_PARTITIONS = {1: [(1,)], 2: [(2,), (1, 1)], 3: [(3,), (2, 1), (1, 1, 1)],
               4: [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]}


@pytest.mark.parametrize("poly_first", [True, False])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_restart_starts_have_the_bits_of_one_draw_per_vector(field, p, m, poly_first):
    form = random_form(np.random.default_rng(m), m, 3, field)
    space = SpaceSpec(p, 3, field)
    cfg = OptimizerConfig(restarts=5, seed=11, structured_starts=False)
    patterns = _PARTITIONS[m] if poly_first else _PARTITIONS[m][::-1]
    _clear_start_caches()
    for _ in ("cold", "warm"):
        for pattern in patterns:
            pat = as_pattern(pattern)
            starts = _all_starts(form, space, pat, cfg, (), None)
            assert starts.flags.writeable
            serial = _serial_restarts(cfg.seed, cfg.restarts, pat.n, 3, p, field)
            assert _same_bits(starts, _each_row_moved(serial, p))
            starts[:] = 0.0
    # every pattern of the form shared one read-only draw of m blocks
    assert norms._restart_tuples.cache_info().currsize == 1
    draws = norms._restart_tuples(cfg.seed, cfg.restarts, m, 3, p, field)
    assert not draws.flags.writeable
    assert _same_bits(draws, _serial_restarts(cfg.seed, cfg.restarts, m, 3, p, field))


@pytest.mark.parametrize("p", [1.0, 1 + 1e-7, 1.5, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("dim", [2, 49])
def test_restart_tuples_of_fewer_blocks_are_the_first_blocks_of_more(dim, field, p):
    draws = norms._restart_tuples(4, 3, 4, dim, p, field)
    for n in range(1, 5):
        assert _same_bits(draws[:, :n], _serial_restarts(4, 3, n, dim, p, field))


def test_cached_start_material_is_read_only():
    # the draw of the (2, 1) starts below: as many blocks as the cubic's degree
    draws = norms._restart_tuples(0, 4, 3, 3, 1.0, COMPLEX)
    with pytest.raises(ValueError):
        draws[0, 0, 0] = 0.0
    form = random_form(np.random.default_rng(3), 3, 3, COMPLEX)
    tuples, monomials = norms._start_grid(tuple(form.coeffs), 3, 1.0, COMPLEX, (2, 1))
    for arr in (tuples, monomials):
        with pytest.raises(ValueError):
            arr.flat[0] = 0.0
    before = tuples.copy(), draws.copy()
    head, restarts = _starts(form, SpaceSpec(1.0, 3, COMPLEX), as_pattern((2, 1)),
                             OptimizerConfig(restarts=4, seed=0), (), None)
    # the restarts leave their draw moved onto the sphere, a new array
    drawn = restarts()
    assert head.flags.writeable and drawn.flags.writeable
    head[:] = drawn[:] = 0.0
    assert _same_bits(tuples, before[0]) and _same_bits(draws, before[1])


@pytest.mark.parametrize("dim", [2, 3, 49])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_a_sphere_move_gives_each_row_the_bits_it_gets_alone(p, field, dim):
    # _starts moves each start's rows in whatever batch they come in (the
    # cached axes, the grid, the witness, the extra starts, a restart slice),
    # so a row's bits must not depend on its batch.  The scales put rows
    # inside and outside the unit ball, where the l1 and sup moves branch
    rng = np.random.default_rng(dim)
    rows = rng.standard_normal((64, dim))
    if field == COMPLEX:
        rows = rows + 1j * rng.standard_normal((64, dim))
    rows *= np.geomspace(0.01, 100.0, 64)[:, None]
    rows[::7, 0] = 0.0
    alone = np.concatenate([_sphere_move(rows[i:i + 1], p) for i in range(len(rows))])
    for size in range(1, len(rows) + 1):
        assert _same_bits(_sphere_move(rows[:size], p), alone[:size])
    # a strided (S, n, d) view, as the restarts' first n blocks are
    tuples = rows.reshape(16, 4, dim)
    assert _same_bits(_sphere_move(tuples[:, :3], p), alone.reshape(16, 4, dim)[:, :3])


@pytest.mark.parametrize("tied", [False, True])
@pytest.mark.parametrize("pattern", [(3,), (2, 1), (1, 1, 1)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_starts_leave_on_the_sphere_as_each_raw_row_moved_once(field, p, pattern, tied):
    # the head and the drawn restarts, from a cold and then a warm cache, are
    # the raw starts built with nothing cached, each row moved once; the
    # diagonal witness and two extra starts included.  The product form's
    # grid ties many scores at the last of the best tuples kept
    pat = as_pattern(pattern)
    form = (product_form(pat.m, 3, field) if tied
            else random_form(np.random.default_rng(23), pat.m, 3, field))
    space, cfg = SpaceSpec(p, 3, field), OptimizerConfig(restarts=5, seed=8)
    rng = np.random.default_rng(29)
    extra_starts = rng.standard_normal((2, pat.n, 3)).tolist()
    diag_witness = radial_normalize(rng.standard_normal(3), p).astype(
        complex if field == COMPLEX else float)
    _clear_start_caches()
    expected = _each_row_moved(_stacked_starts(form, space, pat, cfg, extra_starts, diag_witness), p)
    for _ in ("cold", "warm"):
        head, restarts = _starts(form, space, pat, cfg, extra_starts, diag_witness)
        assert _same_bits(head, expected[:-cfg.restarts])
        assert _same_bits(restarts(), expected[-cfg.restarts:])
    assert norms._diagonal_starts.cache_info().misses == 1


def test_the_cached_axes_and_ones_vector_are_read_only_and_outlast_an_estimate():
    # the non-attaining instance stops at its axis start e_n, so _estimate
    # renormalizes that row of its head in place
    from polarnorm.extremals import nonattaining_bilinear

    inst = nonattaining_bilinear(9)
    _clear_start_caches()
    cfg = OptimizerConfig(restarts=4, seed=1)
    estimate = poly_norm(inst.form, inst.space, cfg)
    assert estimate.starts_converged == 0
    cached = norms._diagonal_starts(9, 2.0, REAL, 1)
    assert norms._diagonal_starts.cache_info().currsize == 1
    with pytest.raises(ValueError):
        cached[0, 0, 0] = 0.0
    raw = np.concatenate([np.eye(9), np.full((1, 9), 1 / 3)])[:, None]
    assert _same_bits(cached, _each_row_moved(raw, 2.0))
    before = cached.copy()
    again = poly_norm(inst.form, inst.space, cfg)
    assert again.value.hex() == estimate.value.hex()
    assert _same_bits(cached, before)


def _fresh_score_grid(form, pat, cands):
    """The grid cands^n and its values |L|, every tuple gathered and then
    evaluated by _values, with nothing cached."""
    combos = np.indices((len(cands),) * pat.n).reshape(pat.n, -1).T
    tuples = cands[combos]
    return tuples, _values(form, pat, tuples)


def _grid_scores(form, space, pat):
    """The ternary grid's tuples and scores as _starts gets them, or None."""
    grid = norms._start_grid(tuple(form.coeffs), space.dim, space.p, space.field,
                             pat.multiplicities)
    return None if grid is None else (grid[0], norms._score_grid(form, pat, grid[1]))


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("pattern", [(3,), (2, 1), (4,), (3, 1), (2, 2), (1, 1), (1, 1, 1)])
@pytest.mark.parametrize("dim", [2, 3])
def test_grid_scores_and_starts_are_the_same_from_a_cold_and_a_warm_cache(dim, pattern, field, p):
    pat = as_pattern(pattern)
    form = random_form(np.random.default_rng(19 + pat.m), pat.m, dim, field)
    space = SpaceSpec(p, dim, field)
    cfg = OptimizerConfig(restarts=3, seed=2)
    cands = _ternary_candidates(dim, p, field)
    for warm in (False, True):
        if not warm:
            _clear_start_caches()
        got = _grid_scores(form, space, pat)
        if len(cands) ** pat.n > norms._CANDIDATE_CAP:
            assert got is None
        else:
            # the cached tuples are the fresh ones, each row moved onto the sphere
            tuples, scores = _fresh_score_grid(form, pat, cands)
            _assert_bitwise_equal(got[0], _each_row_moved(tuples, p))
            _assert_bitwise_equal(got[1], scores)
        if not warm:
            _clear_start_caches()
        starts = _all_starts(form, space, pat, cfg, (), None)
        _assert_bitwise_equal(starts, _each_row_moved(
            _stacked_starts(form, space, pat, cfg, (), None), p))
    # the cold _starts built the material once; the warm pass built nothing
    assert norms._start_grid.cache_info().misses == 1


@pytest.mark.parametrize("p", [1.0, math.inf])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("pattern", [(3,), (2, 1)])
def test_forms_with_different_supports_never_share_grid_material(pattern, field, p):
    # a dense form and two sparse forms of one size but different supports,
    # on one space: each scores as from a cold cache, in every order
    pat = as_pattern(pattern)
    forms = [random_form(np.random.default_rng(29), 3, 3, field),
             _sparse_form(field, 3, 3, 34, 0.5), _sparse_form(field, 3, 3, 41, 0.5)]
    assert len({tuple(f.coeffs) for f in forms}) == 3
    assert len(forms[1].coeffs) == len(forms[2].coeffs) < len(forms[0].coeffs)
    space = SpaceSpec(p, 3, field)
    cfg = OptimizerConfig(restarts=3, seed=2)
    cold = []
    for form in forms:
        _clear_start_caches()
        cold.append((_grid_scores(form, space, pat), _all_starts(form, space, pat, cfg, (), None)))
    for order in itertools.permutations(range(len(forms))):
        _clear_start_caches()
        for i in order:
            (tuples, scores), starts = cold[i]
            got_tuples, got_scores = _grid_scores(forms[i], space, pat)
            _assert_bitwise_equal(got_tuples, tuples)
            _assert_bitwise_equal(got_scores, scores)
            _assert_bitwise_equal(_all_starts(forms[i], space, pat, cfg, (), None), starts)
        assert norms._start_grid.cache_info().currsize == len(forms)


def test_a_verify_run_builds_the_grid_material_once_per_pattern(monkeypatch):
    # all 50 forms of a complex (2, 1) verify share one support, so the
    # poly (3,) and the mixed (2, 1) grids are each built once
    built = []
    original = norms._grid_material
    monkeypatch.setattr(norms, "_grid_material",
                        lambda form, pat, cands: built.append(pat.multiplicities)
                        or original(form, pat, cands))
    _clear_start_caches()
    rng = np.random.default_rng(3)
    forms = [random_form(rng, 3, 3, COMPLEX) for _ in range(50)]
    verify_samples(forms, SpaceSpec(1.0, 3, COMPLEX), (2, 1), OptimizerConfig(restarts=4, seed=3),
                   5e-3)
    assert sorted(built) == [(2, 1), (3,)]


def _stacked_starts(form, space, pat, cfg, extra_starts, diag_witness):
    """The raw starts, before any move onto the sphere, built one (n, d) array
    at a time and then np.stack-ed, with the restarts drawn one vector at a
    time and nothing cached."""
    d, p, n = form.dim, space.p, pat.n
    dtype = np.complex128 if form.field == COMPLEX else np.float64
    starts = []
    if cfg.structured_starts:
        if diag_witness is not None:
            starts.append(np.broadcast_to(diag_witness.astype(dtype), (n, d)).copy())
        for axis in np.eye(d, dtype=dtype):
            starts.append(np.broadcast_to(axis, (n, d)).copy())
        ones = radial_normalize(np.ones(d, dtype=dtype), p)
        starts.append(np.broadcast_to(ones, (n, d)).copy())
        if p == 1.0 or math.isinf(p):
            cands = _ternary_candidates(d, p, form.field)
            if len(cands) and len(cands) ** n <= norms._CANDIDATE_CAP:
                tuples, vals = _fresh_score_grid(form, pat, cands)
                order = np.argsort(-vals, kind="stable")[:norms._TOP_CANDIDATE_STARTS]
                starts.extend(tuples[i] for i in order)
    for xs in extra_starts:
        starts.append(np.array([np.asarray(x, dtype=dtype) for x in xs]))
    starts.extend(_serial_restarts(cfg.seed, cfg.restarts, n, d, p, form.field))
    return np.stack(starts)


@pytest.mark.parametrize("structured", [True, False])
@pytest.mark.parametrize("given_starts", [True, False])
@pytest.mark.parametrize("pattern", [(3,), (2, 1), (1, 1, 1)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_starts_have_the_bits_of_one_stacked_start_at_a_time(field, p, pattern, given_starts,
                                                               structured):
    pat = as_pattern(pattern)
    form = random_form(np.random.default_rng(13), pat.m, 3, field)
    space = SpaceSpec(p, 3, field)
    cfg = OptimizerConfig(restarts=5, seed=7, structured_starts=structured)
    extra_starts, diag_witness = (), None
    if given_starts:
        # plain lists of real entries, a signed zero among them, as a caller
        # may pass them; the diagonal witness is a start's block
        rng = np.random.default_rng(17)
        extra_starts = [[list(v) for v in rng.standard_normal((pat.n, 3))] for _ in range(2)]
        extra_starts[0][0][1] = -0.0
        diag_witness = radial_normalize(rng.standard_normal(3), p)
        if field == COMPLEX:
            diag_witness = diag_witness * np.exp(0.3j)
    got = _all_starts(form, space, pat, cfg, extra_starts, diag_witness)
    expected = _each_row_moved(_stacked_starts(form, space, pat, cfg, extra_starts, diag_witness), p)
    assert got.dtype == expected.dtype and got.flags.writeable
    assert _same_bits(got, expected)


# ---------------------------------------------------------------------------
# determinism and structure


def test_determinism_same_seed():
    rng = np.random.default_rng(37)
    f = random_form(rng, 3, 3)
    sp = SpaceSpec(1.5, 3)
    a = poly_norm(f, sp, CFG)
    b = poly_norm(f, sp, CFG)
    assert a.value == b.value
    assert (a.witnesses[0] == b.witnesses[0]).all()


def test_serial_vs_parallel_identical():
    rng = np.random.default_rng(41)
    f = random_form(rng, 3, 3)
    sp = SpaceSpec(2.0, 3)
    serial = multilinear_norm(f, sp, OptimizerConfig(restarts=12, parallel=False))
    parallel = multilinear_norm(f, sp, OptimizerConfig(restarts=12, parallel=True))
    assert serial.value == parallel.value
    for a, b in zip(serial.witnesses, parallel.witnesses):
        assert (a == b).all()


def test_restart_monotonicity():
    rng = np.random.default_rng(43)
    f = random_form(rng, 4, 3)
    sp = SpaceSpec(3.0, 3)
    small = poly_norm(f, sp, OptimizerConfig(restarts=4))
    large = poly_norm(f, sp, OptimizerConfig(restarts=8))
    assert large.value >= small.value


def test_homogeneity_power_of_two_exact():
    rng = np.random.default_rng(47)
    f = random_form(rng, 3, 3)
    sp = SpaceSpec(2.0, 3)
    base = poly_norm(f, sp, CFG)
    scaled = poly_norm(f.scaled(2.0), sp, CFG)
    assert scaled.value == 2.0 * base.value
    assert (scaled.witnesses[0] == base.witnesses[0]).all()


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 4.0))
def test_homogeneity_general_scale(seed, c):
    rng = np.random.default_rng(seed)
    f = random_form(rng, 2, 2)
    sp = SpaceSpec(2.0, 2)
    cfg = OptimizerConfig(restarts=4)
    base = poly_norm(f, sp, cfg)
    scaled = poly_norm(f.scaled(c), sp, cfg)
    assert scaled.value == pytest.approx(c * base.value, rel=1e-9)


EDGE_P = [1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 1e6, math.inf]


def _scaled_norm_and_scaled_estimate(p, field, pattern, c, seed):
    """(estimate of ||cP||, |c| * estimate of ||P||) for a random form P."""
    f = random_form(np.random.default_rng(seed), sum(pattern), 3, field)
    sp = SpaceSpec(p, 3, field)
    cfg = OptimizerConfig(restarts=4, seed=seed)
    base = mixed_norm(f, sp, pattern, cfg)
    return mixed_norm(f.scaled(c), sp, pattern, cfg).value, abs(c) * base.value


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(EDGE_P),
    st.sampled_from([REAL, COMPLEX]),
    st.sampled_from([(3,), (2, 1), (1, 1, 1)]),
    st.integers(-8, 8),
    st.integers(0, 2**16),
)
def test_mixed_norm_scales_exactly_by_powers_of_two(p, field, pattern, k, seed):
    # scaling by 2^k is exact, so every comparison of the ascent is the same
    scaled, expected = _scaled_norm_and_scaled_estimate(p, field, pattern, 2.0**k, seed)
    assert scaled == expected


# Derandomized: a random search meets the stall below about once in 1300
# cases, so it would fail by chance rather than by a change.
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(EDGE_P),
    st.sampled_from([REAL, COMPLEX]),
    st.sampled_from([(3,), (2, 1), (1, 1, 1)]),
    st.sampled_from([-1.0, 1.0j, -4.0j]),
    st.integers(0, 2**16),
)
def test_mixed_norm_is_absolutely_homogeneous(p, field, pattern, c, seed):
    # a unit or imaginary scale rounds the coefficients differently, so the
    # values agree to rounding; an imaginary multiple of a real form is a
    # complex form, whose space is another one
    assume(field == COMPLEX or c.imag == 0.0)
    scaled, expected = _scaled_norm_and_scaled_estimate(p, field, pattern, c, seed)
    assert scaled == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.xfail(strict=True, reason="at 1 < p < inf, p != 2, a start can stall where the "
                   "gradient step is no ascent step, and rounding decides whether it does")
@pytest.mark.parametrize("c", [1.0j, -4.0j])
def test_mixed_norm_homogeneity_where_a_start_stalls(c):
    # the diagonal start stalls at 1.1148512 unscaled and reaches 1.1148521
    # scaled, 7.9e-7 relative higher; no tolerance or sweep budget changes it
    scaled, expected = _scaled_norm_and_scaled_estimate(1.5, COMPLEX, (2, 1), c, 33077)
    assert scaled == pytest.approx(expected, rel=1e-12, abs=0.0)


def _pure_power_form(field, m, nonzero, seed):
    """(sum_i a_i x_i^m on K^3 with `nonzero` random a_i, the rest 0, and
    max |a_i|)."""
    rng = np.random.default_rng(seed)
    a = np.zeros(3, dtype=complex if field == COMPLEX else float)
    coords = rng.permutation(3)[:nonzero]
    a[coords] = rng.standard_normal(nonzero)
    if field == COMPLEX:
        a[coords] += 1j * rng.standard_normal(nonzero)
    form = make_form(m, 3, field, [(tuple(m * np.eye(3, dtype=int)[i]), a[i]) for i in range(3)])
    return form, float(np.abs(a).max())


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([REAL, COMPLEX]),
    st.sampled_from([2, 3, 4]),
    st.sampled_from([1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0]),
    st.integers(0, 2),
    st.integers(0, 2**16),
)
def test_degenerate_pure_power_forms_have_the_largest_coefficient_as_norm(field, m, p, nonzero,
                                                                           seed):
    # P = sum_i a_i x_i^m on ell_p^3 with all but `nonzero` of the a_i zero.
    # For p <= m, |P(x)| <= max|a_i| sum_i |x_i|^p <= max|a_i| on the unit
    # ball, and the axis start of a largest |a_i| attains it
    assume(p <= m)
    form, top = _pure_power_form(field, m, nonzero, seed)
    space, cfg = SpaceSpec(p, 3, field), OptimizerConfig(restarts=4, seed=seed)
    if nonzero:
        value = poly_norm(form, space, cfg).value
        assert top <= value <= top * (1.0 + 1e-12)
        return
    pattern = (m - 1, 1)
    with pytest.raises(DegenerateFormError):
        ratio_report(form, space, pattern, cfg)
    rows, _ = verify_samples([form], space, pattern, cfg, norms.DEFAULT_BOUND_SLACK)
    assert rows == [{"index": 0, "skipped": True, "note": "degenerate"}]


def test_complex_l1_estimate_keeps_the_value_of_its_axis_start():
    # a_0 x_0^3 on complex ell_1^3: the axis start e_0 attains |a_0| exactly.
    # After 500 sweeps a start at a unit multiple of e_0 with
    # ||x||_1 = 1 + 2.2e-16 scores 4.4e-16 higher, wins, and after
    # renormalization returns 2.2e-16 less; the axis start meets the
    # certificate |a_0| before any move, so the ascent stops there
    form, top = _pure_power_form(COMPLEX, 3, 1, 38)
    value = poly_norm(form, SpaceSpec(1.0, 3, COMPLEX), OptimizerConfig(restarts=4, seed=38)).value
    assert value >= top


def test_complex_l1_estimate_of_a_width_2_form_keeps_the_value_of_its_axis_start():
    # P = a_0 x_0^3 + c x_1 x_2^2 on complex ell_1^3 has width 2.  Its norm is
    # max(|a_0|, |c| / 3) = |a_0|, attained by the axis start e_0, and the
    # largest tensor entry certifies it.  The axis start meets it before any
    # move, so the ascent stops there; a sweep would take the last random
    # start to ||x||_1 = 1 + 2.2e-16, one ulp above |a_0|, and that start
    # would win and lose 5.6e-16 to the final renormalization
    rng = np.random.default_rng(3005)
    a0, c = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)) / 50
    form = make_form(3, 3, COMPLEX, [((3, 0, 0), a0), ((0, 1, 2), c)])
    space, cfg = SpaceSpec(1.0, 3, COMPLEX), OptimizerConfig(restarts=4, seed=5)
    assert norms._certified_upper(form, 1.0) == np.abs(a0)
    top = float(_values(form, as_pattern(3), np.eye(3, dtype=complex)[:1, None])[0])
    assert top == np.abs(a0) > abs(c) / 3
    assert poly_norm(form, space, cfg).value >= top


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
@pytest.mark.parametrize("pattern", [(3,), (2, 1), (1, 1, 1), (2, 2)])
def test_lockstep_matches_each_start_alone(pattern, p, field):
    pat = as_pattern(pattern)
    rng = np.random.default_rng(61)
    f = random_form(rng, pat.m, 3, field)
    space = SpaceSpec(p, 3, field)
    cfg = OptimizerConfig(restarts=4, seed=5)
    starts = _all_starts(f, space, pat, cfg, (), None)
    vals, xs, _ = _block_ascent(f, p, pat, starts, cfg)
    for s in range(len(starts)):
        alone, _, _ = _block_ascent(f, p, pat, starts[s:s + 1], cfg)
        assert alone[0] == pytest.approx(vals[s], rel=1e-12, abs=0.0)


def _serial_gradient_moves(form, p, pat, j, xs, vals, steps, init_step):
    """Oracle of the halving ladder: one start at a time, one halving per
    _values call, accepting the first step that improves."""
    for s in range(len(xs)):
        raw, grads = _value_grads(form, pat, xs[s:s + 1])
        dirn, gnorm = _ascent_direction(raw, grads[:, j])
        if gnorm[0] == 0:
            continue
        step, accepted = steps[s, j], False
        while step >= _MIN_STEP:
            cand = xs[s:s + 1].copy()
            cand[:, j] = _sphere_move(cand[:, j] + step * dirn, p)
            cval = _values(form, pat, cand)[0]
            if cval > vals[s]:
                xs[s], vals[s], accepted = cand[0], cval, True
                break
            step *= 0.5
        steps[s, j] = min(step * 1.3, _MAX_STEP) if accepted else init_step


def _stationary_form(m, d, field, rng):
    """A random form with a large x_1^m term and no x_1^{m-1} x_i term: at the
    tuple (e_1, ..., e_1) every block gradient is parallel to e_1, so each
    step lands back on e_1, where the value is exact, and no halving improves."""
    base = random_form(rng, m, d, field)
    entries = []
    for alpha, c in base.coeffs.items():
        if alpha.exponents[0] == m:
            c = 3.0
        elif alpha.exponents[0] == m - 1:
            continue
        entries.append((alpha, c))
    return make_form(m, d, field, entries)


@pytest.mark.parametrize(
    "field,p", [(REAL, 1.0), (REAL, 1.5), (REAL, 2.0), (REAL, 3.0),
                (COMPLEX, 1.0), (COMPLEX, 1.5), (COMPLEX, 2.0), (COMPLEX, 3.0),
                (COMPLEX, math.inf)])
@pytest.mark.parametrize("pattern", [(3,), (2, 1), (2, 2)])
def test_halving_ladder_matches_serial_backtracking(pattern, p, field):
    pat = as_pattern(pattern)
    f = _stationary_form(pat.m, 3, field, np.random.default_rng(67))
    cfg = OptimizerConfig(restarts=21, seed=2, structured_starts=False)
    random_starts = _all_starts(f, SpaceSpec(p, 3, field), pat, cfg, (), None)
    # at e_1 no step improves, so its ladders run out, from 0.5 and at the
    # _MIN_STEP edge; the value there is exact in any batch
    e1 = np.eye(1, 3, dtype=random_starts.dtype).repeat(pat.n, axis=0)
    xs0 = np.concatenate([random_starts, [e1, e1, e1]])
    xs0 = _sphere_move(xs0.reshape(-1, 3), p).reshape(xs0.shape)
    vals0 = _values(f, pat, xs0)
    steps0 = np.array([[(0.5, _MAX_STEP, 0.5**40)[(s + b) % 3] for b in range(pat.n)]
                       for s in range(len(random_starts))]
                      + [[size] * pat.n for size in (0.5, 1.5 * _MIN_STEP, 3 * _MIN_STEP)])
    for j in [b for b, k in enumerate(pattern) if k > 1]:
        xs, vals, steps = xs0.copy(), vals0.copy(), steps0.copy()
        _gradient_moves(f, p, pat, j, xs, vals, steps, np.arange(len(xs)), 0.5)
        s_xs, s_vals, s_steps = xs0.copy(), vals0.copy(), steps0.copy()
        _serial_gradient_moves(f, p, pat, j, s_xs, s_vals, s_steps, 0.5)
        # Where no step gains more than rounding noise (1e-12 relative), as at
        # a random start that the projection keeps from ascending at p != 2,
        # accepting a step near _MIN_STEP turns on the last bits of values,
        # which depend on how the kernel's batch is composed.
        gain = s_vals > vals0 * (1.0 + 1e-12)
        assert vals == pytest.approx(s_vals, rel=1e-12, abs=0.0)
        assert np.array_equal(vals > vals0 * (1.0 + 1e-12), gain)
        assert np.array_equal(steps[gain], s_steps[gain])
        assert gain.sum() >= len(random_starts) // 2
        # some starts accept only after halving, so the ladder is exercised
        assert (steps[gain, j] < 1.3 * steps0[gain, j]).any()
        assert np.array_equal(vals[-3:], vals0[-3:]) and np.array_equal(s_vals[-3:], vals0[-3:])
        assert (steps[-3:, j] == 0.5).all() and (s_steps[-3:, j] == 0.5).all()


def test_halving_ladder_exhausts_a_stationary_start_in_few_calls(monkeypatch):
    # P = x_1^3 on the real l_2 ball: e_1 is its maximizer, and every other
    # start with a positive first coordinate improves at its first step
    f = make_form(3, 3, REAL, [((3, 0, 0), 1.0)])
    pat = as_pattern(3)
    rng = np.random.default_rng(71)
    others = np.abs(rng.standard_normal((31, 3))) + [0.0, 0.1, 0.1]
    xs = radial_normalize(np.concatenate([[[1.0, 0.0, 0.0]], others]), 2.0)[:, None, :]
    vals = _values(f, pat, xs)
    before = vals.copy()
    steps = np.full((32, 1), 0.5)
    calls = []

    def counted(*args):
        calls.append(len(args[2]))
        return _values(*args)

    monkeypatch.setattr(norms, "_values", counted)
    _gradient_moves(f, 2.0, pat, 0, xs, vals, steps, np.arange(32), 0.5)
    assert vals[0] == before[0] and steps[0, 0] == 0.5
    assert (vals[1:] > before[1:]).all()
    # one round for all 32 starts, then the lone pending start's ladder of
    # up to 4 * 32 halvings, which tries each halving of 0.5 down to
    # _MIN_STEP once: 58 of them, one call each when halving one at a time
    halvings = sum(0.5 * 2.0**-k >= _MIN_STEP for k in range(1, 100))
    assert len(calls) == 2
    assert calls[0] == 32 and sum(calls[1:]) == halvings
    assert max(calls) <= 4 * 32


def test_first_backtracking_round_tries_one_step_per_moving_start(monkeypatch):
    # P = x_1^3 + x_2^2 x_3/2 has zero gradient at e_3, so of the 4 iterating
    # starts (of 32) only the 3 others move; the first round must try exactly
    # one step for each of them, not a ladder of later-round halvings
    f = make_form(3, 3, REAL, [((3, 0, 0), 1.0), ((0, 2, 1), 0.5)])
    pat = as_pattern(3)
    rng = np.random.default_rng(5)
    xs = radial_normalize(rng.standard_normal((32, 3)), 2.0)[:, None, :]
    xs[9, 0] = [0.0, 0.0, 1.0]
    vals = _values(f, pat, xs)
    steps = np.full((32, 1), 0.5)
    act = np.array([2, 9, 17, 30])
    moving = np.array([2, 17, 30])
    raw, grads = _value_grads(f, pat, xs[moving])
    dirn, _ = _ascent_direction(raw, grads[:, 0])
    expected = _sphere_move(xs[moving, 0] + 0.5 * dirn, 2.0)
    calls = []

    def recorded(*args):
        calls.append(args[2].copy())
        return _values(*args)

    monkeypatch.setattr(norms, "_values", recorded)
    _gradient_moves(f, 2.0, pat, 0, xs, vals, steps, act, 0.5)
    assert calls[0].shape == (3, 1, 3)
    np.testing.assert_array_equal(calls[0][:, 0], expected)


@pytest.mark.parametrize("pattern", [(1, 1, 1), (2, 1), (3,)])
@pytest.mark.parametrize("p", [1.0 + 1e-9, 1.001, 1e6])
def test_extreme_p_estimates_are_feasible_and_consistent(p, pattern):
    # p near 1 once underflowed dual_align's weights to 0 and large p
    # lp_norm's powers, so estimates raised "cannot normalize the zero vector"
    f = random_form(np.random.default_rng(1), 3, 3)
    est = mixed_norm(f, SpaceSpec(p, 3), pattern, OptimizerConfig(restarts=8))
    for w in est.witnesses:
        assert lp_norm(w, p) <= 1.0 + 1e-12
    recomputed = abs(eval_mixed(f, pattern, est.witnesses))
    assert est.value == pytest.approx(recomputed, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 1e6, math.inf]),
    st.sampled_from([REAL, COMPLEX]),
    st.sampled_from([(3,), (2, 1), (1, 1, 1), (2, 2)]),
    st.integers(0, 2**16),
)
def test_mixed_norm_witnesses_are_feasible_and_attain_the_value(p, field, pattern, seed):
    f = random_form(np.random.default_rng(seed), sum(pattern), 3, field)
    est = mixed_norm(f, SpaceSpec(p, 3, field), pattern, OptimizerConfig(restarts=4, seed=seed))
    for w in est.witnesses:
        assert lp_norm(w, p) <= 1.0 + 1e-12
    assert est.value == pytest.approx(abs(eval_mixed(f, pattern, est.witnesses)), rel=1e-12)


def test_a_block_left_inside_the_sup_norm_ball_is_rescaled_onto_the_sphere(monkeypatch):
    # four of this form's starts end their first coordinate sweep at a sup
    # norm of 0.84, strictly inside the ball
    form = random_form(np.random.default_rng(18), 2, 3)
    rescaled = []

    def counted_values(form, pat, tuples):
        rescaled.append(len(tuples))
        return _values(form, pat, tuples)

    def checked(form, pat, j, xs, vals, act):
        before = vals[act].copy()
        with monkeypatch.context() as mp:
            # within a coordinate move only the rescaling evaluates through _values
            mp.setattr(norms, "_values", counted_values)
            _coordinate_moves(form, pat, j, xs, vals, act)
        np.testing.assert_array_equal(np.abs(xs[act, j]).max(axis=1), 1.0)
        assert (vals[act] >= before).all()
        np.testing.assert_allclose(vals[act], _values(form, pat, xs[act]), rtol=1e-12)

    monkeypatch.setattr(norms, "_coordinate_moves", checked)
    est = poly_norm(form, SpaceSpec(math.inf, 3), OptimizerConfig(restarts=8))
    assert sum(rescaled) == 4
    assert lp_norm(est.witnesses[0], math.inf) == 1.0


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("p", [1.0, math.inf])
def test_mixed_norm_past_the_ternary_candidate_cap(p, field):
    # at d = 10 the ternary grid has more than _CANDIDATE_CAP rows, so the
    # structured starts hold no grid tuples
    assert len(_ternary_candidates(10, p, field)) == 0
    f = random_form(np.random.default_rng(10), 3, 10, field)
    space = SpaceSpec(p, 10, field)
    est = mixed_norm(f, space, (2, 1), OptimizerConfig(restarts=8))
    for w in est.witnesses:
        assert lp_norm(w, p) <= 1.0 + 1e-12
    assert est.value == pytest.approx(abs(eval_mixed(f, (2, 1), est.witnesses)), rel=1e-12)
    # past the cap the grid oracle scores random points only: 3-25% of the estimate here
    assert est.value >= grid_oracle(f, space, (2, 1)).value
    if p == 1.0:
        assert est.value <= norms._certified_upper(f, p) * (1 + 1e-15)


# ---------------------------------------------------------------------------
# ratio_report


def test_ratio_report_product_21():
    rep = ratio_report(product_form(3, 3), SpaceSpec(1.0, 3), (2, 1), CFG)
    assert rep.ratio == pytest.approx(2.25, abs=1e-3)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert "banach_mazur" in names


def test_ratio_report_hilbert():
    rng = np.random.default_rng(53)
    f = random_form(rng, 3, 3)
    rep = ratio_report(f, SpaceSpec(2.0, 3), (1, 1, 1), CFG, slack=2e-2)
    assert rep.ratio <= 1.0 + 2e-2


def test_ratio_report_zero_form_raises():
    with pytest.raises(NormError):
        ratio_report(zero_form(2, 2), SpaceSpec(2.0, 2), (1, 1), CFG)


def _count_poly_norm(monkeypatch):
    from polarnorm import extremals

    calls = []
    original = norms.poly_norm

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(norms, "poly_norm", counted)
    monkeypatch.setattr(extremals, "poly_norm", counted)
    return calls


@pytest.mark.parametrize("pattern", [(2, 1), (1, 1, 1)])
def test_ratio_report_estimates_the_polynomial_norm_once(monkeypatch, pattern):
    calls = _count_poly_norm(monkeypatch)
    form = random_form(np.random.default_rng(61), 3, 3)
    ratio_report(form, SpaceSpec(1.5, 3), pattern, OptimizerConfig(restarts=4))
    assert len(calls) == 1


def test_verify_instance_estimates_the_polynomial_norm_once(monkeypatch):
    from polarnorm.extremals import nonattaining_bilinear, verify_instance

    calls = _count_poly_norm(monkeypatch)
    verify_instance(nonattaining_bilinear(5), OptimizerConfig(restarts=4))
    assert len(calls) == 1


def test_ratio_report_single_block_ascends_once(monkeypatch):
    # the mixed estimate of the pattern (m,) is the poly estimate itself
    calls = []
    original = norms._estimate
    monkeypatch.setattr(norms, "_estimate", lambda *a: calls.append(a) or original(*a))
    form = random_form(np.random.default_rng(71), 3, 3)
    rep = ratio_report(form, SpaceSpec(1.5, 3), (3,), OptimizerConfig(restarts=4))
    assert len(calls) == 1
    assert rep.mixed.to_dict() == rep.poly.to_dict() and rep.ratio == 1.0


def test_the_best_start_is_the_first_of_equal_highest_values(monkeypatch):
    # exact unit vectors, so renormalizing the winner keeps its bits
    tuples = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[-1.0, 0.0]], [[0.0, -1.0]]])

    def ascent(*args, **kwargs):
        return np.array([0.5, 1.0, 1.0, 0.25]), tuples.copy(), np.zeros(len(tuples), dtype=bool)

    # no certificate applies at p = 1.5, so the pick sees every start
    monkeypatch.setattr(norms, "_block_ascent", ascent)
    est = poly_norm(product_form(2, 2), SpaceSpec(1.5, 2), CFG)
    assert _same_bits(est.witnesses[0], tuples[1, 0])


@pytest.mark.parametrize("space", [SpaceSpec(1.5, 3), SpaceSpec(1.0, 3, COMPLEX)])
@pytest.mark.parametrize("pattern", [(2, 1), (1, 1, 1), (2, 2), (3,)])
def test_mixed_norm_given_the_poly_estimate_is_unchanged(pattern, space):
    form = random_form(np.random.default_rng(67), sum(pattern), 3, space.field)
    cfg = OptimizerConfig(restarts=4, seed=2)
    poly = poly_norm(form, space, cfg)
    alone = mixed_norm(form, space, pattern, cfg)
    assert mixed_norm(form, space, pattern, cfg, poly=poly).to_dict() == alone.to_dict()


# ---------------------------------------------------------------------------
# settings and carried evaluations


@pytest.mark.parametrize("setting", [
    {"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-10},
    {"init_step": math.nan}, {"init_step": 0.0}, {"init_step": -0.5}, {"init_step": math.inf},
    {"max_iter": -1}, {"seed": -1}, {"restarts": 0}, {"restarts": -1},
])
def test_optimizer_config_rejects_settings_that_make_no_ascent(setting):
    # a NaN tol converged no start; a NaN, zero or negative init_step made no
    # move (a real cubic at p = 1.5 stayed at 1.3040 against 1.3131), and an
    # infinite one never ended its halving ladder; a negative seed failed
    # later, in numpy's SeedSequence, with a bare ValueError; with no restart
    # an estimate without structured starts would have none to ascend from
    with pytest.raises(NormError):
        OptimizerConfig(**setting)


def test_optimizer_config_accepts_zero_sweeps():
    form = random_form(np.random.default_rng(0), 3, 3)
    est = poly_norm(form, SpaceSpec(1.5, 3), OptimizerConfig(restarts=2, max_iter=0))
    assert est.value > 0 and est.starts_converged == 0


def _signed_bits(a):
    """The sign bits of the real and imaginary parts of a, which tell -0 from +0."""
    return np.signbit(np.real(a)), np.signbit(np.imag(a))


def _assert_bitwise_equal(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a, b)
    for x, y in zip(_signed_bits(a), _signed_bits(b)):
        np.testing.assert_array_equal(x, y)


def _tuples_with_zeros(rng, count, n, d, field):
    """Random argument tuples whose entries include +-0 and whole zero blocks,
    so that values and gradient entries come out as signed zeros."""
    tuples = rng.standard_normal((count, n, d))
    if field == COMPLEX:
        tuples = tuples + 1j * rng.standard_normal((count, n, d))
    tuples[rng.random((count, n, d)) < 0.3] = 0.0
    tuples[rng.random((count, n, d)) < 0.2] = -0.0
    tuples[::5, -1] = 0.0
    if field == COMPLEX:
        tuples[1::7, 0] = np.array(-0.0 - 1j)
    return tuples


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("pattern", [(2,), (3,), (2, 1), (1, 1), (1, 1, 1), (2, 2)])
def test_an_evaluation_has_the_bits_of_a_fresh_one_on_the_same_batch(pattern, field):
    # _value_grads gives the signed values whose moduli _values gives, and
    # its bits must not depend on which array holds the rows
    pat = as_pattern(pattern)
    form = random_form(np.random.default_rng(83), pat.m, 3, field)
    tuples = _tuples_with_zeros(np.random.default_rng(89), 40, pat.n, 3, field)
    for size in range(1, 41):
        batch = tuples[:size]
        raw, grads = _value_grads(form, pat, batch)
        if pat.n == 1:
            signed = form.eval_batch(batch[:, 0, :])
        else:
            signed = _mixed_values(form, pat.multiplicities, batch)
        _assert_bitwise_equal(raw, signed)
        # the same rows gathered into a new array, as xs[act] gathers them
        again = _value_grads(form, pat, tuples[np.arange(size)])
        for fresh, first in zip(again, (raw, grads)):
            _assert_bitwise_equal(fresh, first)


def _fresh_block_ascent(form, p, pat, xs0, cfg):
    """The block ascent from starts xs0 on the sphere with nothing carried:
    every move evaluates its batch."""
    S, n, d = xs0.shape
    xs = xs0.copy()
    vals = _values(form, pat, xs)
    steps = np.full((S, n), cfg.init_step)
    converged = np.zeros(S, dtype=bool)
    act = np.arange(S)
    real_sup = form.field == REAL and math.isinf(p)
    for _ in range(cfg.max_iter):
        before = vals[act]
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
        act = act[~done]
        if not len(act):
            break
    return vals, xs, converged


@pytest.mark.parametrize("field,p", [(REAL, 1.0), (REAL, 1.5), (REAL, math.inf),
                                     (COMPLEX, 1.0), (COMPLEX, 3.0), (COMPLEX, math.inf)])
@pytest.mark.parametrize("pattern", [(2,), (3,), (2, 1), (1, 2), (1, 1), (1, 1, 1), (2, 2)])
def test_carried_evaluations_leave_every_step_of_the_ascent_as_it_was(pattern, p, field):
    pat = as_pattern(pattern)
    form = random_form(np.random.default_rng(97), pat.m, 3, field)
    cfg = OptimizerConfig(restarts=36, seed=4)
    starts = _all_starts(form, SpaceSpec(p, 3, field), pat, cfg, (), None)
    for size in (1, 2, 9, 40):
        got = _block_ascent(form, p, pat, starts[:size], cfg)
        expected = _fresh_block_ascent(form, p, pat, starts[:size], cfg)
        for a, b in zip(got, expected):
            _assert_bitwise_equal(a, b)


def _count_kernel_calls(monkeypatch):
    """Calls of each kernel, and under "<kernel>_points" the rows they evaluated."""
    calls = {"eval_batch": 0, "eval_grad_batch": 0}
    for name in list(calls):
        original = getattr(SymmetricForm, name)
        calls[name + "_points"] = 0

        def counted(self, points, _original=original, _name=name):
            calls[_name] += 1
            calls[_name + "_points"] += len(points)
            return _original(self, points)

        monkeypatch.setattr(SymmetricForm, name, counted)
    return calls


def test_nonattaining_instance_evaluates_values_alone_rarely(monkeypatch):
    from polarnorm.extremals import nonattaining_bilinear, verify_instance

    calls = _count_kernel_calls(monkeypatch)
    verify_instance(nonattaining_bilinear(9))
    # the certificate stops the poly estimate before its first gradient move
    # and the multilinear one before its first exact move, both on their
    # structured starts, before any restart is drawn: 5 eval_batch calls and
    # no eval_grad_batch call (6 and 2 when the multilinear one stopped after
    # its first sweep), each move evaluating the batch it reads.
    # Without the certificate all 500 + 500 sweeps take 985 and 1452, and
    # carrying evaluations from move to move took 36 and 1483
    assert calls["eval_batch"] <= 40
    assert calls["eval_batch"] + calls["eval_grad_batch"] <= 1530


@pytest.mark.parametrize("pattern,per_sweep", [((1, 1), 3), ((2,), 2)])
def test_a_steady_sweep_evaluates_each_batch_it_reads_once(monkeypatch, pattern, per_sweep):
    # on the non-attaining instance the alternating and the gradient ascent
    # approach the top weight slowly, so no start converges in 30 sweeps and
    # every ladder accepts its first step: a (1, 1) sweep evaluates the batch
    # each of its two linear moves reads, then the values it leaves; a (2,)
    # sweep the batch its gradient move reads, then the ladder's one round
    from polarnorm.extremals import nonattaining_bilinear

    inst = nonattaining_bilinear(9)
    pat = as_pattern(pattern)
    cfg = OptimizerConfig(restarts=8, seed=1, structured_starts=False)
    starts = _all_starts(inst.form, inst.space, pat, cfg, (), None)
    calls = _count_kernel_calls(monkeypatch)
    totals = []
    for sweeps in (20, 30):
        _, _, converged = _block_ascent(inst.form, 2.0, pat, starts, replace(cfg, max_iter=sweeps))
        assert not converged.any()
        totals.append(calls["eval_batch"] + calls["eval_grad_batch"])
        calls.update(eval_batch=0, eval_grad_batch=0)
    assert totals[1] - totals[0] == 10 * per_sweep


# ---------------------------------------------------------------------------
# certified upper bounds: exact norms the ascent stops at, and oracles


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([REAL, COMPLEX]),
    st.sampled_from([(1,), (2,), (3,), (4,), (2, 1), (1, 1, 1), (2, 2)]),
    st.sampled_from([1.0, 1.0 + 1e-9, 1.5, 2.0, 3.0, 4.0]),
    st.integers(1, 3),
    st.integers(0, 2**16),
)
def test_pure_power_estimates_meet_their_certificate(field, pattern, p, nonzero, seed):
    # for p <= m every pattern's norm of sum_i a_i x_i^m is max|a_i|
    m = sum(pattern)
    assume(p <= m)
    form, top = _pure_power_form(field, m, nonzero, seed)
    cert = norms._certified_upper(form, p)
    assert cert == top
    value = mixed_norm(form, SpaceSpec(p, 3, field), pattern,
                       OptimizerConfig(restarts=4, seed=seed)).value
    assert cert * (1.0 - 1e-12) <= value <= cert * (1.0 + 1e-12)


def _coefficient_matrix(form):
    """A_ij = L(e_i, e_j) of a quadratic form, by the exact sign average."""
    eye = np.eye(form.dim)
    return np.array([[polarize(form, [eye[i], eye[j]]) for j in range(form.dim)]
                     for i in range(form.dim)])


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([REAL, COMPLEX]), st.integers(1, 3), st.integers(0, 2**16))
def test_quadratic_estimates_meet_the_largest_singular_value(field, d, seed):
    # on ell_2 both the quadratic and the bilinear norm are sigma_max(A).
    # At the default tol 1e-10 a start stops while its value still climbs
    # at that relative rate, up to 1.4e-9 short at d = 4; tol 1e-15 runs
    # the ascent to rounding level.  Like a power iteration it converges
    # at a rate set by sigma_2 / sigma_1: at 0.98 (complex, d = 2, seed
    # 4898) 500 sweeps leave poly_norm 3.3e-12 short, so the lower end is
    # checked where sigma_2 <= 0.9 sigma_1, which left at most 4.4e-15 in
    # 1500 random cases
    form = random_form(np.random.default_rng(seed), 2, d, field)
    singular = np.linalg.svd(_coefficient_matrix(form), compute_uv=False)
    sigma = singular[0]
    assert norms._certified_upper(form, 2.0) == pytest.approx(sigma, rel=1e-13, abs=0.0)
    space, cfg = SpaceSpec(2.0, d, field), OptimizerConfig(restarts=8, seed=seed, tol=1e-15)
    poly = poly_norm(form, space, cfg)
    for value in (poly.value, multilinear_norm(form, space, cfg, poly=poly).value):
        assert value <= sigma * (1.0 + 1e-12)
        if d == 1 or singular[1] <= 0.9 * sigma:
            assert value >= sigma * (1.0 - 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([REAL, COMPLEX]),
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_certificate_is_never_below_the_grid_oracle(field, m, p, pure, split, seed):
    # the dense complex grids cover only dim 1; at p = 1 the sign patterns
    # cover dim 3
    if pure:
        assume(p <= m and (field == REAL or p == 1.0))
        form, _ = _pure_power_form(field, m, 1 + seed % 3, seed)
    else:
        m, p = 2, 2.0
        d = 1 if field == COMPLEX else 1 + seed % 3
        form = random_form(np.random.default_rng(seed), 2, d, field)
    pattern = (m - 1, 1) if split and m > 1 else (m,)
    grid = grid_oracle(form, SpaceSpec(p, form.dim, field), pattern, resolution=16).value
    assert grid <= norms._certified_upper(form, p) * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([REAL, COMPLEX]),
    st.sampled_from([1, 2, 3, 4]),
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0, math.inf]),
    st.integers(2, 4),
    st.integers(0, 2**16),
)
def test_no_certificate_where_neither_bound_applies(field, m, p, d, seed):
    assume(p > m or m >= 3)
    form, _ = _pure_power_form(field, m, 1 + seed % 3, seed)
    if p > m:
        assert norms._certified_upper(form, p) is None
    if m >= 3:
        dense = random_form(np.random.default_rng(seed), m, d, field)
        if p == 1.0:
            # at p = 1 the largest tensor entry bounds every form's norms
            grid = grid_oracle(dense, SpaceSpec(p, d, field), resolution=16).value
            assert grid <= norms._certified_upper(dense, p) * (1.0 + 1e-12)
        else:
            assert norms._certified_upper(dense, p) is None


def _sparse_form(field, m, d, seed, keep):
    """random_form(default_rng(seed), m, d, field) with each coefficient kept
    with probability keep, at least one kept."""
    rng = np.random.default_rng(seed)
    form = random_form(rng, m, d, field)
    mask = rng.random(len(form.coeffs)) < keep
    mask[rng.integers(len(mask))] = True
    return make_form(m, d, field, [kv for kv, k in zip(form.coeffs.items(), mask) if k])


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([REAL, COMPLEX]),
    st.integers(1, 4),
    st.integers(1, 3),
    st.sampled_from([1.0, 0.5]),
    st.integers(0, 2**16),
)
def test_the_largest_tensor_entry_bounds_every_norm_at_p1(field, m, d, keep, seed):
    # |L(x_1, ..., x_m)| <= max |a_beta| beta!/m! on the ell_1 ball, with
    # equality at a vertex tuple, so it is the multilinear norm and bounds
    # every pattern's norm.  Estimates can read above it by rounding: of the
    # 50 complex (2, 1) poly estimates of `verify --p 1 --seed 3`, 24 did
    # without the certificate stop, by up to 8.8e-16 relative, and 13 with
    # it, by up to 4.4e-16
    form = _sparse_form(field, m, d, seed, keep)
    space, cfg = SpaceSpec(1.0, d, field), OptimizerConfig(restarts=4, seed=seed)
    upper = norms._certified_upper(form, 1.0)
    assert upper == form._tensor_top
    # each tensor entry L(e_{i_1}, ..., e_{i_m}) by the exact sign average
    eye = np.eye(d)
    entries = [abs(polarize(form, [eye[i] for i in idx]))
               for idx in itertools.product(range(d), repeat=m)]
    assert upper == pytest.approx(max(entries), rel=1e-12, abs=0.0)
    poly = poly_norm(form, space, cfg)
    multi = multilinear_norm(form, space, cfg, poly=poly)
    assert multi.value == pytest.approx(upper, rel=1e-12, abs=0.0)
    patterns = {(m,), (m - 1, 1), (1,) * m} - {(0, 1)}
    for pattern in patterns:
        value = mixed_norm(form, space, pattern, cfg, poly=poly).value
        assert value <= upper * (1.0 + 1e-12)
        # the dense grid of the multilinear pattern grows as 47^m
        if len(pattern) <= 2:
            grid = grid_oracle(form, space, pattern, resolution=16).value
            assert grid <= upper * (1.0 + 1e-12)
    assert poly.value <= upper * (1.0 + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([REAL, COMPLEX]), st.integers(1, 4), st.integers(1, 3), st.integers(0, 2**16))
def test_the_largest_tensor_entry_of_a_pure_power_form_is_its_largest_coefficient(field, m,
                                                                                   nonzero, seed):
    # the weight of x_i^m is m!/m! = 1.0 exactly, so at p = 1 and at p = m
    # the certificate is max|a_i| to the bit
    form, top = _pure_power_form(field, m, nonzero, seed)
    assert form._tensor_top == top
    assert norms._certified_upper(form, 1.0) == top
    assert norms._certified_upper(form, m) == top
    assert zero_form(m, 3, field)._tensor_top is None
    assert norms._certified_upper(zero_form(m, 3, field), 1.0) is None


def test_complex_l1_reports_stop_at_the_largest_tensor_entry(monkeypatch):
    # the first four forms of `verify --pattern 2,1 --field complex --p 1
    # --seed 0`: without the p = 1 certificate their reports take 71 + 66 +
    # 144 + 73 = 354 kernel calls, with it 24 + 24 + 18 + 24 = 90
    rng = np.random.default_rng(0)
    forms = [random_form(rng, 3, 3, COMPLEX) for _ in range(4)]
    calls = _count_kernel_calls(monkeypatch)
    for form in forms:
        ratio_report(form, SpaceSpec(1.0, 3, COMPLEX), (2, 1), OptimizerConfig(seed=0))
    assert calls["eval_batch"] + calls["eval_grad_batch"] <= 100


def test_every_complex_l1_mixed_estimate_stops_at_its_certificate_before_any_move(monkeypatch):
    # the 50 forms of `polarnorm verify --pattern 2,1 --field complex --p 1
    # --seed 3`: every best start lies within rounding of the largest tensor
    # entry U, so no mixed estimate walks a ladder.  A stop that compared
    # exactly with U would make 1-4 gradient moves on some of them, until
    # rounding pushed a value over U
    rng = np.random.default_rng(3)
    forms = [random_form(rng, 3, 3, COMPLEX) for _ in range(50)]
    space, cfg = SpaceSpec(1.0, 3, COMPLEX), OptimizerConfig(seed=3)
    calls = _count_kernel_calls(monkeypatch)
    for form in forms:
        upper = norms._certified_upper(form, 1.0)
        poly = poly_norm(form, space, cfg)
        calls.update(eval_batch=0, eval_grad_batch=0)
        mixed = mixed_norm(form, space, (2, 1), cfg, poly=poly)
        assert calls["eval_grad_batch"] == 0
        assert mixed.starts_converged == 0
        assert abs(mixed.value - upper) <= 4 * np.finfo(float).eps * upper


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("pattern", [(2, 1), (3, 1), (2, 2), (2, 1, 1), (4, 1), (3, 2)])
def test_the_certificate_stop_gives_up_rounding_only(pattern, field):
    rounding = 8 * np.finfo(float).eps
    space = SpaceSpec(1.0, 3, field)
    reached = 0
    for seed in range(8):
        form = random_form(np.random.default_rng(seed), sum(pattern), 3, field)
        upper = norms._certified_upper(form, 1.0)
        # the structured starts of these forms already hold a tuple at U;
        # random starts alone must climb to it, so the stop fires mid-ascent
        cfg = OptimizerConfig(restarts=4, seed=seed, structured_starts=False)
        bounded = mixed_norm(form, space, pattern, cfg).value
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(norms, "_certified_upper", lambda form, p: None)
            unbounded = mixed_norm(form, space, pattern, cfg).value
        reached += unbounded >= upper * (1 - rounding)
        # what the unbounded ascent gains past U is rounding by proof: with
        # structured starts and 8 restarts (seeds 0-39), it read up to 7.9 eps
        # above U on complex (3, 2) forms, while the bounded estimates stayed
        # within 1.5 eps of U
        assert bounded >= min(unbounded, upper) * (1 - rounding)
    # most of these ascents reach U, so the stop is tested where it fires; a
    # stop margin of 5e-2 fails this test, one of 1e-2 does not
    assert reached >= 6


def _largest_upper_met(value):
    """The largest upper bound that value still meets within the stop margin."""
    upper = value
    while (above := np.nextafter(upper, np.inf)) * (1 - norms._UPPER_MARGIN) <= value:
        upper = above
    return upper


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_an_upper_bound_stops_the_ascent_after_the_sweep_that_meets_it(field, monkeypatch):
    pat = as_pattern((2, 1))
    form = random_form(np.random.default_rng(61), 3, 3, field)
    cfg = OptimizerConfig(restarts=4, seed=5)
    starts = _all_starts(form, SpaceSpec(1.5, 3, field), pat, cfg, (), None)
    one_sweep = _block_ascent(form, 1.5, pat, starts, replace(cfg, max_iter=1))
    leader = one_sweep[0].max()
    # the stop allows a few ulps of rounding: the largest upper bound the
    # first sweep's best value meets lies above it, and the ascent stops
    # after that sweep
    met = _largest_upper_met(leader)
    assert met > leader
    for upper in (leader, met):
        for a, b in zip(_block_ascent(form, 1.5, pat, starts, cfg, upper=upper), one_sweep):
            _assert_bitwise_equal(a, b)
    # met by a start before any backtracking move: the starts, already on
    # the sphere, come back as evaluated and unmoved, none converged, with no
    # kernel call after the first evaluation
    first = _values(form, pat, starts)
    assert _largest_upper_met(first.max()) < leader
    calls = _count_kernel_calls(monkeypatch)
    for upper in (_largest_upper_met(first.max()), first.max(),
                  np.nextafter(first.max(), -np.inf), 0.0):
        calls.update(eval_batch=0, eval_grad_batch=0)
        vals, xs, converged = _block_ascent(form, 1.5, pat, starts, cfg, upper=upper)
        assert (calls["eval_batch"], calls["eval_grad_batch"]) == (1, 0)
        _assert_bitwise_equal(vals, first)
        _assert_bitwise_equal(xs, starts)
        assert not converged.any()
    # the other starts climb on for more sweeps, but none passes the leader:
    # the smallest upper bound it does not meet, or infinity, is never met,
    # and nothing stops early
    unbounded = _block_ascent(form, 1.5, pat, starts, cfg)
    assert unbounded[0].max() == leader and not np.array_equal(unbounded[0], one_sweep[0])
    for upper in (np.nextafter(met, np.inf), math.inf):
        for a, b in zip(_block_ascent(form, 1.5, pat, starts, cfg, upper=upper), unbounded):
            _assert_bitwise_equal(a, b)


def test_nonattaining_instance_stops_at_its_certificate(monkeypatch):
    from polarnorm.extremals import nonattaining_bilinear, verify_instance

    calls = _count_kernel_calls(monkeypatch)
    draws = _count_restart_draws(monkeypatch)
    norms._restart_tuples.cache_clear()
    verify_instance(nonattaining_bilinear(49))
    # the axis start e_49 attains the certificate max a_i = 49/50 before any
    # move, so the poly estimate stops before its first gradient move and the
    # multilinear one before its first exact move: 5 + 0 kernel calls,
    # against 6 + 2 when the multilinear one stopped after its first sweep,
    # 17 + 3 when every start first walked its ladder and 16 + 1503 for all
    # 500 + 500 sweeps
    assert calls["eval_batch"] + calls["eval_grad_batch"] <= 5
    # both stop on their structured starts, so no restart is drawn and the
    # 32 restarts' rows are never evaluated: 267 rows, against 427 when each
    # estimate evaluated its restarts with the structured starts
    assert draws == []
    assert calls["eval_batch_points"] <= 267


@pytest.mark.parametrize("field", [REAL, COMPLEX])
@pytest.mark.parametrize("pattern", [(1, 1), (1, 1, 1)])
def test_an_all_linear_estimate_whose_start_meets_its_certificate_makes_no_move(pattern, field):
    # at p = 1 the scored start grid holds the vertex tuple at the largest
    # tensor entry U, so the stop fires before the first exact move
    space, eps = SpaceSpec(1.0, 3, field), np.finfo(float).eps
    for seed in range(8):
        form = random_form(np.random.default_rng(seed), len(pattern), 3, field)
        upper = norms._certified_upper(form, 1.0)
        cfg = OptimizerConfig(seed=seed)
        poly = poly_norm(form, space, cfg)
        with pytest.MonkeyPatch.context() as mp:
            calls = _count_kernel_calls(mp)
            estimate = mixed_norm(form, space, pattern, cfg, poly=poly)
        assert calls["eval_grad_batch"] == 0
        assert estimate.starts_converged == 0
        # values reach U through the polarization sum, a few ulps either way
        assert abs(estimate.value - upper) <= 4 * eps * upper


def _axis_dominated_form(source, field, m, seed):
    """a x_0^m + Q(x_1, x_2) / 10 on K^3 for one certificate source:
    Q is a random form of degree m for the largest tensor entry at p = 1,
    b_1 x_1^m + b_2 x_2^m for Hoelder at p = 1.5, and a random quadratic
    for sigma_max at p = 2."""
    rng = np.random.default_rng(seed)
    if source == "sigma_max":
        m = 2
    q = random_form(rng, m, 2, field)
    if source == "hoelder":
        q = make_form(m, 2, field, [(al, a) for al, a in q.coeffs.items() if max(al.exponents) == m])
    a = complex(*rng.standard_normal(2)) if field == COMPLEX else rng.standard_normal()
    terms = [((m, 0, 0), a)]
    terms += [((0,) + al.exponents, c / 10) for al, c in q.coeffs.items()]
    return make_form(m, 3, field, terms)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([REAL, COMPLEX]), st.integers(2, 4), st.integers(0, 2**16))
@pytest.mark.parametrize("source,p", [("tensor_top", 1.0), ("hoelder", 1.5), ("sigma_max", 2.0)])
def test_an_axis_start_that_meets_the_certificate_stops_the_estimate_before_any_move(
        source, p, field, m, seed):
    form = _axis_dominated_form(source, field, m, seed)
    # width 1 takes the Hoelder case at p <= m, so sigma_max needs width 2
    assert (form._table[0].shape[1] == 1) == (source == "hoelder")
    upper = norms._certified_upper(form, p)
    e0 = np.eye(3, dtype=complex if field == COMPLEX else float)[:1, None]
    axis = _values(form, as_pattern(form.degree), e0)[0]
    # Q / 10 can outweigh a, and sigma_max can round an ulp above |a|
    assume(axis >= upper)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_kernel_calls(mp)
        value = poly_norm(form, SpaceSpec(p, 3, field), OptimizerConfig(restarts=4, seed=seed)).value
    assert calls["eval_grad_batch"] == 0
    assert value == pytest.approx(upper, rel=1e-12, abs=0.0)


def _count_dual_align_calls(monkeypatch):
    calls = {"dual_align": 0}
    original = norms.dual_align

    def counted(*args):
        calls["dual_align"] += 1
        return original(*args)

    monkeypatch.setattr(norms, "dual_align", counted)
    return calls


@pytest.mark.parametrize("n", [9, 49, 99])
def test_the_certificate_stop_leaves_the_nonattaining_estimates_as_they_were(monkeypatch, n):
    from polarnorm.extremals import nonattaining_bilinear, verify_instance

    instance = nonattaining_bilinear(n)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_kernel_calls(mp) | _count_dual_align_calls(mp)
        stopped = verify_instance(instance)
    monkeypatch.setattr(norms, "_certified_upper", lambda form, p: None)
    full = verify_instance(instance)
    # the axis start e_n meets the certificate n/(n+1) exactly, so both
    # estimates stop before any move, the mixed one's exact moves included,
    # and no start has met tol
    assert stopped.poly.starts_converged == stopped.mixed.starts_converged == 0
    assert calls["eval_grad_batch"] == calls["dual_align"] == 0
    assert stopped.poly.value == stopped.mixed.value == n / (n + 1.0)
    for a, b in ((stopped.poly, full.poly), (stopped.mixed, full.mixed)):
        a, b = a.to_dict(), b.to_dict()
        # more starts meet tol in 500 sweeps than in the one that stops
        assert a.pop("starts_converged") <= b.pop("starts_converged")
        assert a == b


# ---------------------------------------------------------------------------
# the restarts, drawn only when the structured starts fall short of a certificate


def _estimate_over_every_start(form, space, pat, cfg, extra_starts, diag_witness, method):
    """_estimate with the restarts drawn up front: the block ascent over every
    start, then the same pick of the winner and renormalization."""
    p = space.p
    starts = _all_starts(form, space, pat, cfg, extra_starts, diag_witness)
    vals, tuples, converged = _block_ascent(form, p, pat, starts, cfg,
                                            upper=norms._certified_upper(form, p))
    xs = tuples[int(np.argmax(vals))]
    nonzero = lp_norm(xs, p) > 0
    xs[nonzero] = radial_normalize(xs[nonzero], p)
    value = float(_values(form, pat, xs[None])[0])
    if not math.isfinite(value):
        raise NormError("the estimate is not finite: the form's values overflow")
    return norms.NormEstimate(value, list(xs), method, int(converged.sum()))


def _poly_and_mixed(form, space, pattern, cfg):
    poly = poly_norm(form, space, cfg)
    return [poly, mixed_norm(form, space, pattern, cfg, poly=poly)]


def _instance_estimates(n):
    from polarnorm.extremals import nonattaining_bilinear, verify_instance

    report = verify_instance(nonattaining_bilinear(n))
    return [report.poly, report.mixed]


def test_a_certified_estimate_is_bitwise_the_estimate_over_every_start(monkeypatch):
    # p = 1 forms and the non-attaining instance mostly stop on their
    # structured starts; the tol rule stops most quadratics at p = 2 short of
    # sigma_max, so their structured starts fall short and the restarts join
    runs = []
    for field in (REAL, COMPLEX):
        for seed in range(8):
            cfg = OptimizerConfig(restarts=8, seed=seed)
            for pattern in [(3,), (2, 1), (1, 1, 1), (2, 2)]:
                form = random_form(np.random.default_rng(seed), sum(pattern), 3, field)
                runs.append((_poly_and_mixed, form, SpaceSpec(1.0, 3, field), pattern, cfg))
            form = random_form(np.random.default_rng(seed), 2, 3, field)
            runs.append((_poly_and_mixed, form, SpaceSpec(2.0, 3, field), (1, 1), cfg))
    runs += [(_instance_estimates, n) for n in (9, 49, 99)]
    lazy, draws, drew = norms._estimate, [], []
    tuples = norms._restart_tuples
    monkeypatch.setattr(norms, "_restart_tuples", lambda *a: draws.append(a) or tuples(*a))

    def traced(*args):
        before = len(draws)
        estimate = lazy(*args)
        drew.append(len(draws) > before)
        return estimate

    for run, *args in runs:
        monkeypatch.setattr(norms, "_estimate", traced)
        got = run(*args)
        monkeypatch.setattr(norms, "_estimate", _estimate_over_every_start)
        expected = run(*args)
        for a, b in zip(got, expected, strict=True):
            assert a.value.hex() == b.value.hex() and a.method == b.method
            assert a.starts_converged == b.starts_converged
            assert all(_same_bits(x, y) for x, y in zip(a.witnesses, b.witnesses, strict=True))
    # both paths were taken: stopped on the structured starts, and drawn
    assert set(drew) == {False, True}


@pytest.mark.parametrize("field", [REAL, COMPLEX])
def test_the_restarts_join_the_ascent_as_if_drawn_up_front(field, monkeypatch):
    pat, space = as_pattern((2, 1)), SpaceSpec(1.5, 3, field)
    form = random_form(np.random.default_rng(61), 3, 3, field)
    cfg = OptimizerConfig(restarts=4, seed=5)
    head, restarts = _starts(form, space, pat, cfg, (), None)
    every = np.concatenate([head, restarts()])
    drawn = []

    def draw():
        drawn.append(True)
        return restarts()

    calls = _count_kernel_calls(monkeypatch)

    def counted(*args, **kwargs):
        calls.update(eval_batch=0, eval_grad_batch=0)
        result = _block_ascent(*args, **kwargs)
        return result, calls["eval_batch"] + calls["eval_grad_batch"]

    # no bound: the structured starts are not evaluated alone; a bound they
    # do not meet: they are, once more, and then every start as if drawn up
    # front
    for upper, alone in ((None, 0), (math.inf, 1)):
        expected, up_front = counted(form, 1.5, pat, every, cfg, upper=upper)
        got, lazy = counted(form, 1.5, pat, head, cfg, upper=upper, restarts=draw)
        assert lazy == up_front + alone
        for a, b in zip(got, expected):
            _assert_bitwise_equal(a, b)
    assert len(drawn) == 2
    # a bound they meet: they alone come back as evaluated, none converged,
    # with one kernel call and no draw
    first = _values(form, pat, head)
    (vals, xs, converged), lazy = counted(form, 1.5, pat, head, cfg, upper=first.max(),
                                          restarts=draw)
    assert lazy == 1 and len(drawn) == 2 and not converged.any()
    _assert_bitwise_equal(vals, first)
    _assert_bitwise_equal(xs, head)
    # no structured start: the restarts are drawn at once
    none, draw_only = _starts(form, space, pat, replace(cfg, structured_starts=False), (), None)
    assert none.shape == (0, pat.n, 3)
    got, lazy = counted(form, 1.5, pat, none, cfg, upper=0.0, restarts=draw_only)
    expected, up_front = counted(form, 1.5, pat, draw_only(), cfg, upper=0.0)
    assert lazy == up_front == 1
    for a, b in zip(got, expected):
        _assert_bitwise_equal(a, b)
