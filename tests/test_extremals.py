import math

import numpy as np
import pytest

from polarnorm.bounds import bound_complex_any, bound_complex_lp
from polarnorm.extremals import (
    nonattaining_bilinear,
    product_extremal,
    product_form,
    real44_form,
    verify_instance,
)
from polarnorm.forms import FormError, eval_mixed, eval_poly, eval_tensor_direct
from polarnorm.norms import OptimizerConfig, lp_norm, multilinear_norm

CFG = OptimizerConfig(restarts=16)


# ---------------------------------------------------------------------------
# product form


def test_product_form_shape():
    f = product_form(3, 3)
    assert len(f.coeffs) == 1
    assert eval_poly(f, np.ones(3)) == pytest.approx(1.0)


def test_product_form_dimension_guard():
    with pytest.raises(FormError):
        product_form(3, 2)


def test_product_extremal_21_p1():
    inst = product_extremal((2, 1), 1.0)
    w1, w2 = inst.witnesses
    assert w1 == pytest.approx(np.array([0.5, 0.5, 0.0]))
    assert w2 == pytest.approx(np.array([0.0, 0.0, 1.0]))
    value = eval_mixed(inst.form, (2, 1), inst.witnesses)
    assert value == pytest.approx(1.0 / 12.0, abs=1e-12)
    assert value == pytest.approx(eval_tensor_direct(inst.form, [w1, w1, w2]), abs=1e-12)
    assert inst.exact_ratio == pytest.approx(2.25)
    assert inst.exact_poly_norm == pytest.approx(1.0 / 27.0)
    assert inst.ratio_is_sharp  # p = 1 <= m' = 1.5


def test_product_extremal_all_ones_ratio():
    for m in (2, 3, 4):
        inst = product_extremal(tuple([1] * m), 1.0)
        assert inst.exact_ratio == pytest.approx(m**m / math.factorial(m))


def test_product_extremal_single_block():
    inst = product_extremal((3,), 2.0)
    assert inst.exact_ratio == pytest.approx(1.0)


def test_product_extremal_witness_value_formula():
    for pat, p in [((2, 1), 1.0), ((2, 2), 1.5), ((3, 1, 1), 2.0)]:
        inst = product_extremal(pat, p)
        m = sum(pat)
        expected = math.prod(math.factorial(k) for k in pat) / (
            math.factorial(m) * math.prod(k ** (k / p) for k in pat)
        )
        assert abs(inst.witness_mixed_value - expected) <= 1e-12
        assert abs(inst.witness_mixed_value - inst.exact_ratio * inst.exact_poly_norm) <= 1e-9
        for w in inst.witnesses:
            assert abs(lp_norm(w, p) - 1.0) <= 1e-12


def test_product_extremal_rejects_infinite_p():
    with pytest.raises(FormError):
        product_extremal((2, 1), math.inf)


def test_product_extremal_refuses_constants_past_the_float_range():
    assert math.isfinite(product_extremal((1,) * 143, 1.5).exact_ratio)
    for pattern in [(1,) * 144, (171,), (170, 30)]:
        with pytest.raises(FormError, match="float range"):
            product_extremal(pattern, 1.5)


def test_product_extremal_sharpness_flag_range():
    assert product_extremal((2, 1), 1.5).ratio_is_sharp  # p = m' exactly
    assert not product_extremal((2, 1), 2.0).ratio_is_sharp


# ---------------------------------------------------------------------------
# real 4-homogeneous sup-norm instance


def test_real44_poly_values():
    inst = real44_form()
    assert eval_poly(inst.form, np.array([1.0, 0, 0, 0])) == pytest.approx(1.0)
    assert eval_poly(inst.form, np.ones(4)) == pytest.approx(0.0)


def test_real44_mixed_value_is_three():
    inst = real44_form()
    value = inst.witness_mixed_value
    assert abs(value) == pytest.approx(3.0, abs=1e-12)
    # exceeds the best possible complex constant
    assert abs(value) > bound_complex_any((2, 2)).value


def test_real44_parity_identity():
    # for any 4-form: P(x) + P(y) + 6 L(x^2 y^2) = mean of P(+-x +- y)
    inst = real44_form()
    rng = np.random.default_rng(61)
    for _ in range(5):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        lhs = (
            eval_poly(inst.form, x)
            + eval_poly(inst.form, y)
            + 6.0 * eval_mixed(inst.form, (2, 2), [x, y])
        )
        rhs = np.mean(
            [eval_poly(inst.form, sx * x + sy * y) for sx in (-1, 1) for sy in (-1, 1)]
        )
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# non-attaining bilinear truncations


def test_nonattaining_small():
    inst = nonattaining_bilinear(1)
    assert inst.exact_poly_norm == pytest.approx(0.5)
    est = multilinear_norm(inst.form, inst.space, CFG)
    assert est.value == pytest.approx(0.5, abs=1e-9)


def test_nonattaining_norm_formula():
    for n in (9, 25):
        inst = nonattaining_bilinear(n)
        est = multilinear_norm(inst.form, inst.space, CFG)
        assert est.value == pytest.approx(n / (n + 1.0), abs=1e-9)
        assert est.value < 1.0


def test_nonattaining_witnesses():
    inst = nonattaining_bilinear(9)
    assert abs(inst.witness_mixed_value - 0.9) <= 1e-12


# ---------------------------------------------------------------------------
# verify_instance


def test_verify_product_21():
    report = verify_instance(product_extremal((2, 1), 1.0), CFG)
    assert report.passed
    assert report.poly.value == pytest.approx(1.0 / 27.0, abs=1e-6)
    assert report.ratio == pytest.approx(2.25, abs=1e-3)


def test_verify_real44():
    report = verify_instance(real44_form(), CFG)
    assert report.passed
    assert report.poly.value == pytest.approx(1.0, abs=1e-6)
    assert report.ratio == pytest.approx(3.0, abs=1e-2)


def test_verify_nonattaining():
    report = verify_instance(nonattaining_bilinear(9), CFG)
    assert report.passed
    assert report.mixed.value == pytest.approx(0.9, abs=1e-6)


def test_sharpness_reproduction_against_complex_lp():
    # measured ratio reaches the sharp constant within estimator tolerance
    for pat, p in [((2, 1), 1.0), ((1, 1, 1), 1.0), ((2, 2), 1.2)]:
        report = verify_instance(product_extremal(pat, p), CFG)
        sharp = bound_complex_lp(pat, p).value
        assert report.ratio >= sharp - 1e-3


def test_ratio_report_real44_passes_real_bound():
    from polarnorm.norms import ratio_report

    inst = real44_form()
    rep = ratio_report(inst.form, inst.space, (2, 2), CFG)
    assert rep.ratio == pytest.approx(3.0, abs=1e-2)
    checks = {c.name: c for c in rep.checks}
    # measured 3 sits below the provable 4 but above the complex constant 8/3
    assert checks["real_hilbert"].bound == pytest.approx(4.0)
    assert checks["real_hilbert"].passed
    assert rep.passed


def test_instance_serialization_roundtrip():
    inst = product_extremal((2, 1), 1.0)
    doc = inst.to_dict()
    assert doc["pattern"] == [2, 1]
    assert doc["space"]["p"] == 1.0
    assert len(doc["witnesses"]) == 2
    assert doc["form"]["degree"] == 3
