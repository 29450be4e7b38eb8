"""Quadratic forms, duals, classification, and problem instances."""

from __future__ import annotations

import numpy as np
import pytest

from qdelta.modarith import is_square
from qdelta.qform import (
    CClass,
    CongruenceDatum,
    ProblemInstance,
    QForm,
    _classify_array,
    classify_c,
    evaluate,
    form_values,
    residue_rows,
)

from conftest import make_instance


class TestQForm:
    def test_rejects_odd_cross_terms(self):
        with pytest.raises(ValueError, match="odd"):
            QForm(1, 1, 1, a12=1)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError, match="degenerate"):
            QForm(1, 1, 0, a12=0, a13=0, a23=0)

    def test_determinants(self):
        assert QForm.diagonal(1, 1, 1).det() == 1
        assert QForm.diagonal(1, 1, -1).det() == -1
        assert QForm(1, 2, 3, a12=2, a13=0, a23=2).det() == 1 * (2 * 3 - 1) - 1 * 3

    def test_gradient_is_2Mx(self):
        form = QForm(2, 3, -1, a12=4, a13=2, a23=6)
        x = (3, -2, 5)
        g = form.gradient(x)
        eps = []
        for i in range(3):
            e = [0, 0, 0]
            e[i] = 1
            # exact finite difference of a quadratic: F(x+e) - F(x-e) = 2 dF/dx_i
            eps.append((form([x[j] + e[j] for j in range(3)]) - form([x[j] - e[j] for j in range(3)])) // 2)
        assert list(g) == eps

    def test_dual_adjugate_relation(self):
        # adj(adj M) = det(M) * M, so the dual of the dual rescales by det
        for form in (QForm.diagonal(1, 1, -1), QForm(1, 2, 3, a12=2, a23=2)):
            dd = form.dual().dual()
            d = form.det()
            assert dd.coefficients() == tuple(d * v for v in form.coefficients())

    def test_dual_gradient_identity(self):
        # F*(grad F(x) / 2) = det(F) * F(x) for ternary forms
        form = QForm(1, 2, 5, a12=2, a13=4, a23=0)
        dual = form.dual()
        for x in ((1, 0, 0), (2, -1, 3), (5, 7, -2)):
            g = form.gradient(x)
            assert g[0] % 2 == g[1] % 2 == g[2] % 2 == 0 or True
            # evaluate dual at the integer gradient and compare with 4 det F(x)
            assert evaluate(dual, g) == 4 * form.det() * evaluate(form, x)

    @pytest.mark.parametrize("coeffs, order", [
        ((1, 1, -1), (0, 1, 2)),
        ((1, -1, 0, 0, 0, 2), (0, 2, 1)),
        ((3, 0, 0, 2, 2, 2), (1, 2, 0)),
        ((0, 0, 0, 2, 2, 2), None),
    ])
    def test_solve_order_and_permuted_form(self, coeffs, order):
        form = QForm(*coeffs)
        assert form.solve_order() == order
        if order is None:
            return
        moved = form.permuted(order)
        assert moved.coefficients()[2] != 0
        assert moved.det() == form.det()
        for x in ((1, 0, 0), (2, -1, 3), (5, 7, -2)):
            assert moved([x[i] for i in order]) == form(x)

    def test_overflow_guard(self):
        form = QForm.diagonal(1, 1, 1)
        with pytest.raises(OverflowError):
            evaluate(form, (2**64, 0, 0))


class TestCongruence:
    def test_validates_consistency(self):
        with pytest.raises(ValueError):
            # F(lambda) = 0 != 1 mod 2
            ProblemInstance(
                QForm.diagonal(1, 1, 1), 1, 5, 1, CongruenceDatum(2, (0, 0, 0)), None
            )

    def test_requires_reduced_lambda(self):
        with pytest.raises(ValueError):
            CongruenceDatum(2, (2, 0, 0))

    def test_p0_coprime_to_L(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                QForm.diagonal(1, 1, 1), 1, 2, 1, CongruenceDatum(2, (1, 0, 0)), None
            )


class TestProblemInstance:
    def test_derived_quantities(self):
        inst = make_instance(L=2, lam=(1, 0, 0), p0=5, h=2)
        assert inst.N == 625
        assert inst.sqrtN == 25
        assert inst.mN == 625
        assert inst.lam_N == (1, 0, 0)  # 25 * 1 mod 2
        assert float(inst.Q) == 12.5
        assert inst.omega == 2 * 2 * -1

    def test_with_h(self):
        inst = make_instance(h=1)
        assert inst.with_h(3).N == 5**6
        assert inst.with_h(3).form is inst.form


class TestClassifyC:
    def test_trichotomy(self):
        inst = make_instance()  # hyperboloid, dual diag(-1, -1, 1) scaled
        # F*(c) = 0 on the dual cone
        assert classify_c(inst, (1, 0, 1)) is CClass.EXCEPTIONAL_TYPE_II
        # m0 det F* > 0 and square
        dual = inst.form.dual()
        c = (1, 0, 0)
        prod = inst.m0 * inst.form.det() * evaluate(dual, c)
        assert prod == 1
        assert classify_c(inst, c) is CClass.EXCEPTIONAL_TYPE_I
        assert classify_c(inst, (0, 0, 1)) is CClass.ORDINARY

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            classify_c(make_instance(), (0, 0, 0))

    @pytest.mark.parametrize(
        "coeffs, m0, classes",
        [
            ((1, 1, -1), 1, set(CClass)),
            # positive definite: F*(c) = 0 only at c = 0
            ((2, 3, 1, 2, 0, 2), 3, {CClass.EXCEPTIONAL_TYPE_I, CClass.ORDINARY}),
        ],
        ids=["hyperboloid", "cross"],
    )
    def test_array_classifier_matches_scalar(self, coeffs, m0, classes):
        inst = make_instance(coeffs=coeffs, m0=m0, p0=7)
        dual, scale = inst.form.dual(), inst.m0 * inst.form.det()
        cvals = np.arange(-6, 7)
        C = [g.ravel() for g in np.meshgrid(cvals, cvals, cvals, indexing="ij")]
        type_i, type_ii = _classify_array(inst, *C)
        seen = set()
        for k, c in enumerate(zip(*(v.tolist() for v in C))):
            if c == (0, 0, 0):
                assert type_ii[k] and not type_i[k]
                continue
            fstar = evaluate(dual, c)
            want = (
                CClass.EXCEPTIONAL_TYPE_II if fstar == 0
                else CClass.EXCEPTIONAL_TYPE_I if scale * fstar > 0 and is_square(scale * fstar)
                else CClass.ORDINARY
            )
            got = (
                CClass.EXCEPTIONAL_TYPE_II if type_ii[k]
                else CClass.EXCEPTIONAL_TYPE_I if type_i[k]
                else CClass.ORDINARY
            )
            assert got is want is classify_c(inst, c), c
            seen.add(want)
        assert seen == classes

    def test_classify_rejects_int64_overflow(self):
        with pytest.raises(OverflowError):
            classify_c(make_instance(), (3 * 10**9, 0, 1))

    def test_array_classifier_int64_bound(self):
        # |m0 det| * sum|F* coefficients| = 10 * 10^9 * 3 * 10^6: the int64
        # bound 2^62 admits max|c| = 12 and refuses 13, on the scalar and
        # the array classifier alike
        inst = make_instance(coeffs=(1000, 1000, 1000), m0=10, p0=7)
        size = 10 * 10**9 * 3 * 10**6
        assert 12**2 * size < 1 << 62 <= 13**2 * size
        _classify_array(inst, np.arange(-12, 13)[:, None], np.arange(-12, 13), 0)
        classify_c(inst, (12, -12, 12))
        for c in ((13, 0, 0), (0, -13, 0), (1, 2, 13)):
            with pytest.raises(OverflowError):
                _classify_array(inst, *np.array(c)[:, None])
            with pytest.raises(OverflowError):
                classify_c(inst, c)


# forms with 0, 1, 2 and 3 nonzero cross terms
_FORMS = [(1, 1, -1), (2, 1, -1, 2, 0, 0), (2, 3, 1, 2, 0, 2), (3, 5, -7, 2, 4, -6)]


def _six_terms(form: QForm, x1, x2, x3):
    """F written out as the literal six-term sum."""
    a11, a22, a33, a12, a13, a23 = form.coefficients()
    return (
        a11 * x1 * x1 + a22 * x2 * x2 + a33 * x3 * x3
        + a12 * x1 * x2 + a13 * x1 * x3 + a23 * x2 * x3
    )


class TestFormValues:
    @pytest.mark.parametrize("coeffs", _FORMS, ids=["0", "1", "2", "3"])
    def test_matches_exact_evaluate_on_int64(self, coeffs):
        form = QForm(*coeffs)
        axes = np.ix_(*(np.arange(-4, 5, dtype=np.int64) + k for k in range(3)))
        got = form_values(form, *axes)
        assert got.dtype == np.int64 and got.shape == (9, 9, 9)
        for idx in np.ndindex(got.shape):
            x = tuple(int(a.ravel()[i]) for a, i in zip(axes, idx))
            assert got[idx] == evaluate(form, x), x

    @pytest.mark.parametrize("coeffs", _FORMS, ids=["0", "1", "2", "3"])
    def test_bitwise_equal_to_six_terms(self, coeffs):
        # float open axes, one of them Gauss-Legendre nodes; equal values,
        # and equal sign bits wherever F != 0
        form = QForm(*coeffs)
        x, _ = np.polynomial.legendre.leggauss(11)
        axes = np.ix_(np.linspace(-1.3, 1.7, 9), 0.5 + 0.9 * x, np.linspace(0.1, 2.3, 10))
        got, want = form_values(form, *axes), _six_terms(form, *axes)
        assert got.shape == want.shape == (9, 11, 10)
        assert np.array_equal(got, want)
        nz = want != 0
        assert np.array_equal(np.signbit(got[nz]), np.signbit(want[nz]))

    def test_negative_definite_at_origin(self):
        # F(0) is an exact zero whose sign depends on the skipped cross
        # terms (-0.0 here, +0.0 from the six-term sum); F - m0 is the same
        form, m0 = QForm(-1, -2, -3), -1
        axes = np.ix_(*(np.linspace(-1.0, 1.0, 5),) * 3)
        got, want = form_values(form, *axes), _six_terms(form, *axes)
        assert np.signbit(got[2, 2, 2]) and not np.signbit(want[2, 2, 2])
        got -= m0
        want -= m0
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


class TestResidueRows:
    @pytest.mark.parametrize("coeffs", _FORMS, ids=["0", "1", "2", "3"])
    @pytest.mark.parametrize(
        "scale, lam, shift, modulus, size",
        [(1, (0, 0, 0), 0, 7, 7), (4, (1, 0, 3), -625, 36, 6), (3, (2, 1, 0), 10**6, 5, 9)],
        ids=["plain", "shifted", "wide"],
    )
    def test_rows_congruent_in_range(self, coeffs, scale, lam, shift, modulus, size):
        # every row is int64, (size, size), in [0, 3 modulus) and congruent
        # to F(scale s + lam) + shift, evaluated exactly
        form = QForm(*coeffs)
        rows = list(residue_rows(form, scale, lam, shift, modulus, size))
        assert len(rows) == size
        for s1, row in enumerate(rows):
            assert row.dtype == np.int64 and row.shape == (size, size)
            assert row.min() >= 0 and row.max() < 3 * modulus
            for s2, s3 in np.ndindex(row.shape):
                x = (scale * s1 + lam[0], scale * s2 + lam[1], scale * s3 + lam[2])
                assert (int(row[s2, s3]) - evaluate(form, x) - shift) % modulus == 0, x
