"""p-adic densities, singular series, and the character L-value."""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import digamma as scipy_digamma

from qdelta import localdens
from qdelta.localdens import (
    L_one_psi0,
    LocalDensity,
    _fundamental_discriminant,
    _is_clean,
    count_solutions,
    kronecker_value,
    sigma_p,
    sigma_p0_cone,
    singular_series,
)
from qdelta.modarith import jacobi, primes_up_to
from qdelta.qform import CongruenceDatum, ProblemInstance, QForm

from conftest import HYP_CENTER, make_instance

SPHERE_CENTER = (1 / 3**0.5,) * 3


def _cone_recount(instance) -> LocalDensity:
    """sigma_p0_cone with the non-primitive count N_(k-2) counted again at
    every level k >= 3: the written-out oracle of its ladder."""
    p, form = instance.p0, instance.form
    threshold = 1
    tmp = 2 * form.det()
    while tmp % p == 0:
        tmp //= p
        threshold += 1
    counts, prev, k = [], None, 1
    while p**k <= localdens._BOX_BOUND:
        nonprim = p ** (3 * (k - 1)) if k <= 2 else p**3 * count_solutions(form, 0, p, k - 2)
        prim = count_solutions(form, 0, p, k) - nonprim
        counts.append((k, prim))
        rho = Fraction(prim, p ** (2 * k))
        if prev is not None and rho == prev and k - 1 > threshold:
            return LocalDensity(p, k - 1, prev * Fraction(p, p - 1), counts[-2][1], tuple(counts),
                                True, "cone-recurrence")
        prev, k = rho, k + 1
    raise ValueError("no cone stabilization")


def hensel_certified_literal(instance, p: int, k: int) -> bool:
    """The certificate as a scalar loop over every residue x = lambda mod
    p^(ord_p L): each solution mod p^k needs a gradient of p-valuation mu
    with k >= 2 mu + 1.  The oracle for localdens._hensel_certified."""
    pk = p**k
    step = 1
    while instance.L % (step * p) == 0:
        step *= p
    lam = tuple(v % step for v in instance.cong.lam)
    form = instance.form
    target = instance.m0 % pk
    for x1 in range(lam[0], pk, step):
        for x2 in range(lam[1], pk, step):
            for x3 in range(lam[2], pk, step):
                if (form((x1, x2, x3)) - target) % pk != 0:
                    continue
                g = form.gradient((x1, x2, x3))
                mu = 0
                while all(gi % p**(mu + 1) == 0 for gi in g):
                    mu += 1
                    if 2 * mu + 1 > k:
                        return False
                if 2 * mu + 1 > k:
                    return False
    return True


def count_sheets_loop(form: QForm, target: int, p: int, k: int, axis: int) -> int:
    """The sheet count with one pass per x2 row, each computing b^2 - 4ac
    from b = b13 x1 + b23 x2 and c = b11 x1^2 + b12 x1 x2 + b22 x2^2 -
    target: the oracle for localdens._count_sheets."""
    perm = {0: (1, 2, 0), 1: (0, 2, 1), 2: (0, 1, 2)}[axis]
    b11, b22, b33, b12, b13, b23 = form.permuted(perm).coefficients()
    pk = p**k
    x1 = np.arange(pk, dtype=np.int64)
    table = np.zeros(pk, dtype=np.int64)  # table[d]: the u mod p^k with u^2 = d
    np.add.at(table, (x1 * x1) % pk, 1)
    total = 0
    for v2 in range(pk):
        bb = (b13 * x1 + b23 * v2) % pk
        cc = (b11 * x1 * x1 + b12 * x1 * v2 + b22 * v2 * v2 - target) % pk
        disc = (bb * bb - 4 * b33 * cc) % pk
        total += int(table[disc].sum())
    return total


@pytest.fixture(scope="module")
def hyp3():
    """Hyperboloid with p0 = 3 (square-discriminant branch)."""
    return make_instance(p0=3)


@pytest.fixture(scope="module")
def sphere5():
    c = 1 / 3**0.5
    return make_instance(coeffs=(1, 1, 1), p0=5, center=(c, c, c))


class TestCountSolutions:
    def test_sphere_mod_3(self):
        # x^2+y^2+z^2 = 1 mod 3: only permutations of (±1, 0, 0) -> 6
        assert count_solutions(QForm.diagonal(1, 1, 1), 1, 3, 1) == 6

    def test_no_unit_diagonal_counts_directly(self):
        # every diagonal coefficient is 0 mod 3, so no sheet route: the
        # residue-row count against a triple loop, with and without a
        # congruence condition
        form = QForm(3, 6, 3, a12=2, a23=-2)
        for target in (1, 3, 9):
            brute = sum(1 for x in itertools.product(range(9), repeat=3)
                        if (form(x) - target) % 9 == 0)
            assert count_solutions(form, target, 3, 2) == brute
            restricted = sum(1 for x in itertools.product(range(1, 9, 3), range(0, 9, 3), range(2, 9, 3))
                             if (form(x) - target) % 9 == 0)
            assert count_solutions(form, target, 3, 2, 3, (4, 0, -1)) == restricted

    def test_brute_matches_sheets(self):
        form = QForm(1, 2, 3, a12=2)
        for p in (5, 7):
            fast = count_solutions(form, 1, p, 2)
            brute = sum(
                1
                for x in range(p * p)
                for y in range(p * p)
                for z in range(p * p)
                if (form((x, y, z)) - 1) % p**2 == 0
            )
            assert fast == brute

    @pytest.mark.parametrize("coeffs", [(1, 2, 3, 2, 0, 0), (3, 5, -7, 2, 4, -6),
                                        (5, 3, 7, -6, 2, 4)])
    @pytest.mark.parametrize("block", [None, 20], ids=["default", "20"])
    def test_sheets_match_row_loop(self, monkeypatch, coeffs, block):
        # the blocked binary-quadratic count against the per-row loop it
        # replaced, on every unit axis at p = 3, 5, 7 and k = 1..3; blocks
        # of 20 cells are one row, or a few rows with a partial last block
        if block:
            monkeypatch.setattr(localdens, "_SHEET_BLOCK_CELLS", block)
        form = QForm(*coeffs)
        for p, k in itertools.product((3, 5, 7), (1, 2, 3)):
            for axis in (i for i, a in enumerate(coeffs[:3]) if a % p):
                for target in (0, 1, -2, p, 5 * p * p):
                    want = count_sheets_loop(form, target, p, k, axis)
                    assert localdens._count_sheets(form, target, p, k, axis) == want, (p, k, axis)

    def test_congruence_restriction(self):
        # solutions of F = 1 mod 9 with x = (1,0,0) mod 3
        form = QForm.diagonal(1, 1, 1)
        direct = sum(
            1
            for x in range(9)
            for y in range(9)
            for z in range(9)
            if (form((x, y, z)) - 1) % 9 == 0
            and x % 3 == 1 and y % 3 == 0 and z % 3 == 0
        )
        assert count_solutions(form, 1, 3, 2, cong_modulus=3, cong_residue=(1, 0, 0)) == direct


class TestSigmaP:
    def test_clean_prime_stabilizes_immediately(self, sphere5):
        d = sigma_p(sphere5, 3)
        assert d.k_star == 1
        assert d.value == Fraction(2, 3)  # 6 solutions mod 3 / 3^2

    def test_ramified_prime_ladder(self, sphere5):
        d = sigma_p(sphere5, 2)
        assert d.certified
        assert d.value == Fraction(3, 2)

    def test_cone_density_hyperboloid(self, hyp3):
        d = sigma_p0_cone(hyp3)
        assert d.value == Fraction(4, 3)

    def test_cone_density_anisotropic_is_zero(self):
        c = 1 / 3**0.5
        inst = make_instance(coeffs=(1, 1, 1), p0=2, L=1, center=(c, c, c))
        assert sigma_p0_cone(inst).value == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p0=3),
            dict(coeffs=(1, 1, 1), p0=2, center=SPHERE_CENTER),
            dict(coeffs=(1, 1, 1), p0=7, center=SPHERE_CENTER),
            dict(coeffs=(2, 3, 1, 2, 0, 2), m0=3, p0=7, L=2, lam=(0, 1, 0), center=(0.5, 0.4, 0.3)),
            dict(coeffs=(1, 1, -3), p0=3),
        ],
        ids=["hyperboloid-p3", "sphere-p2", "sphere-p7", "cross-p7", "ramified-p3"],
    )
    def test_cone_counts_each_level_once(self, monkeypatch, kwargs):
        # the ladder reads the non-primitive count p^3 N_(k-2) from the level
        # it counted two steps before: one count_solutions call per level,
        # and the density of the recount written out
        inst = make_instance(**kwargs)
        p, form = inst.p0, inst.form
        want = _cone_recount(inst)
        calls = []

        def counting(*args):
            calls.append(args)
            return count_solutions(*args)

        monkeypatch.setattr(localdens, "count_solutions", counting)
        got = sigma_p0_cone(inst)
        assert got == want
        assert calls == [(form, 0, p, k) for k in range(1, len(got.counts) + 1)]

    @pytest.mark.parametrize(
        "coeffs,want",
        [
            ((1, 1, 27), LocalDensity(3, 5, Fraction(4, 3), 78732, ((1, 12), (2, 108), (3, 972),
                                      (4, 8748), (5, 78732), (6, 708588)), True, "ladder")),
            ((1, 3, 3), LocalDensity(3, 4, Fraction(2), 13122, ((1, 18), (2, 162), (3, 1458),
                                     (4, 13122), (5, 118098)), True, "ladder")),
        ],
        ids=["x2+y2+27z2", "x2+3y2+3z2"],
    )
    def test_ramified_3adic_density(self, coeffs, want):
        # every field pinned; the x^2 + y^2 + 27 z^2 certificate scans 3^15
        # residues at k_star = 5
        assert sigma_p(make_instance(coeffs=coeffs), 3) == want

    @pytest.mark.parametrize("m0,p,want", [
        (16, 2, Fraction(3, 8)),
        (64, 2, Fraction(3, 16)),
        (81, 3, Fraction(34, 27)),
        (147, 7, Fraction(8, 7)),
    ])
    def test_threshold_counts_m0_valuation(self, m0, p, want):
        # the sphere's ladder climbs v_p(m0) - 1 levels past the ramification
        # threshold: without them m0 = 16, 64 and 81 stop at 1/4, 1/4, 11/9
        assert sigma_p(make_instance(coeffs=(1, 1, 1), m0=m0, center=SPHERE_CENTER), p).value == want

    @pytest.mark.parametrize("m0,p", [(7**4, 7), (5**4, 5)])
    def test_threshold_beyond_box_refused(self, m0, p):
        # stable only from level 5, whose p^6 check exceeds the box bound:
        # refused, not the unstabilized 55/49 and 29/25
        inst = ProblemInstance(QForm.diagonal(1, 1, 1), m0, 10007, 0, CongruenceDatum(1, (0, 0, 0)))
        with pytest.raises(ValueError, match=f"p={p} "):
            sigma_p(inst, p)

    def test_densities_positive_for_solvable(self, hyp3):
        for p in (5, 7, 11, 13):
            assert sigma_p(hyp3, p).value > 0


# (instance, p, the levels k at which the certificate fails)
CERTIFICATE_CASES = [
    (dict(coeffs=(1, 3, 3)), 3, ()),
    (dict(coeffs=(1, 1, 27)), 3, ()),
    (dict(coeffs=(1, 9, 9)), 3, ()),
    (dict(coeffs=(1, 1, 1), m0=3, center=SPHERE_CENTER), 3, (1,)),
    (dict(coeffs=(1, 1, 1), m0=9, center=SPHERE_CENTER), 3, (1, 2)),
    (dict(coeffs=(1, 1, 1), center=SPHERE_CENTER), 2, (1, 2)),
    (dict(L=2, lam=(1, 0, 0)), 2, (1, 2)),
    (dict(coeffs=(2, 3, 1, 2, 0, 2), m0=3, L=2, lam=(0, 1, 0), center=(0.5, 0.4, 0.3)), 2, (1, 2)),
]


class TestHenselCertificate:
    @pytest.mark.parametrize(
        "kwargs,p,fails",
        CERTIFICATE_CASES,
        ids=["x2+3y2+3z2", "x2+y2+27z2", "x2+9y2+9z2", "sphere-m03", "sphere-m09",
             "sphere-p2", "hyperboloid-L2", "cross-L2"],
    )
    def test_matches_literal_loop(self, kwargs, p, fails):
        # the row scan against the scalar loop at every k with p^(3k) <= 2e6
        inst = make_instance(**kwargs)
        levels = [k for k in range(1, 8) if p ** (3 * k) <= 2 * 10**6]
        got = {k: localdens._hensel_certified(inst, p, k) for k in levels}
        assert got == {k: hensel_certified_literal(inst, p, k) for k in levels}
        assert tuple(k for k in levels if not got[k]) == fails


# (coefficients a11, a22, a33, a12, a13, a23; m0) for the closed-form oracles
CLOSED_FORM_CASES = [
    ((1, 2, 3, 2, 0, 0), 5),
    ((2, 3, 1, 2, 0, 2), 3),
    ((3, 5, -7, 2, 4, -6), -2),
    ((1, 1, 1, 0, 0, 0), -1),
    ((1, 1, -1, 0, 0, 0), 1),
]


def _clean_primes(instance, bound):
    return [p for p in primes_up_to(bound) if p != instance.p0 and _is_clean(instance, p)]


def _enumerated_clean(instance, p):
    """The clean branch with its level-1 count enumerated by
    count_solutions: the oracle for the closed count."""
    n1 = count_solutions(instance.form, instance.m0, p, 1)
    return LocalDensity(p=p, k_star=1, value=Fraction(n1, p**2), count=n1,
                        counts=((1, n1),), certified=True, method="enumerated")


class TestGaussCount:
    """The clean branch's closed count against residue enumeration."""

    @pytest.mark.parametrize("coeffs,m0", CLOSED_FORM_CASES)
    def test_matches_count_solutions(self, coeffs, m0):
        inst = make_instance(coeffs=coeffs, m0=m0)
        primes = _clean_primes(inst, 200)
        assert len(primes) >= 40
        for p in primes:
            d = sigma_p(inst, p)
            assert d.method == "gauss-character"
            assert d == dataclasses.replace(_enumerated_clean(inst, p), method=d.method), p

    @pytest.mark.parametrize("coeffs,m0", CLOSED_FORM_CASES)
    def test_matches_triple_loop(self, coeffs, m0):
        inst = make_instance(coeffs=coeffs, m0=m0)
        for p in _clean_primes(inst, 13):
            brute = sum(
                1 for x in itertools.product(range(p), repeat=3)
                if (inst.form(x) - m0) % p == 0
            )
            assert sigma_p(inst, p).count == brute, p

    def test_clean_branch_enumerates_nothing(self, monkeypatch):
        inst = make_instance(coeffs=(3, 5, -7, 2, 4, -6), m0=-2)

        def refuse(*args, **kwargs):
            raise AssertionError("clean primes must not enumerate residues")

        monkeypatch.setattr(localdens, "count_solutions", refuse)
        for p in _clean_primes(inst, 500):
            sigma_p(inst, p)

    @pytest.mark.parametrize("coeffs,p0,center,p_max", [
        ((1, 1, -1), 3, HYP_CENTER, 300),
        ((1, 1, 1), 7, SPHERE_CENTER, 500),
    ])
    def test_series_unchanged(self, monkeypatch, coeffs, p0, center, p_max):
        inst = make_instance(coeffs=coeffs, p0=p0, center=center)
        new = singular_series(inst, p_max)
        real = localdens.sigma_p

        def enumerated(instance, p):
            return _enumerated_clean(instance, p) if _is_clean(instance, p) else real(instance, p)

        monkeypatch.setattr(localdens, "sigma_p", enumerated)
        old = singular_series(inst, p_max)
        assert (new.value, new.drift, new.factors) == (old.value, old.drift, old.factors)
        assert new.obstructed_at == old.obstructed_at
        for a, b in zip(new.densities, old.densities, strict=True):
            assert a == dataclasses.replace(b, method=a.method)
            assert a.method == ("gauss-character" if b.method == "enumerated" else b.method)


class TestSingularSeries:
    def test_square_branch(self, hyp3):
        s = singular_series(hyp3, p_max=300)
        assert s.square_disc
        assert s.obstructed_at is None
        assert abs(s.value - 0.811) < 0.01
        assert s.drift < 0.01

    def test_nonsquare_branch(self, sphere5):
        s = singular_series(sphere5, p_max=300)
        assert not s.square_disc
        assert s.value > 0

    def test_obstructed(self):
        c = 1 / 3**0.5
        inst = make_instance(
            coeffs=(1, 1, 1), p0=5, L=2, lam=(1, 1, 1), center=(c, c, c)
        )
        s = singular_series(inst, p_max=100)
        assert s.value == 0.0
        assert s.obstructed_at == 2


    def test_euler_factors_carry_the_l_value_character(self):
        # sphere, m0 = 3: d0 = -3, so chi(2) = -1 where (-3 / 2) as a Jacobi
        # symbol would read 0; every factor, the cone's at p0 included, is
        # (1 - chi(p)/p) sigma_p with the chi that L(1, chi) sums
        inst = make_instance(coeffs=(1, 1, 1), m0=3, center=SPHERE_CENTER)
        s = singular_series(inst, p_max=50)
        assert [p for p, _ in s.factors] == primes_up_to(50)
        for (p, f), d in zip(s.factors, s.densities, strict=True):
            assert f == (1.0 - kronecker_value(-3, p) / p) * float(d.value), p
        assert dict(s.factors)[2] == 1.5 * float(s.densities[0].value)


# (coefficients, n): one-class genera, and n covering square-full m0 at the
# ramified primes (16, 64 at 2; 81 at 3; 147 at 7)
SIEGEL_CASES = [((1, 1, 1), n) for n in (1, 2, 3, 6, 16, 64, 81, 147, 294)] + [
    ((1, 1, 2), 9), ((1, 1, 2), 16), ((1, 1, 3), 25),
]


@pytest.mark.parametrize("coeffs,n", SIEGEL_CASES,
                         ids=[f"{''.join(map(str, c))}-{n}" for c, n in SIEGEL_CASES])
def test_siegel_one_class_genera(coeffs, n):
    """Siegel's formula on a one-class genus: r(n) = sigma_inf prod_p sigma_p,
    the product taken as L(1, chi) prod_(p <= P) (1 - chi(p)/p) sigma_p with
    sigma_inf = 2 pi sqrt(n / det).  Every p > P is clean, where
    (1 - chi/p)(1 + chi/p) = 1 - 1/p^2, so the ratio lies in [1 - 1/P, 1]
    up to rounding."""
    P = 2000
    form = QForm.diagonal(*coeffs)
    b = math.isqrt(n)
    r = sum(1 for x in itertools.product(range(-b, b + 1), repeat=3) if form(x) == n)
    # p0 = 10007 > P never enters the product
    inst = ProblemInstance(form, n, 10007, 0, CongruenceDatum(1, (0, 0, 0)))
    d0 = _fundamental_discriminant(-n * form.det())
    product = L_one_psi0(form, n)
    for p in primes_up_to(P):
        product *= (1 - kronecker_value(d0, p) / p) * float(sigma_p(inst, p).value)
    ratio = r / (2 * math.pi * math.sqrt(n / form.det()) * product)
    assert 1 - 1 / P <= ratio <= 1 + 1e-12, ratio


class TestKroneckerValue:
    @pytest.mark.parametrize("d0", [-3, -4, -7, -8, -15, -24, 5, 12, 13])
    def test_matches_jacobi_at_odd_n(self, d0):
        for n in range(1, 400, 2):
            assert kronecker_value(d0, n) == jacobi(d0, n), n

    @pytest.mark.parametrize("d0,want", [(-3, -1), (-7, 1), (-4, 0), (-8, 0), (-24, 0)])
    def test_value_at_two(self, d0, want):
        assert kronecker_value(d0, 2) == want


class TestLValue:
    def test_disc_minus_four(self):
        # sphere: disc = -1, fundamental discriminant -4, L(1) = pi/4
        assert abs(L_one_psi0(QForm.diagonal(1, 1, 1), 1) - math.pi / 4) < 1e-8

    def test_disc_minus_three(self):
        # diag(1,1,3), m0 = 1: disc = -3, L(1) = pi / (3 sqrt 3)
        assert abs(
            L_one_psi0(QForm.diagonal(1, 1, 3), 1) - math.pi / (3 * math.sqrt(3))
        ) < 1e-8

    def test_rejects_square_discriminant(self):
        with pytest.raises(ValueError):
            L_one_psi0(QForm.diagonal(1, 1, -1), 1)

    def test_digamma_series_against_scipy(self):
        x = np.concatenate([np.linspace(8.0, 20.0, 4001), np.geomspace(8.0, 1e5, 4001)])
        ref = scipy_digamma(x)
        assert np.max(np.abs(localdens._digamma(x) - ref) / np.abs(ref)) <= 1e-15

    def test_digamma_series_rejects_small_argument(self):
        with pytest.raises(ValueError):
            localdens._digamma(np.array([7.9, 12.0]))
