"""Complete exponential sums: oracles, factorizations, closed forms."""

from __future__ import annotations

import cmath
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from qdelta.expsums import (
    ComplexSum,
    _S_sums,
    _amplitude_rows,
    _cal_grid,
    _exp_table,
    _s1_values,
    _sum_masked_phase,
    brute_S,
    brute_S1,
    brute_S1_grid,
    brute_S2,
    calA,
    calS,
    calT1,
    calT2,
    crt_split,
    lemma21_eval,
    sqc_grid,
    sqc_table_peak,
    sqc_values,
    sqc_window,
)
from qdelta.modarith import characters_mod, smooth_part
from qdelta.qform import evaluate

from conftest import make_instance


def brute_S_literal(instance, q: int, c) -> ComplexSum:
    """Raw double loop over sigma (lexicographic) and a; oracle for brute_S."""
    L = instance.L
    qL = q * L
    if qL > 40:
        raise ValueError("literal loop reserved for small moduli")
    lam = instance.lam_N
    mN = instance.mN
    tab = [cmath.exp(2j * cmath.pi * k / qL) for k in range(qL)]
    coprime = [a for a in range(q) if math.gcd(a, q) == 1]
    total = 0j
    for s1 in range(qL):
        for s2 in range(qL):
            for s3 in range(qL):
                g = evaluate(instance.form, (L * s1 + lam[0], L * s2 + lam[1], L * s3 + lam[2])) - mN
                if g % (L * L) != 0:
                    continue
                cdot = (c[0] * s1 + c[1] * s2 + c[2] * s3) % qL
                gl = g // L
                for a in coprime:
                    total += tab[(a * gl + cdot) % qL]
    return ComplexSum(total)


def brute_S_reordered(instance, q: int, c) -> ComplexSum:
    """Same sum with the a-loop outermost and direct exponentials; independent
    reimplementation used as a cross-check."""
    L = instance.L
    qL = q * L
    if qL > 40:
        raise ValueError("literal loop reserved for small moduli")
    lam = instance.lam_N
    mN = instance.mN
    total = 0j
    for a in range(q):
        if math.gcd(a, q) != 1:
            continue
        for s1 in range(qL):
            for s2 in range(qL):
                for s3 in range(qL):
                    g = evaluate(instance.form, (L * s1 + lam[0], L * s2 + lam[1], L * s3 + lam[2])) - mN
                    if g % (L * L) != 0:
                        continue
                    arg = a * (g // L) + c[0] * s1 + c[1] * s2 + c[2] * s3
                    total += cmath.exp(2j * cmath.pi * (arg % qL) / qL)
    return ComplexSum(total)


def locus_sum_literal(instance, l: int, x: int, c, lam, target: int) -> complex:
    """Raw loop over beta mod lL^2 with beta = lam mod L and the a mod l
    coprime to l: the sum of e_{lL^2}(a (F(beta) - target) + xbar c.beta) over
    L^2 | F(beta) - target, F in exact integers and phases by cmath."""
    L = instance.L
    mod = l * L * L
    if l * L > 12:
        raise ValueError("literal loop reserved for small moduli")
    xinv = pow(x, -1, mod)
    coprime = [a for a in range(l) if math.gcd(a, l) == 1]
    total = 0j
    for beta in itertools.product(*(range(v, mod, L) for v in lam)):
        g = evaluate(instance.form, beta) - target
        if g % (L * L) != 0:
            continue
        cdot = xinv * sum(v * b for v, b in zip(c, beta))
        for a in coprime:
            total += cmath.exp(2j * cmath.pi * ((a * g + cdot) % mod) / mod)
    return total


def calS_literal(instance, l: int, x: int, c) -> complex:
    """S_l(x; c) by its definition: the locus beta = lam_N mod L, target m0 N."""
    return locus_sum_literal(instance, l, x, c, instance.lam_N, instance.mN)


def calT2_literal(instance, q2: int, x: int, c) -> complex:
    """T2 by its definition: l = q2_nat, the locus beta = lam mod L, target m0."""
    nat = q2 // smooth_part(q2, instance.p0)
    return locus_sum_literal(instance, nat, x, c, instance.cong.lam, instance.m0)


@pytest.fixture(scope="module")
def hyp():
    return make_instance()


@pytest.fixture(scope="module")
def cong():
    return make_instance(L=2, lam=(1, 0, 0))


class TestBruteOracles:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
    def test_three_routes_agree_L1(self, hyp, q):
        for c in ((0, 0, 0), (1, 0, 2), (-1, 3, 1)):
            a = brute_S(hyp, q, c).value
            b = brute_S_literal(hyp, q, c).value
            d = brute_S_reordered(hyp, q, c).value
            assert abs(a - b) < 1e-9
            assert abs(a - d) < 1e-9

    @pytest.mark.parametrize("q", [1, 2, 3, 5])
    def test_three_routes_agree_L2(self, cong, q):
        for c in ((0, 0, 0), (1, 2, 0)):
            a = brute_S(cong, q, c).value
            b = brute_S_literal(cong, q, c).value
            d = brute_S_reordered(cong, q, c).value
            assert abs(a - b) < 1e-9
            assert abs(a - d) < 1e-9

    def test_conjugate_symmetry(self, hyp):
        for q in (3, 4, 7):
            for c in ((1, 2, 0), (2, 1, 1)):
                neg = tuple(-v for v in c)
                assert abs(
                    brute_S(hyp, q, c).value.conjugate() - brute_S(hyp, q, neg).value
                ) < 1e-9


class TestMultiplicativity:
    @pytest.mark.parametrize("q", list(range(1, 41)))
    def test_small_q(self, hyp, q):
        q1, q2 = crt_split(hyp, q)
        assert q1 * q2 == q
        assert smooth_part(q1, hyp.omega) == 1
        for c in ((0, 0, 0), (1, 2, 0)):
            S = brute_S(hyp, q, c).value
            S12 = brute_S1(hyp, q1, q2, c).value * brute_S2(hyp, q1, q2, c).value
            assert abs(S - S12) <= 1e-9 * max(1.0, abs(S))


class TestGrids:
    def test_sqc_grid_matches_brute(self, hyp):
        q = 6
        grid = sqc_grid(hyp, q)
        for c in ((0, 0, 0), (1, 2, 3), (5, 0, 1)):
            assert abs(grid[c] - brute_S(hyp, q, c).value) < 1e-8

    def test_sqc_grid_matches_brute_L2(self, cong):
        q = 3
        grid = sqc_grid(cong, q)
        qL = q * cong.L
        for c in ((0, 0, 0), (1, 0, 2), (4, 5, 1)):
            assert abs(grid[tuple(v % qL for v in c)] - brute_S(cong, q, c).value) < 1e-8

    def test_s1_grid_matches_brute_s1(self, hyp):
        q1, q2 = 7, 2
        grid = brute_S1_grid(hyp, q1, q2)
        for c in itertools.product((0, 1, 3, 6), repeat=3):
            assert abs(grid[c] - brute_S1(hyp, q1, q2, c).value) < 1e-8


class TestClosedFormRoute:
    """sqc_values, one c at a time, at qL > 200, where a whole (qL)^3
    residue table passes 8e6 entries, against the definition-level sum, with
    q1 prime to m0 N (where Lemma 2.1 holds too) and with a part of q1
    (here 5 = p0) that divides m0 N."""

    @pytest.mark.parametrize(
        "h, L, lam, q, closed_s1",
        [
            (2, 1, (0, 0, 0), 201, True),    # N = 625: q1 = 201 prime to 5
            (2, 1, (0, 0, 0), 205, False),   # q1 = 41 * 5, 5 | m0 N
            (1, 2, (1, 0, 0), 101, True),    # L = 2: qL = 202
            (1, 2, (1, 0, 0), 105, False),   # qL = 210, q1 = 21 * 5
        ],
    )
    def test_matches_brute_beyond_grid_bound(self, h, L, lam, q, closed_s1):
        inst = make_instance(h=h, L=L, lam=lam)
        assert q * L > 200
        q1, _ = crt_split(inst, q)
        assert (q1 % 2 == 1 and math.gcd(q1, inst.mN) == 1) == closed_s1
        for c in ((0, 0, 0), (1, -2, 3), (4, 1, -1)):
            want = brute_S(inst, q, c).value
            (got,) = sqc_values(inst, q, [c])
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), c


# instances for the factor coverage below: Omega = 2 L det(F), and m0 N
# carries the primes of m0 and p0
HYP625 = dict(h=2)                                       # Omega = -2, m0 N = 5^4
CONG = dict(L=2, lam=(1, 0, 0))                          # Omega = -4, m0 N = 5^2
HYP_M03 = dict(m0=3)                                     # m0 N = 3 * 5^2
CROSS = dict(coeffs=(2, 3, 1, 2, 0, 2), p0=7)            # det 3: Omega = 6, m0 N = 7^2


# (instance, q, u, v, q2) with (q1, q2) = crt_split(q), v the part of q1
# sharing primes with m0 N and u = q1 / v, where Lemma 2.1 holds: each of
# u, v, q2 takes the value 1 and a value > 1, so S1's closed form is
# covered on q1 prime to m0 N, on q1 sharing primes with it, and on mixes
FACTOR_CASES = pytest.mark.parametrize(
    "kw, q, u, v, q2",
    [
        (HYP625, 1, 1, 1, 1),
        (HYP625, 3, 3, 1, 1),
        (HYP625, 5, 1, 5, 1),
        (HYP625, 8, 1, 1, 8),
        (HYP625, 30, 3, 5, 2),      # all three factors > 1
        (HYP625, 175, 7, 25, 1),
        (CONG, 1, 1, 1, 1),         # S2 alone, at modulus L = 2
        (CONG, 30, 3, 5, 2),
        (CONG, 100, 1, 25, 4),      # qL = 200
        (HYP_M03, 21, 7, 3, 1),     # v from m0, not p0
        (HYP_M03, 30, 1, 15, 2),
        (CROSS, 15, 5, 1, 3),       # q2 = 3 | det: more than the 2-part
        (CROSS, 105, 5, 7, 3),
    ],
    ids=["hyp625-1", "hyp625-3", "hyp625-5", "hyp625-8", "hyp625-30", "hyp625-175",
         "cong-1", "cong-30", "cong-100", "m03-21", "m03-30", "cross-15", "cross-105"],
)


def _check_factors(inst, q, u, v, q2):
    q1, split_q2 = crt_split(inst, q)
    ramified = smooth_part(q1, inst.mN)
    assert (q1 // ramified, ramified, split_q2) == (u, v, q2)


class TestFactoredRoute:
    """sqc_values against the definition-level sum.  Its route is
    S_q(c) = S1(q1, q2) * S2(q1, q2), S1 in closed form."""

    CS = ((0, 0, 0), (1, -2, 3), (4, 1, -1), (2, 2, 1))

    @FACTOR_CASES
    def test_matches_brute(self, kw, q, u, v, q2):
        inst = make_instance(**kw)
        _check_factors(inst, q, u, v, q2)
        for c, got in zip(self.CS, sqc_values(inst, q, self.CS), strict=True):
            want = brute_S(inst, q, c).value
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), c


def _window_cube(inst, q, cvals) -> np.ndarray:
    """sqc_window's values spread onto the whole cube cvals^3, 0 outside the
    sub-cube of its rows (everywhere when it returns None)."""
    cube = np.zeros((len(cvals),) * 3, dtype=np.complex128)
    window = sqc_window(inst, q, cvals)
    if window is not None:
        rows, values = window
        cube[np.ix_(*rows)] = values
    return cube


class TestWindow:
    """sqc_window on the cube arange(-3, 4)^3: within rounding of sqc_values
    on every c (the same factor product, with S2 gathered from its residue
    table rather than summed per c), and of the definition-level sum on a
    sample of c."""

    SAMPLE = ((-3, -3, -3), (-2, 2, 3), (0, 0, 0), (3, 1, -1))

    @pytest.mark.parametrize(
        "h, L, lam, q",
        [
            (1, 1, (0, 0, 0), 1),      # qL = 1: the window wraps the residue cube
            (1, 2, (1, 0, 0), 1),      # qL = 2
            (2, 1, (0, 0, 0), 200),    # qL = 200: u = 1, v = 25, q2 = 8
            (1, 2, (1, 0, 0), 100),    # qL = 200
            (2, 1, (0, 0, 0), 201),    # N = 625, qL = 201: u = 201
            (1, 2, (1, 0, 0), 101),    # L = 2, qL = 202
        ],
    )
    def test_matches_per_c(self, h, L, lam, q):
        inst = make_instance(h=h, L=L, lam=lam)
        cvals = np.arange(-3, 4)
        cube = list(itertools.product(cvals.tolist(), repeat=3))
        got = _window_cube(inst, q, cvals)
        want = np.array(sqc_values(inst, q, cube)).reshape(got.shape)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
        for c, s in zip(self.SAMPLE, _S_sums(inst, q, self.SAMPLE), strict=True):
            assert abs(got[tuple(v + 3 for v in c)] - s.value) <= 1e-9 * max(1.0, abs(s.value)), c

    # (L, q_max, width) -> (qL, bytes) by hand: 40 bytes per residue of the
    # S2 table (modulus q2 L) plus 33 per point of the product on
    # min(qL, width)^3 points, at the q where the sum peaks
    PEAKS = {
        (1, 12, 12): (12, 40 * 4**3 + 33 * 12**3),                  # q = 12: q2 = 4
        (1, 203, 200): (200, 40 * 8**3 + 33 * 200**3),              # q = 200: q2 = 8
        (2, 99, 198): (198, 40 * 2**3 + 33 * 198**3),               # q = 99: q2 L = 2
        (2, 150, 200): (256, 40 * 256**3 + 33 * 200**3),            # q = 128: q2 L = 256
    }

    @pytest.mark.parametrize(
        "L, lam, q_max, width",
        [
            (1, (0, 0, 0), 12, 12),
            (1, (0, 0, 0), 203, 200),
            (2, (1, 0, 0), 99, 198),
            (2, (1, 0, 0), 150, 200),
        ],
    )
    def test_table_peak(self, L, lam, q_max, width):
        inst = make_instance(L=L, lam=lam)
        assert sqc_table_peak(inst, q_max, width) == self.PEAKS[L, q_max, width]
        assert sqc_table_peak(inst, 0, width) == (0, 0)

    @pytest.mark.parametrize(
        "kw, q, width",
        [(HYP625, 25, 41), (HYP625, 45, 41), (CONG, 24, 41), (HYP_M03, 42, 41)],
        ids=["residue-cube", "window-cube-v", "window-cube-L2", "window-cube-uvq2"],
    )
    def test_table_peak_bounds_traced(self, kw, q, width):
        # at the q <= q_max where the sized bytes peak (q_max itself, but
        # q = 44 for window-cube-v, whose q_max = 45 held the retired v
        # table), sqc_window's traced peak, less the returned window, stays
        # within them plus numpy's fixed buffers
        inst = make_instance(**kw)
        qL, sized = sqc_table_peak(inst, q, width)
        q = qL // inst.L
        cvals = np.arange(-(width // 2), width // 2 + 1)
        sqc_window(inst, q, cvals)  # warm the per-modulus caches
        tracemalloc.start()
        try:
            _, out = sqc_window(inst, q, cvals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - (out.nbytes if qL < width else 0) <= sized + 2**18


L3 = dict(L=3, lam=(1, 0, 0))                            # F(lam) = m0 N = 1 mod 3
SPHERE_P7_L5 = dict(coeffs=(1, 1, 1), p0=7, h=3, L=5, lam=(0, 0, 1), center=(3**-0.5,) * 3)
# F = 3 mod 8 on x = (1, 1, 1) mod 2, against m0 N = 1 mod 8: S_q(c) = 0
OBSTRUCTED = dict(coeffs=(1, 1, 1), L=2, lam=(1, 1, 1), center=(3**-0.5,) * 3)


class TestWindowSupport:
    """sqc_window's support against the definition-level table sqc_grid.
    On the cube arange(-4, 5)^3, at qL below its width (every residue
    reached, some twice) and at or above it (each c its own residue): every
    c left out of the rows has S_q(c) within rounding of 0, the rows are
    closed under c -> -c, and the sub-cube holds sqc_values' values.  The
    sub-cube's shape is pinned, so rows that the product's zeros would drop
    cannot silently stay.  On windows of width qL - 1, qL and qL + 1: the
    whole cube within 1e-9 of sqc_grid."""

    CVALS = np.arange(-4, 5)

    @pytest.mark.parametrize(
        "kw, q, shape",
        [
            (HYP625, 2, (4, 4, 4)),     # L = 1: odd c only
            (HYP625, 3, (9, 9, 9)),     # the whole window
            (HYP625, 12, (5, 5, 5)),    # qL = 12 > 9
            (CONG, 1, (5, 5, 5)),       # L = 2: even c only
            (CONG, 2, (3, 2, 2)),       # no c2 = 0 or c3 = 0 row
            (CONG, 4, (2, 3, 3)),       # no c1 = 0 row
            (CONG, 6, (3, 2, 2)),       # qL = 12 > 9
            (L3, 1, (9, 3, 3)),         # L = 3: c2, c3 = 0 mod 3
            (L3, 2, (4, 4, 4)),
            (L3, 3, (6, 3, 3)),         # qL = 9
            (SPHERE_P7_L5, 1, (9, 9, 9)),
            (SPHERE_P7_L5, 2, (4, 4, 4)),   # qL = 10 > 9
            (OBSTRUCTED, 1, None),
            (OBSTRUCTED, 2, None),
            (OBSTRUCTED, 6, None),      # qL = 12 > 9
        ],
        ids=["L1-2", "L1-3", "L1-12", "L2-1", "L2-2", "L2-4", "L2-6", "L3-1", "L3-2",
             "L3-3", "L5-1", "L5-2", "obstructed-1", "obstructed-2", "obstructed-6"],
    )
    def test_support_is_sound(self, kw, q, shape):
        inst = make_instance(**kw)
        cvals = self.CVALS
        r = cvals % (q * inst.L)
        want = sqc_grid(inst, q)[np.ix_(r, r, r)]
        rounding = 1e-12 * max(1.0, float(np.abs(want).max()))
        window = sqc_window(inst, q, cvals)
        if shape is None:
            assert window is None
            assert np.abs(want).max() <= rounding
            return
        rows, got = window
        assert got.shape == shape
        left_out = np.ones(want.shape, dtype=bool)
        left_out[np.ix_(*rows)] = False
        assert np.abs(want[left_out]).max(initial=0.0) <= rounding
        for row in rows:
            assert np.array_equal(np.sort(-cvals[row]), cvals[row])
        sub = [cvals[row].tolist() for row in rows]
        per_c = np.array(sqc_values(inst, q, list(itertools.product(*sub)))).reshape(shape)
        assert np.all(np.abs(got - per_c) <= 1e-9 * np.maximum(1.0, np.abs(per_c)))

    @pytest.mark.parametrize("step", [-1, 0, 1], ids=["qL-1", "qL", "qL+1"])
    @pytest.mark.parametrize("kw, q", [(HYP625, 6), (CONG, 3), (L3, 3)], ids=["L1-6", "L2-3", "L3-3"])
    def test_widths_about_qL(self, kw, q, step):
        # windows of width qL - 1, qL and qL + 1 reach all residues mod qL
        # but one, or all of them, some twice; an even width leaves out c = 0
        inst = make_instance(**kw)
        width = q * inst.L + step
        cvals = np.arange(-(width // 2), width // 2 + 1)
        if width % 2 == 0:
            cvals = cvals[cvals != 0]
        assert len(cvals) == width
        r = cvals % (q * inst.L)
        want = sqc_grid(inst, q)[np.ix_(r, r, r)]
        assert np.abs(want).max() > 1.0
        got = _window_cube(inst, q, cvals)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))

    def test_rows_on_a_strided_window(self, cong):
        # at q = 2, S_q(c) != 0 needs c1 = 0 and c2, c3 = 2 mod 4: the residue
        # table has live rows on every axis, but the window of c = 0 mod 4
        # meets none of its nonzero values
        cvals = np.arange(-8, 9, 4)
        r = cvals % 4
        assert np.abs(sqc_grid(cong, 2)).max() > 1.0
        assert np.abs(sqc_grid(cong, 2)[np.ix_(r, r, r)]).max() <= 1e-12
        assert sqc_window(cong, 2, cvals) is None

    def test_refuses_asymmetric_window(self, hyp):
        with pytest.raises(ValueError, match="symmetric about 0"):
            sqc_window(hyp, 2, np.arange(-3, 5))


class TestWindowRoute:
    """sqc_window against the definition-level sum, on a cube wider than qL
    (every residue reached, some twice) where qL <= 60, and on narrower
    cubes (each c its own residue).  The oracle is the whole table sqc_grid
    up to qL = 60; beyond, sqc_values on the whole cube
    and brute_S on c where that is nonzero and on one where it vanishes; most S_q(c) vanish at
    L = 2, so the cubes include one of even c only, and each test requires
    a nonzero value among those it checks."""

    @staticmethod
    def _check(inst, q, cvals) -> int:
        """Compare one cube; returns how many nonzero values it checked."""
        got = _window_cube(inst, q, cvals)
        qL = q * inst.L
        if qL <= 60:
            r = cvals % qL
            want = sqc_grid(inst, q)[np.ix_(r, r, r)]
            assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
            return int(np.count_nonzero(np.abs(want) > 1e-6))
        cube = list(itertools.product(cvals.tolist(), repeat=3))
        per_c = np.array(sqc_values(inst, q, cube)).reshape(got.shape)
        assert np.all(np.abs(got - per_c) <= 1e-9 * np.maximum(1.0, np.abs(per_c)))
        nonzero = np.argwhere(np.abs(per_c) > 1e-6)
        sample = [tuple(i) for i in nonzero[:: max(1, len(nonzero) // 4)][:4]]
        sample += [tuple(i) for i in np.argwhere(np.abs(per_c) <= 1e-6)[:1]]
        cs = [tuple(int(cvals[i]) for i in idx) for idx in sample]
        checked = 0
        for idx, c, s in zip(sample, cs, _S_sums(inst, q, cs), strict=True):
            assert abs(got[idx] - s.value) <= 1e-9 * max(1.0, abs(s.value)), c
            checked += abs(s.value) > 1e-6
        return checked

    CUBES = (np.arange(-4, 5), np.arange(-10, 11, 2))

    @FACTOR_CASES
    def test_matches_brute(self, kw, q, u, v, q2):
        inst = make_instance(**kw)
        _check_factors(inst, q, u, v, q2)
        qL = q * inst.L
        cubes = list(self.CUBES)
        if qL <= 60:
            cubes.append(np.arange(-(qL // 2) - 3, qL // 2 + 4))
            assert len(cubes[-1]) > qL
        assert sum(self._check(inst, q, cvals) for cvals in cubes) > 0

    @pytest.mark.parametrize(
        "kw, q, u, v, q2",
        [
            (HYP625, 205, 41, 5, 1),    # L = 1, qL = 205
            (CONG, 105, 21, 5, 1),      # L = 2, qL = 210
            (HYP_M03, 210, 7, 15, 2),   # m0 = 3
            (CROSS, 210, 5, 7, 6),      # the cross form, q2 = 6
        ],
        ids=["hyp625-205", "cong-105", "m03-210", "cross-210"],
    )
    def test_matches_brute_beyond_qL_200(self, kw, q, u, v, q2):
        inst = make_instance(**kw)
        _check_factors(inst, q, u, v, q2)
        assert q * inst.L > 200
        assert sum(self._check(inst, q, cvals) for cvals in self.CUBES) > 0

    @FACTOR_CASES
    def test_lemma21_array_equals_one_c(self, kw, q, u, v, q2):
        # on u, where Lemma 2.1 holds, the closed form evaluated on a cube is
        # the one-c root sum entry by entry, to 1e-12 u^{3/2}; that bound
        # holds where the root sum is exactly 0 (no root) too
        inst = make_instance(**kw)
        cvals = np.arange(-2, 3)
        got = _s1_values(inst, u, q // u, *np.ix_(cvals, cvals, cvals))
        for c in itertools.product(range(5), repeat=3):
            want = lemma21_eval(inst, u, q // u, [int(cvals[i]) for i in c]).value
            assert abs(got[c] - want) <= 1e-12 * u**1.5, c


def _amplitude_sum(form, q: int, L: int, scale: int, lam, target: int, c) -> ComplexSum:
    """The one-c residue-row sum the batch kernel replaced, written out: the
    oracle for `_amplitude_sums`."""
    rows = _amplitude_rows(form, q, L, scale, lam, target)
    size = q * L
    c = tuple(int(v) % size for v in c)
    tab = _exp_table(size)
    ph2 = tab[(c[1] * np.arange(size)) % size]
    ph3 = tab[(c[2] * np.arange(size)) % size]
    total = 0j
    for s1, amp in enumerate(rows):
        total += tab[(c[0] * s1) % size] * _sum_masked_phase(amp, ph2, ph3)
    return ComplexSum(total)


class TestBatchedSums:
    """Every route through the batch kernel against the one-c oracle, `==` on
    the value: a value does not depend on the batch it is in."""

    # a repeated c, the zero frequency, negative entries and entries >= qL
    BATCH = [(1, 2, 0), (0, 0, 0), (-1, 3, -2), (1, 2, 0), (450, 1000, -777)]

    @pytest.mark.parametrize(
        "h, L, lam, q",
        [
            (2, 1, (0, 0, 0), 6),
            (2, 1, (0, 0, 0), 200),    # qL = 200: u = 1, v = 25, q2 = 8
            (2, 1, (0, 0, 0), 201),    # q1 = 201 prime to m0 N
            (2, 1, (0, 0, 0), 205),    # u = 41, v = 5
            (1, 2, (1, 0, 0), 3),
            (1, 2, (1, 0, 0), 100),    # qL = 200
            (1, 2, (1, 0, 0), 101),    # qL = 202, q1 = 101 prime to m0 N
            (1, 2, (1, 0, 0), 105),    # qL = 210, u = 21, v = 5
        ],
    )
    def test_matches_one_c_oracle(self, h, L, lam, q):
        inst = make_instance(h=h, L=L, lam=lam)
        form, lam_N, mN = inst.form, inst.lam_N, inst.mN
        q1, q2 = crt_split(inst, q)
        for c, got in zip(self.BATCH, sqc_values(inst, q, self.BATCH), strict=True):
            s1 = _amplitude_sum(form, q1, 1, q2 * L * L, lam_N, mN, c)
            s2 = _amplitude_sum(form, q2, L, L * q1, lam_N, mN, c)
            assert brute_S1(inst, q1, q2, c) == s1, c
            assert brute_S2(inst, q1, q2, c) == s2, c
            if q * L <= 200:  # the whole sum costs (qL)^3 per c
                whole = _amplitude_sum(form, q, L, L, lam_N, mN, c)
                assert brute_S(inst, q, c) == whole, c
            # sqc_values' route: S1 in closed form at c alone, times S2
            (closed,) = _s1_values(inst, q1, q2, *([v] for v in c))
            assert got == complex(closed) * s2.value, c
            assert type(got) is complex  # the CSV writes its repr

    def test_empty_batch(self, hyp):
        assert sqc_values(hyp, 7, []) == []
        assert sqc_values(hyp, 201, []) == []


class TestLemma21:
    def test_matches_brute_spot(self, hyp):
        for q1 in (3, 7, 11):
            for q2 in (1, 2, 4):
                for c in ((0, 0, 0), (1, -1, 2), (2, 2, 1)):
                    le = lemma21_eval(hyp, q1, q2, c).value
                    br = brute_S1(hyp, q1, q2, c).value
                    assert abs(le - br) <= 1e-6 * q1 * q1, (q1, q2, c)

    def test_matches_brute_nontrivial_lambda(self, cong):
        for q1 in (3, 7, 9):
            for c in ((0, 0, 0), (1, 0, 2)):
                le = lemma21_eval(cong, q1, 2, c).value
                br = brute_S1(cong, q1, 2, c).value
                assert abs(le - br) <= 1e-6 * q1 * q1, (q1, c)

    def test_requires_coprimality(self, hyp):
        with pytest.raises(ValueError):
            brute_S1(hyp, 6, 2, (0, 0, 0))  # q1 not coprime to Omega


SPHERE2401 = dict(coeffs=(1, 1, 1), p0=7, h=2, center=(0.577, 0.577, 0.577))  # Omega = 2


class TestS1ClosedForm:
    """_s1_values, the closed form of S1 at every odd q1, against the
    definition-level S1 on the whole residue cube c mod q1, at q1 whose
    primes divide m0 N (alone, to powers 1..3, and mixed with primes that
    do not), and against Lemma 2.1 where q1 is prime to m0 N."""

    @pytest.mark.parametrize(
        "kw, q1, q2",
        [
            (HYP625, 5, 1), (HYP625, 25, 2), (HYP625, 125, 4),
            (HYP_M03, 3, 2), (HYP_M03, 9, 1), (HYP_M03, 27, 4),
            (CROSS, 7, 2), (CROSS, 49, 1),
            (HYP_M03, 15, 4),                   # 3 | m0 and 5 | N
            (HYP_M03, 105, 2),                  # 3 * 5 * 7: 7 prime to m0 N
            (CONG, 5, 2), (CONG, 25, 4),        # L = 2, lam_N != 0
            (CONG, 15, 1), (CONG, 75, 2),
        ],
    )
    def test_matches_brute_grid(self, kw, q1, q2):
        inst = make_instance(**kw)
        assert q1 % 2 == 1 and smooth_part(q1, inst.mN) > 1
        r = np.arange(q1)
        got = _s1_values(inst, q1, q2, *np.ix_(r, r, r))
        want = brute_S1_grid(inst, q1, q2)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))
        # the grid itself is the definition-level sum
        for c in ((0, 0, 0), (1, 2, -1), (4, 0, 1)):
            assert abs(want[tuple(v % q1 for v in c)] - brute_S1(inst, q1, q2, c).value) < 1e-8

    @pytest.mark.parametrize(
        "kw, q1, q2",
        [
            ({}, 3, 1), ({}, 21, 4), ({}, 33, 2),
            (HYP625, 201, 1),
            (CONG, 7, 1), (CONG, 9, 2), (CONG, 101, 1),   # L = 2, lam_N != 0
            (CROSS, 5, 2), (CROSS, 55, 3),
        ],
    )
    def test_matches_lemma21(self, kw, q1, q2):
        # Lemma 2.1's root sum is exactly 0 where m0 N det F*(c) is no square
        # mod q1: the closed form is then within the same bound of 0
        inst = make_instance(**kw)
        assert math.gcd(q1, inst.mN) == 1
        cvals = np.arange(-3, 4)
        got = _s1_values(inst, q1, q2, *np.ix_(cvals, cvals, cvals))
        zeros = 0
        for idx in itertools.product(range(7), repeat=3):
            want = lemma21_eval(inst, q1, q2, [int(cvals[i]) for i in idx])
            assert abs(got[idx] - want.value) <= 1e-12 * q1**1.5, idx
            zeros += want.value == 0
        assert zeros > 0

    def test_sphere_2401(self):
        # N = 7^4: S1 at q1 = 49 and 343 from a length-q1 table, no q1^3 one;
        # the largest table up to q = 358 is S2's at q2 L = 256
        inst = make_instance(**SPHERE2401)
        assert sqc_table_peak(inst, 358, 25) == (256, 40 * 256**3 + 33 * 25**3)
        cs = [(0, 0, 0), (1, -2, 3), (5, 4, -1)]
        for q in (49, 343):
            q1, q2 = crt_split(inst, q)
            assert (q1, q2) == (q, 1)
            for c, got in zip(cs, sqc_values(inst, q, cs), strict=True):
                want = brute_S1(inst, q1, q2, c).value * brute_S2(inst, q1, q2, c).value
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (q, c)


class TestCharacterDecomposition:
    def test_scs_identity(self, hyp):
        # S2 with coprime companion x equals the x-twisted complete sum
        for q1, q2 in ((3, 4), (7, 8), (11, 2)):
            for c in ((0, 0, 0), (1, 1, 0)):
                s2 = brute_S2(hyp, q1, q2, c).value
                cs = calS(hyp, q2, q1, c).value
                assert abs(s2 - cs) < 1e-8

    def test_orthogonality_reconstruction(self, hyp):
        for l in (3, 4, 5):
            chars = characters_mod(l * hyp.L**2)
            for x in (1, 2):
                if math.gcd(x, l) != 1:
                    continue
                for c in ((1, 1, 0), (0, 2, 1)):
                    lhs = calS(hyp, l, x, c).value
                    rhs = sum(ch(x) * calA(hyp, l, ch, c).value for ch in chars)
                    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))

    def test_cone_factor_trivial_when_p0_absent(self, hyp):
        # q2 with no p0 part: the cone factor is 1 and calT2 carries everything
        q2 = 4
        for x in (1, 3):
            t1 = calT1(hyp, q2, x, (1, 0, 0)).value
            assert abs(t1 - 1.0) < 1e-12

    def test_t1_t2_product(self):
        # p0 = 5 divides q2 = 5: the complete sum factors into cone x rest
        inst = make_instance(coeffs=(1, 1, 1), center=(0.577, 0.577, 0.577))
        q2 = 5
        for x in (1, 2, 3, 4):
            for c in ((0, 0, 0), (1, 2, 0)):
                t1 = calT1(inst, q2, x, c).value
                t2 = calT2(inst, q2, 1, c).value
                cs = calS(inst, q2, x, c).value
                assert abs(t1 * t2 - cs) < 1e-8, (x, c)


# the cross form under x = (0, 0, 1) mod 2, where the lam-phase is not 1
CROSS_L2 = dict(CROSS, L=2, lam=(0, 0, 1))


class TestLocusSums:
    """calS and calT2 against their definition-level loops on small moduli:
    each sum over beta = L sigma + lam is the residue amplitude at modulus
    lL times the phase e_{lL^2}(k.lam), k = xbar c.  At L > 1 the frequencies
    include some where that phase is not 1 and the sum is not 0."""

    CS = ((0, 0, 0), (1, 2, 0), (2, 0, 0), (-2, 2, -2), (-3, 3, 3), (-2, -3, 0))

    def _check(self, inst, mod, got, literal) -> None:
        checked = 0
        for x in [x for x in (1, 2, 5, 7) if math.gcd(x, mod) == 1][:2]:
            for c in self.CS:
                want = literal(x, c)
                assert abs(got(x, c).value - want) <= 1e-9 * max(1.0, abs(want)), (x, c)
                checked += abs(want) > 1e-6
        assert checked > 0

    @pytest.mark.parametrize(
        "kw, l",
        [({}, 1), ({}, 4), ({}, 6), (CONG, 1), (CONG, 3), (CONG, 4), (L3, 1), (L3, 2), (L3, 3),
         (CROSS, 5), (CROSS_L2, 1), (CROSS_L2, 5)],
        ids=["hyp-1", "hyp-4", "hyp-6", "cong-1", "cong-3", "cong-4", "L3-1", "L3-2", "L3-3",
             "cross-5", "crossL2-1", "crossL2-5"],
    )
    def test_calS_matches_literal(self, kw, l):
        inst = make_instance(**kw)
        self._check(inst, l * inst.L**2, lambda x, c: calS(inst, l, x, c),
                    lambda x, c: calS_literal(inst, l, x, c))

    @pytest.mark.parametrize(
        "kw, q2",
        [({}, 4), ({}, 10), ({}, 12), (CONG, 3), (CONG, 4), (CONG, 5), (L3, 2), (L3, 4),
         (CROSS, 5), (CROSS_L2, 3), (CROSS_L2, 7)],
        ids=["hyp-4", "hyp-10", "hyp-12", "cong-3", "cong-4", "cong-5", "L3-2", "L3-4",
             "cross-5", "crossL2-3", "crossL2-7"],
    )
    def test_calT2_matches_literal(self, kw, q2):
        inst = make_instance(**kw)
        nat = q2 // smooth_part(q2, inst.p0)
        self._check(inst, nat * inst.L**2, lambda x, c: calT2(inst, q2, x, c),
                    lambda x, c: calT2_literal(inst, q2, x, c))


    def test_walk_over_l_holds_one_table(self):
        # every caller walks l in its outer loop, so one cached (lL)^3 table
        # serves it: after l = 1..40 the traced memory still held is below
        # the two largest tables (the l = 40 table alone is 1.0 MB; a cache
        # of 64 would hold all 40, 10.8 MB)
        inst = make_instance()
        _cal_grid.cache_clear()
        tracemalloc.start()
        try:
            for l in range(1, 41):
                calS(inst, l, 1, (1, 2, 0))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert 16 * 40**3 <= held < 16 * (40**3 + 39**3), held


class TestBounds:
    def test_brute_rejects_large_modulus(self, hyp):
        with pytest.raises(ValueError, match="bound"):
            brute_S(hyp, 10**5, (0, 0, 0))

    def test_literal_rejects_large_modulus(self, hyp):
        with pytest.raises(ValueError):
            brute_S_literal(hyp, 50, (0, 0, 0))
