"""Enumeration, truncated expansion bookkeeping, predictions, residuals."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from qdelta import arch, pipeline
from qdelta.arch import (
    DeltaKernel,
    QuadratureSpec,
    WeightSpec,
    _amplitude_grid,
    _trapezoid_box,
    form_range,
)
from qdelta.expsums import sqc_grid, sqc_table_peak, sqc_window
from qdelta.pipeline import (
    PredictionReport,
    _admissible_axis,
    _square_root,
    _solutions_sliced,
    default_c_max,
    default_kernel,
    enumerate_gamma,
    extract_secondary,
    max_gradient,
    poisson_rhs,
    predict_main,
)
from qdelta.qform import CongruenceDatum, ProblemInstance, QForm, _classify_array

from conftest import amplitude_oracle, make_instance


_CONGRUENCE = dict(L=2, lam=(1, 0, 0))
_CROSS = dict(coeffs=(2, 3, 1, 2, 0, 2), m0=3, p0=7, L=2, lam=(0, 1, 0), center=(0.5, 0.4, 0.3))


def _unit_sphere() -> ProblemInstance:
    # x^2 + y^2 + z^2 = 1 (h = 0) in a ball around the origin
    w = WeightSpec(center=(0.0, 0.0, 0.0), radius=1.5)
    return ProblemInstance(QForm.diagonal(1, 1, 1), 1, 5, 0, CongruenceDatum(1, (0, 0, 0)), w)


def _pair_loop(instance) -> np.ndarray:
    """The per-pair loop the sliced kernel replaced, one math.isqrt per
    congruence-admissible (x1, x2): the written-out oracle for the kernel.
    Both x3 roots of a pair come out in ascending order."""
    a11, a22, a33, a12, a13, a23 = instance.form.coefficients()
    lo, hi = instance.weight.support_box()
    s, L, lam, mN = instance.sqrtN, instance.L, instance.lam_N, instance.mN

    def axis_range(i: int):
        start = math.ceil(lo[i] * s)
        start += (lam[i] - start) % L
        return range(start, math.floor(hi[i] * s) + 1, L)

    lo3, hi3 = math.ceil(lo[2] * s), math.floor(hi[2] * s)
    pts = []
    for x1 in axis_range(0):
        for x2 in axis_range(1):
            bb = a13 * x1 + a23 * x2
            cc = a11 * x1 * x1 + a22 * x2 * x2 + a12 * x1 * x2 - mN
            disc = bb * bb - 4 * a33 * cc
            if disc < 0:
                continue
            r = math.isqrt(disc)
            if r * r != disc:
                continue
            x3s = [num // (2 * a33) for num in {-bb + r, -bb - r} if num % (2 * a33) == 0]
            pts += [(x1, x2, x3) for x3 in sorted(x3s) if (x3 - lam[2]) % L == 0 and lo3 <= x3 <= hi3]
    return np.array(pts, dtype=np.int64).reshape(-1, 3)


def _solutions_triple(instance: ProblemInstance) -> np.ndarray:
    """Full triple loop over the support box, for small N only: the
    independent oracle of the sliced kernel."""
    form = instance.form
    lo, hi = instance.weight.support_box()
    s, L, lam, mN = instance.sqrtN, instance.L, instance.lam_N, instance.mN
    if instance.N > 100 * L**2:
        raise ValueError("triple-loop oracle reserved for small N")
    ax1, ax2, ax3 = (_admissible_axis(lo[i], hi[i], lam[i], L, s).tolist() for i in range(3))
    pts = [(x1, x2, x3) for x1 in ax1 for x2 in ax2 for x3 in ax3 if form((x1, x2, x3)) == mN]
    return np.array(pts, dtype=np.int64).reshape(-1, 3)


def _triple_count(instance: ProblemInstance) -> tuple[float, int]:
    """(weighted, raw) count over the triple loop's points."""
    pts = _solutions_triple(instance)
    values = instance.weight.values(*(pts.T / instance.sqrtN))
    values = values[values > 0.0]
    return math.fsum(values), int(values.size)


_SPHERE = dict(coeffs=(1, 1, 1), center=(1 / 3**0.5,) * 3)
_SPHERE_P7_L5 = dict(p0=7, h=3, L=5, lam=(0, 0, 1), **_SPHERE)
_OBSTRUCTED = dict(L=2, lam=(1, 1, 1), **_SPHERE)
# name -> instance; the cross form at h = 1..3, the hyperboloid (a33 < 0)
# on one sheet and across z = 0 (both x3 roots of a pair in the box), the
# p0 = 7 sphere, with x3 = 1 mod 5 (x3 = -1 mod 5 also solves F mod 5),
# the obstructed instance (no points) and N = 1; with a33 = 3 a square
# discriminant can give a root with denominator 3
_ORACLE_CASES = {
    **{f"cross-h{h}": lambda h=h: make_instance(h=h, **_CROSS) for h in (1, 2, 3)},
    "a33-3": lambda: make_instance(coeffs=(1, 1, 3, 0, 2, 0), h=3, center=(0.5, 0.5, 0.3)),
    "hyperboloid-h3": lambda: make_instance(h=3),
    "hyperboloid-z0": lambda: make_instance(h=3, center=(1.0, 0.1, 0.0)),
    "sphere-p7-L5": lambda: make_instance(**_SPHERE_P7_L5),
    "sphere-p7-h3": lambda: make_instance(p0=7, h=3, **_SPHERE),
    "obstructed": lambda: make_instance(**_OBSTRUCTED),
    "unit-sphere": _unit_sphere,
}


class TestEnumeration:
    def test_r3_of_one(self):
        # unit sphere, N = 1 (h = 0): exactly the 6 signed unit vectors
        res = enumerate_gamma(_unit_sphere())
        assert res.raw_count == 6

    def test_congruence_filter(self):
        # only x = (1,0,0) mod 2 survives on the unit sphere
        w = WeightSpec(center=(0.0, 0.0, 0.0), radius=1.5)
        inst = ProblemInstance(
            QForm.diagonal(1, 1, 1), 1, 5, 0, CongruenceDatum(2, (1, 0, 0)), w
        )
        res = enumerate_gamma(inst)
        assert res.raw_count == 2  # (1,0,0) and (-1,0,0)

    def test_weight_off_variety_counts_nothing(self):
        inst = make_instance(center=(4.0, 0.3, 0.3), radius=0.3)
        assert enumerate_gamma(inst).raw_count == 0

    def test_strategies_agree(self, hyp_instance, cong_instance):
        # the sliced kernel against the triple-loop oracle
        for inst in (hyp_instance, cong_instance):
            res = enumerate_gamma(inst)
            assert (res.weighted, res.raw_count) == _triple_count(inst)

    def test_box_bound(self):
        inst = make_instance(h=12)  # sqrt(N) = 5^12 far beyond the box bound
        with pytest.raises(ValueError, match="bound"):
            enumerate_gamma(inst)

    @pytest.mark.parametrize("name", list(_ORACLE_CASES))
    def test_kernel_matches_pair_loop(self, name):
        inst = _ORACLE_CASES[name]()
        pts = _solutions_sliced(inst)
        assert pts.dtype == np.int64
        assert np.array_equal(pts, _pair_loop(inst))

    @pytest.mark.parametrize("name", ["cross-h2", "hyperboloid-h3", "sphere-p7-h3", "unit-sphere"])
    def test_kernel_block_boundaries(self, name, monkeypatch):
        # 7 pairs per block: partial blocks, and x2 axes wider than a block
        inst = _ORACLE_CASES[name]()
        ref = _solutions_sliced(inst)
        monkeypatch.setattr(pipeline, "_BLOCK_PAIRS", 7)
        assert np.array_equal(_solutions_sliced(inst), ref)

    @pytest.mark.parametrize("name", ["cross-h3", "hyperboloid-h3", "sphere-p7-h3"])
    def test_weighted_is_per_point_fsum(self, name):
        inst = _ORACLE_CASES[name]()
        res = enumerate_gamma(inst)
        vals = [inst.weight(np.asarray(x, dtype=np.float64) / inst.sqrtN) for x in _pair_loop(inst)]
        assert res.weighted == math.fsum(vals)
        assert res.raw_count == sum(v > 0.0 for v in vals)

    def test_isqrt_fixup_exact(self):
        # the rounded root is exact on every perfect square below 2^62, and
        # its square misses every other d
        def is_square(v):
            return math.isqrt(v) ** 2 == v

        for r in (2**26, 2**26 + 1, 2**30 - 1, 2**30, 2**31 - 1):
            d = np.array([r * r - 1, r * r, r * r + 1, 2**62 - 1], dtype=np.int64)
            root = _square_root(d)
            assert root[1] == r
            assert (root * root == d).tolist() == [is_square(int(v)) for v in d]
        d = np.arange(0, 10**5, dtype=np.int64)
        root = _square_root(d)
        assert (root * root == d).tolist() == [is_square(v) for v in range(10**5)]
        assert all(root[v * v] == v for v in range(317))

    def test_kernel_just_under_disc_bound(self):
        # a cross form, N = 1, and a box around a solution x0 far out: the
        # termwise bound on |disc| sits just under 2^62, and every int64
        # partial sum of disc = P1 + P2 + K x2 must still be exact
        form = QForm(3, 5, 7, 2, 4, -6)
        a11, a22, a33, a12, a13, a23 = form.coefficients()

        def setup(t: int):
            x0 = (t, t // 2 + 1, -t // 3)
            m0 = form(x0)
            X1, X2 = t + 2, t // 2 + 3  # the outermost integers at radius 2.5
            bound = (abs(a13) * X1 + abs(a23) * X2) ** 2 + 4 * abs(a33) * (
                abs(a11) * X1 * X1 + abs(a22) * X2 * X2 + abs(a12) * X1 * X2 + abs(m0))
            return x0, m0, bound

        lo, hi = 1, 2**31
        while hi - lo > 1:  # the largest t whose bound is below 2^62
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if setup(mid)[2] < pipeline._DISC_BOUND else (lo, mid)
        x0, m0, bound = setup(lo)
        assert pipeline._DISC_BOUND * (1 - 1e-7) < bound < pipeline._DISC_BOUND
        weight = WeightSpec(center=tuple(float(v) for v in x0), radius=2.5)
        inst = ProblemInstance(form, m0, 5, 0, CongruenceDatum(1, (0, 0, 0)), weight)
        pts = _solutions_sliced(inst)
        assert list(x0) in pts.tolist()
        assert np.array_equal(pts, _pair_loop(inst))
        # one step further out, the preflight refuses the box
        x0, m0, _ = setup(lo + 1)
        weight = WeightSpec(center=tuple(float(v) for v in x0), radius=2.5)
        inst = ProblemInstance(form, m0, 5, 0, CongruenceDatum(1, (0, 0, 0)), weight)
        with pytest.raises(OverflowError, match="2\\^62"):
            _solutions_sliced(inst)

    def test_discriminant_overflow_preflight(self):
        # inside the per-axis box bound, but 4 a33 a11 x1^2 is far beyond 2^62
        inst = make_instance(coeffs=(10**6, 10**6, 10**6), h=5)
        with pytest.raises(OverflowError, match="2\\^62"):
            enumerate_gamma(inst)

    # a33 = 0: the kernel solves along x2 (x^2 + y^2 + 2xz) or x1 (x^2 + 2yz)
    @pytest.mark.parametrize(
        "coeffs, center",
        [((1, 1, 0, 0, 2, 0), (0.6, 0.8, 0.0)), ((1, 0, 0, 0, 0, 2), (0.6, 0.4, 0.8))],
        ids=["solve-x2", "solve-x1"],
    )
    def test_zero_x3_square_coefficient(self, coeffs, center):
        inst = make_instance(coeffs=coeffs, center=center)
        pts = _solutions_sliced(inst)
        assert len(pts) > 0
        assert np.array_equal(pts, _solutions_triple(inst))
        res = enumerate_gamma(inst)
        assert (res.weighted, res.raw_count) == _triple_count(inst)

    def test_no_square_coefficient(self):
        inst = make_instance(coeffs=(0, 0, 0, 2, 2, 2), center=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="a11 = a22 = a33 = 0"):
            enumerate_gamma(inst)


class TestExpansionBookkeeping:
    def test_parts_sum_to_total(self, hyp_instance):
        exp = poisson_rhs(hyp_instance, c_max=3)
        assert exp.total == exp.zero_part + exp.exceptional_part + exp.ordinary_part

    def test_imaginary_part_negligible(self, hyp_instance):
        exp = poisson_rhs(hyp_instance, c_max=3)
        assert abs(exp.total.imag) < 1e-10

    def test_kernel_floor(self, cong_instance):
        # geometric scale sqrt(N)/L = 2.5 is floored for calibration
        assert default_kernel(cong_instance).Q == 5.0
        assert default_kernel(make_instance(h=3)).Q == 125.0

    def test_default_window_tracks_gradient(self, hyp_instance, cong_instance):
        g = max_gradient(hyp_instance)
        assert default_c_max(hyp_instance) == math.ceil(5.0 * g)
        assert default_c_max(cong_instance) == math.ceil(5.0 * 2 * g)

    def test_window_classifier_overflow(self):
        # m0 det F*(30, 30, 30) = 2.7e19 > 2^63: an int64 window classifier
        # would wrap (1392 of the 61^3 c misclassified) instead of refusing
        inst = make_instance(coeffs=(1000, 1000, 1000), m0=10, p0=7)
        with pytest.raises(OverflowError, match="int64 classifier"):
            poisson_rhs(inst, q_max=1, c_max=30)

    def test_plan_refuses_classifier_range(self, monkeypatch):
        # the instance above: m0 det * sum|F* coefficients| = 3e16, so
        # |c|_inf <= 12 is inside the range and 13 is not.  The plan refuses
        # the window before any S_q(c) or amplitude is evaluated
        inst = make_instance(coeffs=(1000, 1000, 1000), m0=10, p0=7)
        with pytest.raises(OverflowError, match="int64 classifier"):
            pipeline.expansion_plan(inst, q_max=1, c_max=30)
        with pytest.raises(OverflowError, match="int64 classifier"):
            pipeline.expansion_plan(inst, q_max=1, c_max=13)
        assert pipeline.expansion_plan(inst, q_max=1, c_max=12)[2] == 12

        def unreached(*args, **kwargs):
            raise AssertionError("evaluated before the range refusal")

        monkeypatch.setattr(pipeline, "sqc_window", unreached)
        monkeypatch.setattr(pipeline, "_amplitude_grid", unreached)
        with pytest.raises(OverflowError, match="int64 classifier"):
            poisson_rhs(inst, q_max=1, c_max=30)

    def test_no_window_array_without_support(self):
        # S_q(c) of the obstructed sphere is 0 at every q, so no array spans
        # the 121^3 window; classifying it would hold 8-byte arrays of 14 MiB
        inst = make_instance(**_OBSTRUCTED)
        tracemalloc.start()
        try:
            exp = poisson_rhs(inst, c_max=60, quad=QuadratureSpec(max_nodes=24))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exp.n_terms == 0
        assert peak < 2**21

    def test_classifies_each_sub_cube(self, cong_instance, monkeypatch):
        # each q with terms classifies the sub-cube of its support, and
        # nothing else is classified
        calls = []

        def spy(instance, *c):
            calls.append(c)
            return _classify_array(instance, *c)

        monkeypatch.setattr(pipeline, "_classify_array", spy)
        exp = poisson_rhs(cong_instance, quad=QuadratureSpec(max_nodes=128))
        cvals = np.arange(-exp.c_max, exp.c_max + 1)
        live = [q for q, terms in enumerate(exp.terms_per_q, 1) if terms]
        assert len(calls) == len(live) > 1
        for q, c in zip(live, calls):
            rows = sqc_window(cong_instance, q, cvals)[0]
            assert np.broadcast_shapes(*(x.shape for x in c)) == tuple(map(len, rows))
            assert all(np.array_equal(x.ravel(), cvals[r]) for x, r in zip(c, rows))
        assert sum(math.prod(np.broadcast_shapes(*(x.shape for x in c))) for c in calls) == exp.n_terms
        assert max(exp.terms_per_q) < cvals.size**3

    @pytest.mark.parametrize("q_max, c_max", [(0, 3), (-3, 3), (2, -1)])
    def test_plan_refuses_empty_window(self, hyp_instance, q_max, c_max):
        with pytest.raises(ValueError, match="q_max >= 1 and c_max >= 0"):
            pipeline.expansion_plan(hyp_instance, q_max=q_max, c_max=c_max)

    def test_preflight_counts_residue_table(self, monkeypatch):
        # hyperboloid h = 3 up to q = 256 at c_max = 1, 24 nodes: amplitude
        # slabs, contraction and window take under 2 MiB, while the S2 factor
        # table of modulus q2 = 256 peaks at 40 * 256^3 bytes = 671 MB.  A
        # 128 MiB budget passes the former alone and must refuse the sum
        # before any allocation; up to q = 203 the largest table (q2 = 128)
        # fits
        inst = make_instance(h=3)
        quad = QuadratureSpec(max_nodes=24)
        n = max(pipeline.expansion_plan(inst, q_max=256, c_max=1, quad=quad)[3])
        # one slab of n^3 points; the c3 >= 0 half window has c_max + 1 = 2
        # planes of m = 3 frequencies, and the contraction holds n^2 and n m
        # of them, then n m and m^2
        assert n**3 <= arch._SLAB_POINTS
        rest = pipeline._SLAB_BYTES * n**3 + 16 * 2 * (n + 3) * n + pipeline._WINDOW_BYTES * 27
        assert rest < 2**21
        assert sqc_table_peak(inst, 256, 3) == (256, 40 * 256**3 + 33 * 27)
        assert sqc_table_peak(inst, 203, 3)[1] < 2**27 - 2**21
        monkeypatch.setattr(pipeline, "_MEMORY_BUDGET", 2**27)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="residue table at qL = 256"):
                poisson_rhs(inst, q_max=256, c_max=1, quad=quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("kwargs", [_CONGRUENCE, _CROSS], ids=["congruence", "cross"])
    def test_preflight_bounds_traced_peak(self, monkeypatch, kwargs):
        # the preflight's estimate is an upper bound of what poisson_rhs
        # really allocates: a budget one byte below the traced peak refuses
        inst = make_instance(**kwargs)
        quad = QuadratureSpec(max_nodes=96)
        tracemalloc.start()
        try:
            poisson_rhs(inst, quad=quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(pipeline, "_MEMORY_BUDGET", peak - 1)
        with pytest.raises(ValueError, match="over the"):
            pipeline.expansion_plan(inst, quad=quad)

    def test_node_cap_reported(self, cong_instance):
        exp = poisson_rhs(cong_instance, q_max=4, quad=QuadratureSpec(max_nodes=48))
        assert len(exp.nodes) == 4
        assert exp.capped_q[0] == 1
        assert all(exp.nodes[q - 1] == 48 for q in exp.capped_q)



def _tensordot_chain(instance, q_max, c_max, quad):
    """The expansion as a tensordot, two einsums and a flat window phase
    e_{qL^2}(c.lam), on poisson_rhs's trapezoid grids and node rule: the
    written-out reference for its GEMM chain."""
    kernel = default_kernel(instance)
    yscale = (float(instance.Q) / kernel.Q) ** 2
    L, lam = instance.L, instance.lam_N
    cvals = np.arange(-c_max, c_max + 1)
    C1, C2, C3 = (g.ravel() for g in np.meshgrid(cvals, cvals, cvals, indexing="ij"))
    type_i, type_ii = _classify_array(instance, C1, C2, C3)
    nonzero = (C1 != 0) | (C2 != 0) | (C3 != 0)
    exc = nonzero & (type_i | type_ii)
    masks = {"zero_part": ~nonzero, "exceptional_part": exc, "ordinary_part": nonzero & ~exc}
    shell = np.maximum(np.abs(C1), np.maximum(np.abs(C2), np.abs(C3))) == c_max
    sums = dict.fromkeys([*masks, "shell_mass"], 0.0)
    for q in range(1, q_max + 1):
        rk, rp = q / kernel.Q, q / float(instance.Q)
        nodes = quad.trapezoid_nodes_for(
            2.0 * instance.weight.radius * c_max / (L * rp), 2.0 * yscale * form_range(instance) / rk
        )
        axes, wts, amp = amplitude_oracle(instance, kernel, rk, (nodes,) * 3, yscale, _trapezoid_box)
        qL, qL2 = q * L, q * L * L
        S = sqc_grid(instance, q)[C1 % qL, C2 % qL, C3 % qL]
        P = [np.exp(-2j * np.pi * np.outer(cvals / L, axes[i]) / rp) * wts[i] for i in range(3)]
        t1 = np.tensordot(P[0], amp, axes=(1, 0))
        t2 = np.einsum("bj,ajk->abk", P[1], t1)
        integrals = np.einsum("ck,abk->abc", P[2], t2).ravel()
        phase = np.exp(2j * np.pi * ((C1 * lam[0] + C2 * lam[1] + C3 * lam[2]) % qL2) / qL2)
        terms = yscale * instance.sqrtN / L * S * phase * integrals / qL**3
        for name, mask in masks.items():
            sums[name] += terms[mask].sum()
        sums["shell_mass"] += np.abs(terms[shell]).sum()
    return sums


class TestWindowContraction:
    def test_matches_einsum_oracle(self):
        # random complex factors of unequal shapes, on the trapezoid grid of
        # the expansion: the streamed contraction against one einsum over
        # the whole amplitude
        rng = np.random.default_rng(7)
        inst = make_instance(**_CROSS)
        kernel = DeltaKernel(Q=5.0)
        n, m = (9, 7, 11), (5, 8, 6)
        P = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in zip(m, n)]
        got = _amplitude_grid(inst, kernel, 0.4, n, lambda axes, wts: P, 0.8, box=_trapezoid_box)
        amp = amplitude_oracle(inst, kernel, 0.4, n, 0.8, _trapezoid_box)[2]
        ref = np.einsum("ai,bj,ck,ijk->abc", *P, amp, optimize=False)
        assert np.count_nonzero(amp) > 50
        assert got.shape == m
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    # the congruence instance is invariant under (x2, x3) -> (-x2, -x3), which
    # hides a c1 < 0 mirror that fails to reverse the c2 and c3 axes; the xy
    # term of the cross form breaks that symmetry.  At L = 3 and L = 5 the
    # support of S_q(c) keeps other rows than at L = 2; on the obstructed
    # sphere it is empty at every q
    @pytest.mark.parametrize(
        "kwargs, c_max",
        [
            (_CONGRUENCE, 0),
            (_CONGRUENCE, 1),
            (_CONGRUENCE, 4),
            (_CROSS, 4),
            (_OBSTRUCTED, 4),
            (dict(L=3, lam=(1, 0, 0)), 4),
            (_SPHERE_P7_L5, 4),
        ],
        ids=["congruence-0", "congruence-1", "congruence-4", "cross-4", "obstructed-4",
             "hyperboloid-L3-4", "sphere-p7-L5-4"],
    )
    def test_poisson_rhs_matches_tensordot_chain(self, kwargs, c_max):
        inst = make_instance(**kwargs)
        quad = QuadratureSpec(max_nodes=24)
        exp = poisson_rhs(inst, q_max=4, c_max=c_max, quad=quad)
        ref = _tensordot_chain(inst, 4, c_max, quad)
        for name, value in ref.items():
            assert abs(getattr(exp, name) - value) <= 1e-12 * max(1.0, abs(value)), name
        if kwargs is _OBSTRUCTED:
            assert exp.total == 0j and exp.n_terms == 0

    def test_mirror_without_c3_zero_row(self):
        # congruence-4 above reaches a q whose sub-cube has no c3 = 0 row, so
        # U(-c) = conj U(c) is mirrored there from the c3 > 0 rows alone
        inst = make_instance(**_CONGRUENCE)
        cvals = np.arange(-4, 5)
        rows = [sqc_window(inst, q, cvals)[0] for q in range(1, 5)]
        assert [4 in r[2] for r in rows] == [True, False, True, True]


class TestConvergence:
    # at the default window and nodes no q sits at the node cap, and doubling
    # the window moves the total by less than the identity's own 2% bound
    @pytest.mark.parametrize(
        "kwargs",
        [
            _CONGRUENCE,
            dict(coeffs=(1, 1, 1), L=2, lam=(1, 1, 1), center=(3**-0.5,) * 3),
            dict(coeffs=(1, 1, 1), center=(3**-0.5,) * 3),
        ],
        ids=["congruence", "obstructed", "sphere"],
    )
    def test_window_doubling(self, kwargs):
        inst = make_instance(**kwargs)
        count = enumerate_gamma(inst).weighted
        once = poisson_rhs(inst)
        assert once.capped_q == ()
        twice = poisson_rhs(inst, c_max=2 * once.c_max)
        assert abs(twice.total - once.total) <= 0.02 * max(count, math.sqrt(inst.N))


@pytest.fixture(scope="module")
def report() -> PredictionReport:
    return predict_main(make_instance(p0=3), h_values=(1, 2, 3))


class TestPredictions:
    def test_square_branch_prediction(self, report):
        assert report.square_disc
        assert set(report.predictions) == {"main_sqrtN_logsqrtN"}
        main = report.predictions["main_sqrtN_logsqrtN"]
        # sqrt(N) log sqrt(N) growth forced by the main term shape
        assert abs(main[1] / main[0] - 3 * 2) < 1e-9  # h: 1 -> 2 gives 3 * (2h/h)

    def test_nonsquare_dual_candidates(self):
        c = 1 / 3**0.5
        inst = make_instance(coeffs=(1, 1, 1), p0=5, center=(c, c, c))
        rep = predict_main(inst, h_values=(1, 2, 3))
        assert not rep.square_disc
        assert set(rep.predictions) == {"main_sqrtN", "main_sqrtN_lvalue"}
        assert rep.l_value == pytest.approx(math.pi / 4, abs=1e-8)

    def test_obstructed_prediction_zero(self):
        c = 1 / 3**0.5
        inst = make_instance(coeffs=(1, 1, 1), p0=5, L=2, lam=(1, 1, 1), center=(c, c, c))
        rep = predict_main(inst, h_values=(1, 2, 3))
        assert rep.series.obstructed_at == 2
        assert all(v == 0.0 for v in rep.predictions["main_sqrtN"])
        assert all(g == 0.0 for g in rep.gammas)

    def test_synthetic_constant_residual(self, report):
        # synthetic enumeration = main + 0.7 sqrt(N) must return residuals 0.7
        inst = make_instance(p0=3)
        main = report.predictions["main_sqrtN_logsqrtN"]
        synthetic = {
            h: m + 0.7 * 3**h for h, m in zip(report.h_values, main)
        }
        rep2 = predict_main(inst, h_values=report.h_values, enumerations=synthetic)
        res = rep2.residuals["main_sqrtN_logsqrtN"]
        assert all(abs(r - 0.7) < 1e-9 for r in res)

    def test_extract_secondary(self, report):
        sec = extract_secondary(report)
        assert sec["candidate"] == "main_sqrtN_logsqrtN"
        assert len(sec["residuals"]) == 3
        assert len(sec["consecutive_drifts"]) == 2
        assert sec["max_abs_residual"] >= max(abs(r) for r in sec["residuals"]) - 1e-15

    def test_extract_secondary_needs_three(self):
        inst = make_instance(p0=3)
        rep = predict_main(inst, h_values=(1, 2, 3))
        short = PredictionReport(
            instance_echo=rep.instance_echo,
            square_disc=rep.square_disc,
            singular_integral=rep.singular_integral,
            singular_integral_error=rep.singular_integral_error,
            singular_evidence=rep.singular_evidence,
            series=rep.series,
            l_value=rep.l_value,
            h_values=rep.h_values[:2],
            gammas=rep.gammas[:2],
            predictions={k: v[:2] for k, v in rep.predictions.items()},
            residuals={k: v[:2] for k, v in rep.residuals.items()},
        )
        with pytest.raises(ValueError):
            extract_secondary(short)
