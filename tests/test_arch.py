"""Weights, smoothed delta kernel, oscillatory and singular integrals."""

from __future__ import annotations

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from qdelta import arch
from qdelta.arch import (
    DeltaKernel,
    QuadratureSpec,
    WeightSpec,
    _amplitude_grid,
    _axis_factors,
    _gl_axis,
    _gl_box,
    _mollified,
    _trapezoid_box,
    coarea_integral,
    delta_symbol,
    form_range,
    osc_integral,
    singular_integral,
)
from qdelta.qform import QForm, form_values

from conftest import HYP_CENTER, amplitude_oracle, make_instance


def delta_symbol_literal(kernel: DeltaKernel, n: int, q_max: int) -> float:
    """delta_symbol with the a-loop written out: the oracle for its
    Ramanujan-sum collapse, for small q_max."""
    Q = kernel.Q
    y = n / Q**2
    total = 0.0
    for q in range(1, q_max + 1):
        hval = kernel.h(q / Q, y)
        asum = 0.0
        for a in range(q):
            if math.gcd(a, q) == 1:
                asum += math.cos(2.0 * math.pi * a * n / q)
        total += asum * hval
    return total / Q**2


def h_many_loop(kernel: DeltaKernel, x: float, y: np.ndarray) -> np.ndarray:
    """h(x, y) summed over every j up to the array's whole j-range, each pass
    over every point: the oracle for DeltaKernel.h_many's window walk."""
    if x <= 0:
        raise ValueError("h requires x > 0")
    y = np.asarray(y, dtype=np.float64)
    ay = np.abs(y)
    jmax = int(math.ceil(max(1.0, 2.0 * float(ay.max(initial=0.0))) / x)) + 1
    out = np.zeros_like(ay)
    for j in range(1, jmax + 1):
        xj = x * j
        first = float(kernel.omega(np.asarray([xj]))[0])
        out += (first - kernel.omega(ay / xj)) / xj
    return out


def _bump_1d(u: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-u^2)) for |u| < 1, zero outside, on u itself."""
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
    return out


def weight_values_sqrt(weight: WeightSpec, x1, x2, x3) -> np.ndarray:
    """WeightSpec.values through the radius |d| and the 1-D bump on it: the
    oracle for the weight computed from the squared radius."""
    d1, d2, d3 = ((np.asarray(x, dtype=np.float64) - c) / weight.radius
                  for x, c in zip((x1, x2, x3), weight.center))
    if weight.profile == "ball":
        return _bump_1d(np.sqrt(d1 * d1 + d2 * d2 + d3 * d3))
    return _bump_1d(d1) * _bump_1d(d2) * _bump_1d(d3)


class TestWeightSpec:
    def test_support(self):
        w = WeightSpec(center=(0.0, 0.0, 0.0), radius=1.0)
        assert w(np.zeros(3)) > 0
        assert w(np.array([1.01, 0, 0])) == 0
        lo, hi = w.support_box()
        assert np.allclose(lo, [-1, -1, -1])
        assert np.allclose(hi, [1, 1, 1])

    def test_vectorized(self):
        w = WeightSpec(center=(0.5, 0.5, 0.5), radius=0.3)
        pts = np.random.default_rng(0).uniform(0, 1, size=(50, 3))
        vals = w(pts)
        assert vals.shape == (50,)
        singles = np.array([float(w(p)) for p in pts])
        assert np.allclose(vals, singles)

    def test_smoothness_at_boundary(self):
        w = WeightSpec(center=(0.0, 0.0, 0.0), radius=1.0)
        # approaching the support boundary the bump vanishes to high order
        for eps in (1e-2, 1e-3):
            assert float(w(np.array([1 - eps, 0, 0]))) < 1e-8

    # Gauss-Legendre grids of 24 to 200 nodes per axis, on the hyperboloid's
    # and the sphere's weight
    @pytest.mark.parametrize("nodes", [(24, 24, 24), (200, 200, 24), (57, 128, 91)])
    @pytest.mark.parametrize("center", [HYP_CENTER, (3**-0.5,) * 3], ids=["hyp", "sphere"])
    def test_values_match_sqrt_formula(self, nodes, center):
        for profile in ("ball", "box"):
            w = WeightSpec(center=center, radius=0.6, profile=profile)
            grid = np.ix_(*_gl_box(w, nodes)[0])
            got, want = w.values(*grid), weight_values_sqrt(w, *grid)
            if profile == "box":
                assert np.array_equal(got, want)
            else:
                assert np.array_equal(got > 0.0, want > 0.0)
                assert np.max(np.abs(got - want)) <= 1e-15
            assert np.count_nonzero(got) > got.size // 8


class TestKernel:
    def test_omega_unit_mass(self):
        kern = DeltaKernel(Q=5.0)
        mass, err = scipy_quad(lambda t: float(kern.omega(np.asarray([t]))[0]), 0.5, 1.0)
        assert abs(mass - 1.0) < 1e-9

    @pytest.mark.parametrize("tempering", [0.4, 1.0])
    def test_mass_against_mpmath(self, tempering):
        skew = -0.25
        with mpmath.workdps(30):
            ref = mpmath.quad(
                lambda t: mpmath.exp(-tempering / ((t - 0.5) * (1 - t)))
                * (1 + skew * (t - 0.75)),
                [0.5, 0.75, 1],
            )
        mass = arch._omega_mass(tempering, skew)
        assert abs(mass - float(ref)) <= 1e-15 * float(ref)

    def test_omega_support(self):
        kern = DeltaKernel(Q=5.0)
        for t in (0.0, 0.49, 1.01, 2.0):
            assert float(kern.omega(np.asarray([t]))[0]) == 0.0

    def test_h_vanishes_beyond_support(self):
        kern = DeltaKernel(Q=5.0)
        y = 0.7
        x = kern.support_bound(y) + 1e-9
        assert kern.h(x, y) == 0.0

    def test_h_many_matches_scalar(self):
        # each value depends on its own y only, not on the array's range
        kern = DeltaKernel(Q=5.0)
        ys = np.linspace(-3, 3, 17)
        many = kern.h_many(0.4, ys)
        singles = np.array([kern.h(0.4, float(y)) for y in ys])
        assert np.array_equal(many, singles)

    @pytest.mark.parametrize("x", [0.04, 0.2, 0.37, 1.0, 2.0, 3.5])
    @pytest.mark.parametrize("tempering, skew", [(0.4, -0.25), (0.1, 0.5)])
    def test_h_many_matches_loop(self, x, tempering, skew):
        kern = DeltaKernel(Q=5.0, tempering=tempering, skew=skew)
        rng = np.random.default_rng(17)
        # random y over the whole support, y = 0, and y on the window edges
        ys = np.concatenate([rng.uniform(-4.0, 4.0, 6000), [0.0], x * np.arange(-16, 17) / 2])
        got, want = kern.h_many(x, ys), h_many_loop(kern, x, ys)
        assert np.count_nonzero(want) > 3000
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
        # a 2-D y keeps its shape
        assert np.array_equal(kern.h_many(x, ys[:6000].reshape(60, 100)), got[:6000].reshape(60, 100))

    @pytest.mark.parametrize("min_points", [1, 7, 1 << 30])
    @pytest.mark.parametrize("x", [0.04, 0.37, 1.0])
    def test_h_many_same_for_any_working_set(self, monkeypatch, min_points, x):
        # the walk drops finished points from its working set (at the default
        # 1024 once half of 6000 finish), or keeps them and adds +0.0 for them
        kern = DeltaKernel(Q=5.0)
        ys = np.random.default_rng(5).uniform(-4.0, 4.0, 6000)
        want = kern.h_many(x, ys)
        monkeypatch.setattr(arch, "_WALK_MIN_POINTS", min_points)
        assert np.array_equal(kern.h_many(x, ys), want)

    @pytest.mark.parametrize("x", [0.04, 0.2, 0.37, 1.0, 2.0, 3.5])
    def test_h_at_zero_is_y_free_part(self, x):
        # no integer j lies in the window |y|/x < j < 2|y|/x while |y| <= x/2
        kern = DeltaKernel(Q=5.0)
        got = kern.h_many(x, np.array([0.0, -0.0, 0.25 * x, -0.5 * x]))
        assert np.array_equal(got, np.full(4, kern._y_free_part(x)))
        assert kern.h(x, 0.0) == kern._y_free_part(x)
        assert (kern._y_free_part(x) == 0.0) == (x >= 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_h_rejects_nonfinite_y(self, bad):
        kern = DeltaKernel(Q=5.0)
        with pytest.raises(ValueError, match="finite"):
            kern.h_many(0.2, np.array([0.1, bad, 0.3]))
        with pytest.raises(ValueError, match="finite"):
            kern.h(0.2, bad)

    def test_h_rejects_windows_past_exact_j(self):
        kern = DeltaKernel(Q=5.0)
        with pytest.raises(ValueError, match="2\\^52"):
            kern.h_many(0.5, np.array([0.0, 2.0**51]))

    @pytest.mark.parametrize("x", [0.25, 0.2, 0.37, 1.0, 0.5005])
    def test_window_edges_raise_no_warning(self, x):
        # |y|/x on integers and half-integers, where t/j lands on 1/2 or 1,
        # and one ulp either side of each; 0.5005 puts xj next to 1/2
        kern = DeltaKernel(Q=5.0)
        t = np.arange(1, 13, dtype=np.float64)
        edges = np.concatenate([t, t - 0.5, *(np.nextafter(e, d) for e in (t, t - 0.5) for d in (0.0, np.inf))])
        ys = np.concatenate([x * edges, -x * edges, [x * np.nextafter(1.0, 0.0) / 2]])
        with np.errstate(all="raise"):
            got = kern.h_many(x, ys)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - h_many_loop(kern, x, ys))) <= 1e-14 * max(1.0, np.max(np.abs(got)))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DeltaKernel(Q=0.5)
        with pytest.raises(ValueError):
            DeltaKernel(Q=5.0, tempering=-1.0)
        with pytest.raises(ValueError):
            DeltaKernel(Q=5.0, skew=1.5)


class TestDeltaSymbol:
    def test_nonzero_n_telescopes_to_zero(self):
        kern = DeltaKernel(Q=5.0)
        for n in (-7, -1, 1, 2, 13, 25):
            assert abs(delta_symbol(kern, n)) < 1e-12

    def test_zero_value_near_one(self):
        kern = DeltaKernel(Q=10.0)
        assert abs(delta_symbol(kern, 0) - 1.0) < 0.002

    def test_ramanujan_collapse_against_literal(self):
        kern = DeltaKernel(Q=4.0)
        for n in (0, 1, -3, 8):
            q_max = max(int(math.ceil(kern.support_bound(n / 16) * 4.0)), 4)
            assert abs(delta_symbol(kern, n, q_max) - delta_symbol_literal(kern, n, q_max)) < 1e-12

    def test_truncation_guard(self):
        kern = DeltaKernel(Q=5.0)
        with pytest.raises(ValueError, match="truncates"):
            delta_symbol(kern, 100, q_max=3)


def contraction_oracle(grid, freqs, r):
    """sum_ijk P0[a, i] P1[b, j] P2[c, k] A[i, j, k] as one einsum over an
    amplitude_oracle grid, with the phase factors of the frequency lists."""
    axes, wts, amp = grid
    P = _axis_factors(axes, wts, freqs, r)
    return np.einsum("ai,bj,ck,ijk->abc", *P, amp, optimize=False)


class TestOscIntegral:
    def test_decays_in_b(self):
        inst = make_instance()
        v0, _ = osc_integral(inst, 1.0, (0, 0, 0))
        v6, _ = osc_integral(inst, 1.0, (6, 0, 0))
        assert abs(v6) < abs(v0) * 0.05

    def test_error_estimate_consistent(self):
        inst = make_instance()
        val, err = osc_integral(inst, 0.6, (2, 1, 0))
        assert err < 1e-3 * max(1.0, abs(val)) or err < 1e-4

    def test_error_estimate_at_node_cap(self):
        # 24 nodes is below what trapezoid_nodes_for asks here (29), so the
        # count is clamped; the value stays the capped grid's and the error
        # comes from a coarser one, of 18 nodes
        inst = make_instance()
        r, b = 0.6, (2, 1, 0)
        quad = QuadratureSpec(max_nodes=24)
        # max |b_i| = 2 phase cycles across the support's width 1.2, per r
        cycles, features = 2 * 1.2 / r, 2.0 * form_range(inst) / r
        assert quad.trapezoid_nodes_for(cycles, features) == 24
        val, err = osc_integral(inst, r, b, quad)
        kernel = DeltaKernel(Q=float(inst.Q))
        grids = [amplitude_oracle(inst, kernel, r, (n,) * 3) for n in (24, 18)]
        want = [contraction_oracle(g, [[bi] for bi in b], r).item() for g in grids]
        assert abs(val - want[0]) <= 1e-13 * abs(want[0])
        assert abs(err - abs(want[0] - want[1])) <= 1e-13 * abs(want[0])
        ref, _ = osc_integral(inst, r, b, QuadratureSpec(max_nodes=160))
        assert err > 0
        assert abs(val - ref) <= err

    # (value grid, error grid): at r = 0.25 the rule asks for 48 nodes, so
    # at a cap of 40 the error grid is coarser; at r = 0.5 it asks for 33,
    # and the refined grid is clamped to the cap; at r = 1 and 2 it asks for
    # the 24-node floor, and the value grid is refined to 34
    @pytest.mark.parametrize(
        "r, b, cap, grids",
        [
            (0.25, (1, 0, 0), 40, (40, 30)),
            (0.5, (0, 1, 2), 40, (40, 33)),
            (1.0, (2, 2, 1), 40, (34, 24)),
            (2.0, (3, -1, 0), 64, (34, 24)),
        ],
    )
    def test_matches_full_grid_oracle(self, r, b, cap, grids):
        # the value and its error estimate against the amplitude of each
        # whole grid contracted by one einsum, to 1e-13 of int |w h|: the
        # scale of the rounding in a sum that may cancel to a small value
        inst = make_instance()
        kernel = DeltaKernel(Q=float(inst.Q))
        val, err = osc_integral(inst, r, b, QuadratureSpec(max_nodes=cap))
        ref = amplitude_oracle(inst, kernel, r, (grids[0],) * 3)
        scale = np.einsum("ijk,i,j,k->", np.abs(ref[2]), *ref[1])
        coarse = amplitude_oracle(inst, kernel, r, (grids[1],) * 3)
        want = [contraction_oracle(g, [[bi] for bi in b], r).item() for g in (ref, coarse)]
        assert abs(val - want[0]) <= 1e-13 * scale
        assert abs(err - abs(want[0] - want[1])) <= 2e-13 * scale

    def test_memory_is_slab_sized(self):
        # a whole 320^3 amplitude would take 262 MB alone
        inst = make_instance()
        r, b = 1.0, (150, 0, 0)
        quad = QuadratureSpec(max_nodes=320)
        cycles, features = 150 * 1.2 / r, 2.0 * form_range(inst) / r
        assert quad.trapezoid_nodes_for(cycles, features) >= 320
        tracemalloc.start()
        try:
            osc_integral(inst, r, b, quad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, peak

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize(
        "kwargs",
        [dict(coeffs=(1, 1, 1), center=(3**-0.5,) * 3), {}, dict(L=2, lam=(1, 0, 0))],
        ids=["sphere", "hyperboloid", "congruence"],
    )
    def test_within_error_of_gauss_legendre(self, kwargs, r):
        # the osc_monitor benchmark's (r, b) grid on its three forms: the
        # trapezoid value lies within its own error estimate of a tensor
        # Gauss-Legendre sum on the value grid of the former GL rule (7 nodes
        # per phase cycle and 5 per amplitude feature, plus 8, refined 1.35
        # times, at the benchmark's cap of 128)
        inst = make_instance(**kwargs)
        kernel = DeltaKernel(Q=max(float(inst.Q), 1.0 + 1e-9))
        quad = QuadratureSpec(max_nodes=128)
        for b in ((1, 0, 0), (0, 1, 2), (2, 2, 1), (3, -1, 0)):
            val, err = osc_integral(inst, r, b, quad)
            cycles = max(map(abs, b)) * 2.0 * inst.weight.radius / r
            demand = 7 * cycles + 5 * 2.0 * form_range(inst) / r
            n = min(quad.max_nodes, max(quad.base_nodes, math.ceil(demand) + 8))
            n = min(quad.max_nodes, math.ceil(1.35 * n) + 1)
            ref = amplitude_oracle(inst, kernel, r, (n,) * 3, box=_gl_box)
            want = contraction_oracle(ref, [[bi] for bi in b], r).item()
            assert abs(val - want) <= err, (b, n)

    def test_conjugate_symmetry(self):
        inst = make_instance()
        v, _ = osc_integral(inst, 0.8, (1, 2, -1))
        w, _ = osc_integral(inst, 0.8, (-1, -2, 1))
        assert abs(v.conjugate() - w) < 1e-10


def mollifier_grid_oracle(instance, nodes: int):
    """(w, F - m0, Gauss-Legendre weights) on the whole nodes^3 support box:
    the full-grid oracle of arch._mollified's slab walk."""
    axes, wts = _gl_box(instance.weight, (nodes, nodes, nodes))
    grid = np.ix_(*axes)
    w = instance.weight.values(*grid)
    y = form_values(instance.form, *grid)
    y -= instance.m0
    return w, y, wts


def mollified_oracle(grid, eps: float) -> float:
    """int w(t) phi_eps(F(t) - m0) dt with a Gaussian phi_eps, as one einsum
    over a mollifier_grid_oracle grid."""
    w, y, wts = grid
    amp = w * np.exp(-0.5 * (y / eps) ** 2) / (eps * math.sqrt(2.0 * math.pi))
    return float(np.einsum("ijk,i,j,k->", amp, wts[0], wts[1], wts[2]))


class TestSingularIntegral:
    def test_mollifier_vs_coarea(self):
        inst = make_instance()
        si = singular_integral(inst)
        assert si.converged
        assert si.consistent()
        assert abs(si.value - si.coarea_value) < 5e-3 * abs(si.value)

    def test_vanishes_off_variety(self):
        inst = make_instance(center=(3.0, 0.2, 0.2), radius=0.3)
        si = singular_integral(inst)
        assert abs(si.value) < 1e-10

    def test_one_grid_per_node_count(self, monkeypatch, sphere_instance):
        # at cap 128 eps = 0.2, 0.1, 0.05 take 120, 128 and 128 nodes: one
        # pass serves 0.2 and one serves 0.1 and 0.05 together, and each
        # value is the full-grid oracle's
        real = arch._mollified
        for inst in (make_instance(), sphere_instance):
            passes, vals = [], []

            def counting(instance, nodes, widths):
                passes.append((nodes, list(widths)))
                vals.extend(real(instance, nodes, widths))
                return vals[-len(widths):]

            monkeypatch.setattr(arch, "_mollified", counting)
            si = singular_integral(inst, QuadratureSpec(max_nodes=128))
            assert passes == [(120, [0.2]), (128, [0.1, 0.05])]
            assert si.ladder == ((0.2, 120), (0.1, 128), (0.05, 128))
            want = [mollified_oracle(mollifier_grid_oracle(inst, n), e) for e, n in si.ladder]
            for got, ref in zip(vals, want):
                assert abs(got - ref) <= 1e-13 * abs(ref)
            r1, r2 = (4.0 * want[1] - want[0]) / 3.0, (4.0 * want[2] - want[1]) / 3.0
            assert abs(si.value - r2) <= 1e-13 * abs(r2)
            assert abs(si.error - abs(r2 - r1)) <= 1e-13 * abs(r2)

    @pytest.mark.parametrize("profile", ["ball", "box"])
    @pytest.mark.parametrize("slab", [7, 50, 300, None], ids=["7", "50", "300", "whole"])
    def test_streamed_ladder_matches_full_grid(self, monkeypatch, profile, slab):
        # slabs of 7 points are single x3 lines, 50 splits x1 rows along x2,
        # 300 takes two whole rows, and None the whole grid in one slab
        inst = make_instance(coeffs=(1, 1, -1, 2, 0, -2), profile=profile)
        n, widths = 11, [0.3, 0.15, 0.075]
        monkeypatch.setattr(arch, "_SLAB_POINTS", slab or n**3)
        got = _mollified(inst, n, widths)
        grid = mollifier_grid_oracle(inst, n)
        for value, e in zip(got, widths):
            want = mollified_oracle(grid, e)
            assert want > 0
            assert abs(value - want) <= 1e-13 * want

    def test_mollifier_walks_the_support(self, monkeypatch):
        # the ball fills about 21% of its 128^3 Gauss-Legendre box, and the
        # slabs cropped to its cross-sections about a third: a walk of the
        # whole box would evaluate w on every node
        inst = make_instance()
        real = WeightSpec.values
        points = []

        def counting(self, x1, x2, x3):
            points.append(np.broadcast(x1, x2, x3).size)
            return real(self, x1, x2, x3)

        monkeypatch.setattr(WeightSpec, "values", counting)
        _mollified(inst, 128, [0.1])
        assert sum(points) < 0.4 * 128**3, sum(points) / 128**3

    def test_memory_is_slab_sized(self):
        # the full-grid ladder held three 320^3 float64 arrays, 750 MiB
        inst = make_instance()
        tracemalloc.start()
        try:
            si = singular_integral(inst, QuadratureSpec(max_nodes=320))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert si.ladder[-1][1] == 320
        assert peak < 16 * 2**20, peak

    def test_coarea_solves_along_a_nonzero_square(self):
        # x^2 - y^2 + 2yz (det -1) has a33 = 0: the sheets are solved along
        # y, and the two routes are independent.  The y-discriminant
        # 4(x^2 + z^2 - 1) stays positive inside the support, so no fold of
        # the sheets slows the coarea rule
        inst = make_instance(coeffs=(1, -1, 0, 0, 0, 2), center=(1.6, 1.5845, 0.3))
        assert inst.form.solve_order() == (0, 2, 1)
        si = singular_integral(inst)
        assert si.coarea_axis == 1
        assert (si.coarea_value, si.coarea_error) == coarea_integral(inst)
        assert si.coarea_value != si.value
        assert si.value > 0.05
        assert si.converged
        assert si.consistent()
        assert abs(si.value - si.coarea_value) < 1e-5 * si.value

    def test_coarea_needs_a_square_coefficient(self):
        inst = make_instance(coeffs=(0, 0, 0, 2, 2, 2), center=(0.6, 0.6, 0.6))
        assert inst.form.solve_order() is None
        with pytest.raises(ValueError):
            coarea_integral(inst)
        si = singular_integral(inst, QuadratureSpec(max_nodes=48))
        assert si.coarea_axis is None
        assert (si.coarea_value, si.coarea_error) == (si.value, si.error)

    def test_form_range_covers_samples(self):
        inst = make_instance()
        fr = form_range(inst)
        lo, hi = inst.weight.support_box()
        rng = np.random.default_rng(1)
        pts = rng.uniform(lo, hi, size=(200, 3))
        vals = np.abs(pts[:, 0] ** 2 + pts[:, 1] ** 2 - pts[:, 2] ** 2 - 1)
        assert vals.max() <= fr


def _weight_ref(weight: WeightSpec, t) -> float:
    """The weight at one point, written out from its definition."""

    def bump(u):
        return math.exp(1.0 - 1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0

    d = [(t[i] - weight.center[i]) / weight.radius for i in range(3)]
    if weight.profile == "ball":
        return bump(math.sqrt(sum(x * x for x in d)))
    return bump(d[0]) * bump(d[1]) * bump(d[2])


def _form_ref(inst, t) -> float:
    """F(t) - m0 through the Gram matrix."""
    t = np.asarray(t)
    return float(t @ np.asarray(inst.form.gram(), dtype=np.float64) @ t) - inst.m0


class TestGridLayer:
    """Broadcast tensor grids against point-by-point loops, on both weight
    profiles and a form with cross terms."""

    @pytest.mark.parametrize("profile", ["ball", "box"])
    def test_amplitude_grid_pointwise(self, profile):
        # identity factors contract nothing away: U is the amplitude itself
        inst = make_instance(coeffs=(1, 1, -1, 2, 0, -2), L=2, lam=(1, 0, 0), profile=profile)
        kernel = DeltaKernel(Q=5.0)
        r, yscale = 0.5, 0.7
        nodes = (9, 10, 11)
        axes, _ = _trapezoid_box(inst.weight, nodes)

        def identity(axes, wts):
            return [np.eye(n, dtype=complex) for n in nodes]

        amp = _amplitude_grid(inst, kernel, r, nodes, identity, yscale)
        assert amp.shape == nodes
        assert not np.any(amp.imag)
        amp = amp.real
        assert np.count_nonzero(amp) > 50
        for i, j, k in itertools.product(range(9), range(10), range(11)):
            t = (axes[0][i], axes[1][j], axes[2][k])
            w = _weight_ref(inst.weight, t)
            want = w * kernel.h(r, yscale * _form_ref(inst, t)) if w > 0 else 0.0
            assert abs(amp[i, j, k] - want) <= 1e-12 * max(1.0, abs(want)), (i, j, k)

    @pytest.mark.parametrize("box", [_gl_box, _trapezoid_box], ids=["gl", "trapezoid"])
    @pytest.mark.parametrize("profile", ["ball", "box"])
    @pytest.mark.parametrize("slab", [7, 50, 300, None], ids=["7", "50", "300", "whole"])
    def test_slabs_match_one_block(self, monkeypatch, box, profile, slab):
        # slabs of 7 points are single x3 lines, 50 splits x1 rows along x2,
        # 300 takes two whole rows, and None the whole grid in one slab.  The
        # walk does not depend on the node rule: on Gauss-Legendre nodes,
        # patched in for the trapezoid grid, it must match too
        inst = make_instance(coeffs=(1, 1, -1, 2, 0, -2), L=2, lam=(1, 0, 0), profile=profile)
        kernel = DeltaKernel(Q=5.0)
        nodes, r, yscale = (9, 10, 11), 0.3, 0.7
        freqs = [[-2.0, 0.0, 1.0, 3.0], [-1.0, 2.0], [0.0, 1.5, -4.0]]
        monkeypatch.setattr(arch, "_SLAB_POINTS", slab or math.prod(nodes))
        monkeypatch.setattr(arch, "_trapezoid_box", box)
        seen = []

        def factors(axes, wts):
            seen.append((axes, wts))
            return _axis_factors(axes, wts, freqs, r)

        got = _amplitude_grid(inst, kernel, r, nodes, factors, yscale)
        # the one-block evaluation, written out: w, F - m0 and h_many over
        # the whole grid at once, contracted by one einsum
        ref = amplitude_oracle(inst, kernel, r, nodes, yscale, box)
        assert len(seen) == 1
        for a, b in zip(seen[0][0] + seen[0][1], ref[0] + ref[1]):
            assert np.array_equal(a, b)
        assert np.count_nonzero(ref[2]) > 50
        want = contraction_oracle(ref, freqs, r)
        assert got.shape == want.shape == (4, 2, 3)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("box", [_gl_box, _trapezoid_box], ids=["gl", "trapezoid"])
    @pytest.mark.parametrize("profile", ["ball", "box"])
    @pytest.mark.parametrize("slab", [7, 50, 300])
    def test_support_slabs_cover_the_support(self, monkeypatch, box, profile, slab):
        # on the grid of one weight, seeded random weights that overlap it:
        # the crops lie inside _slabs' slabs, are disjoint, and hold every
        # node where w > 0
        monkeypatch.setattr(arch, "_SLAB_POINTS", slab)
        rng = np.random.default_rng(slab)
        for nodes in ((9, 10, 11), (12, 12, 12), (13, 8, 7)):
            grid_weight = WeightSpec(center=(0.3, -0.2, 0.5), radius=0.8)
            axes, _ = box(grid_weight, nodes)
            slabs = list(arch._slabs(nodes))
            for trial in range(8):
                center = tuple(rng.uniform(-0.6, 0.6, 3) + grid_weight.center)
                # the first trial is the grid's own weight
                weight = WeightSpec(center=center, radius=rng.uniform(0.05, 1.0),
                                    profile=profile) if trial else grid_weight
                w = weight.values(*np.ix_(*axes))
                cover = np.zeros(nodes, dtype=int)
                for s0, s1, s2 in arch._support_slabs(weight, axes):
                    assert any(s0 == t0 and t1.start <= s1.start < s1.stop <= t1.stop
                               for t0, t1 in slabs)
                    cover[s0, s1, s2] += 1
                assert cover.max() <= 1
                assert np.all(cover[w > 0.0] == 1), (nodes, trial)
                assert trial or np.count_nonzero(w) > 0

    @pytest.mark.parametrize("box", [_gl_box, _trapezoid_box], ids=["gl", "trapezoid"])
    @pytest.mark.parametrize("profile", ["ball", "box"])
    def test_support_off_the_nodes_has_no_slab(self, box, profile):
        # a support between two nodes of an axis, or outside the grid,
        # meets no node: no slab is walked, and w is 0 on the whole grid
        axes, _ = box(WeightSpec(center=(0.0, 0.0, 0.0), radius=1.0), (10, 11, 12))
        gaps = [0.5 * (x[4] + x[5]) for x in axes]
        for axis in range(3):
            center = [0.0, 0.0, 0.0]
            center[axis] = gaps[axis]
            weight = WeightSpec(center=tuple(center), radius=0.01, profile=profile)
            assert list(arch._support_slabs(weight, axes)) == []
            assert not np.any(weight.values(*np.ix_(*axes)))
        far = WeightSpec(center=(3.0, 0.0, 0.0), radius=0.5, profile=profile)
        assert list(arch._support_slabs(far, axes)) == []

    def test_zero_amplitude_is_none(self):
        # past the support bound of h over the form's range the amplitude is
        # 0 everywhere, and nothing is contracted
        kernel = DeltaKernel(Q=5.0)

        def factors(axes, wts):
            return _axis_factors(axes, wts, [[0.0]] * 3, 1.0)

        inst = make_instance()
        r = kernel.support_bound(form_range(inst)) + 1.0
        assert _amplitude_grid(inst, kernel, r, (8, 8, 8), factors) is None
        assert _amplitude_grid(inst, kernel, 0.5, (8, 8, 8), factors) is not None

    def test_trapezoid_axis_converges_on_bump(self):
        # the bump vanishes with all its derivatives at both ends of its
        # support, so the trapezoid rule converges faster than any power
        w = WeightSpec(center=(0.3, 0.0, 0.0), radius=0.7, profile="box")

        def bump(x):
            u = (x - 0.3) / 0.7
            return math.exp(1.0 - 1.0 / (1.0 - u * u)) if abs(u) < 1.0 else 0.0

        ref, _ = scipy_quad(bump, -0.4, 1.0, epsabs=1e-14, epsrel=1e-13)
        errs = []
        for n in (8, 16, 32, 64, 128):
            axes, wts = _trapezoid_box(w, (n, 1, 1))
            h = 1.4 / (n + 1)
            assert np.allclose(axes[0], -0.4 + h * np.arange(1, n + 1), rtol=0, atol=1e-15)
            assert np.all(wts[0] == h)
            errs.append(abs(math.fsum(wi * bump(x) for x, wi in zip(axes[0], wts[0])) - ref))
        # each doubling beats a fourth-order rule's 16-fold gain
        assert all(b < a / 16 for a, b in zip(errs, errs[1:])), errs
        assert errs[-1] < 1e-9

    @pytest.mark.parametrize("profile", ["ball", "box"])
    def test_mollified_matches_loop(self, profile):
        inst = make_instance(coeffs=(1, 1, -1, 2, 0, -2), profile=profile)
        eps, n = 0.3, 8
        lo, hi = inst.weight.support_box()
        x, gw = np.polynomial.legendre.leggauss(n)
        nodes = [lo[i] + 0.5 * (hi[i] - lo[i]) * (x + 1.0) for i in range(3)]
        wts = [0.5 * (hi[i] - lo[i]) * gw for i in range(3)]
        total = 0.0
        for i, j, k in itertools.product(range(n), repeat=3):
            t = (nodes[0][i], nodes[1][j], nodes[2][k])
            y = _form_ref(inst, t)
            gauss = math.exp(-0.5 * (y / eps) ** 2) / (eps * math.sqrt(2.0 * math.pi))
            total += wts[0][i] * wts[1][j] * wts[2][k] * _weight_ref(inst.weight, t) * gauss
        assert total > 0
        assert abs(_mollified(inst, n, [eps])[0] - total) <= 1e-12 * total


class TestGaussLegendreRule:
    """One cached reference rule per node count, mapped per call."""

    @pytest.mark.parametrize("n", [1, 24, 128, 129, 320])
    def test_axis_matches_uncached_mapping(self, n):
        lo, hi = -0.35, 2.15
        x, w = np.polynomial.legendre.leggauss(n)
        half = 0.5 * (hi - lo)
        for _ in range(2):  # the first call may build the rule, the second reads it
            axis, wts = _gl_axis(lo, hi, n)
            assert np.array_equal(axis, lo + half * (x + 1.0))
            assert np.array_equal(wts, half * w)

    def test_cached_rule_is_read_only(self):
        x, w = arch._gl_rule(24)
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
        axis, wts = _gl_axis(0.0, 1.0, 24)
        want = (axis.copy(), wts.copy())
        axis[:] = 7.0
        wts *= 2.0
        again = _gl_axis(0.0, 1.0, 24)
        assert np.array_equal(again[0], want[0]) and np.array_equal(again[1], want[1])

    def test_one_rule_build_per_node_count(self, monkeypatch):
        # each mollifier pass asks for the rule of its node count three
        # times (once per axis); over two passes at 36 and two at 48 nodes,
        # only the first pass of each count reaches leggauss
        real = np.polynomial.legendre.leggauss
        built = []

        def counting(n):
            built.append(n)
            return real(n)

        arch._gl_rule.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        inst = make_instance()
        first = [_mollified(inst, n, [0.2]) for n in (48, 36)]
        second = [_mollified(inst, n, [0.2]) for n in (48, 36)]
        assert sorted(built) == [36, 48]
        assert first == second


class TestQuadratureSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [{"base_nodes": 0}, {"max_nodes": 0}, {"max_nodes": -5},
         {"base_nodes": 100, "max_nodes": 48}],
        ids=["base_0", "max_0", "max_neg", "base_above_max"],
    )
    def test_rejects_impossible_values(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_nodes_monotone(self):
        q = QuadratureSpec()
        assert q.trapezoid_nodes_for(10.0) > q.trapezoid_nodes_for(1.0)
        assert q.trapezoid_nodes_for(10.0, 50.0) > q.trapezoid_nodes_for(10.0)

    def test_trapezoid_rule(self):
        q = QuadratureSpec()
        assert q.trapezoid_nodes_for(0.0) == q.base_nodes
        assert q.trapezoid_nodes_for(50.0, 20.5) == 2 * 50 + 21 + 8
        assert q.trapezoid_nodes_for(1e9) == q.max_nodes
