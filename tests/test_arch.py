"""Weights, smoothed delta kernel, oscillatory and singular integrals."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from qdelta.arch import (
    DeltaKernel,
    QuadratureSpec,
    WeightSpec,
    _amplitude_grid,
    _contract,
    _mollified,
    _phase_factors,
    coarea_integral,
    delta_symbol,
    delta_symbol_literal,
    form_range,
    osc_integral,
    singular_integral,
)

from conftest import HYP_CENTER, make_instance


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

    def test_meets_variety(self):
        inst = make_instance()
        assert inst.weight.meets_variety(inst.form, inst.m0)
        off = WeightSpec(center=(5.0, 5.0, 0.1), radius=0.2)
        assert not off.meets_variety(inst.form, inst.m0)


class TestKernel:
    def test_omega_unit_mass(self):
        kern = DeltaKernel(Q=5.0)
        mass, err = scipy_quad(lambda t: float(kern.omega(np.asarray([t]))[0]), 0.5, 1.0)
        assert abs(mass - 1.0) < 1e-9

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
        kern = DeltaKernel(Q=5.0)
        ys = np.linspace(-3, 3, 17)
        many = kern.h_many(0.4, ys)
        singles = np.array([kern.h(0.4, float(y)) for y in ys])
        assert np.allclose(many, singles)

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
        # 48 nodes is below what nodes_for asks here, so the count is clamped;
        # the value stays the capped grid's and the error comes from a coarser one
        inst = make_instance()
        r, b = 0.6, (2, 1, 0)
        val, err = osc_integral(inst, r, b, QuadratureSpec(max_nodes=48))
        axes, wts, amp = _amplitude_grid(inst, DeltaKernel(Q=float(inst.Q)), r, (48, 48, 48))
        assert val == _contract(amp, wts, _phase_factors(axes, b, r))
        ref, _ = osc_integral(inst, r, b, QuadratureSpec(max_nodes=160))
        assert err > 0
        assert abs(val - ref) <= err

    def test_conjugate_symmetry(self):
        inst = make_instance()
        v, _ = osc_integral(inst, 0.8, (1, 2, -1))
        w, _ = osc_integral(inst, 0.8, (-1, -2, 1))
        assert abs(v.conjugate() - w) < 1e-10


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
        inst = make_instance(coeffs=(1, 1, -1, 2, 0, -2), L=2, lam=(1, 0, 0), profile=profile)
        kernel = DeltaKernel(Q=5.0)
        r, yscale = 0.5, 0.7
        axes, wts, amp = _amplitude_grid(inst, kernel, r, (9, 10, 11), yscale)
        assert amp.shape == (9, 10, 11)
        assert np.count_nonzero(amp) > 50
        for i, j, k in itertools.product(range(9), range(10), range(11)):
            t = (axes[0][i], axes[1][j], axes[2][k])
            w = _weight_ref(inst.weight, t)
            want = w * kernel.h(r, yscale * _form_ref(inst, t)) if w > 0 else 0.0
            assert abs(amp[i, j, k] - want) <= 1e-12 * max(1.0, abs(want)), (i, j, k)

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
        assert abs(_mollified(inst, eps, n) - total) <= 1e-12 * total


class TestQuadratureSpec:
    def test_nodes_monotone(self):
        q = QuadratureSpec()
        assert q.nodes_for(0.0) == q.base_nodes
        assert q.nodes_for(10.0) > q.nodes_for(1.0)
        assert q.nodes_for(10.0, 50.0) > q.nodes_for(10.0)
        assert q.nodes_for(1e9) == q.max_nodes
