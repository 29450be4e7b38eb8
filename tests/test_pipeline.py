"""Enumeration, truncated expansion bookkeeping, predictions, residuals."""

from __future__ import annotations

import math

import numpy as np
import pytest

from qdelta.arch import (
    QuadratureSpec,
    WeightSpec,
    _amplitude_grid,
    _contract_axes,
    form_range,
)
from qdelta.expsums import sqc_grid
from qdelta.pipeline import (
    PredictionReport,
    default_c_max,
    default_kernel,
    enumerate_gamma,
    extract_secondary,
    max_gradient,
    poisson_rhs,
    predict_main,
)
from qdelta.qform import CongruenceDatum, ProblemInstance, QForm, _classify_array

from conftest import make_instance


class TestEnumeration:
    def test_r3_of_one(self):
        # unit sphere, N = 1 (h = 0): exactly the 6 signed unit vectors
        w = WeightSpec(center=(0.0, 0.0, 0.0), radius=1.5)
        inst = ProblemInstance(
            QForm.diagonal(1, 1, 1), 1, 5, 0, CongruenceDatum(1, (0, 0, 0)), w
        )
        res = enumerate_gamma(inst)
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
        for inst in (hyp_instance, cong_instance):
            a = enumerate_gamma(inst, "sliced")
            b = enumerate_gamma(inst, "triple")
            assert a.weighted == b.weighted
            assert a.raw_count == b.raw_count

    def test_unknown_strategy(self, hyp_instance):
        with pytest.raises(ValueError):
            enumerate_gamma(hyp_instance, "magic")

    def test_box_bound(self):
        inst = make_instance(h=12)  # sqrt(N) = 5^12 far beyond the box bound
        with pytest.raises(ValueError, match="bound"):
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

    def test_node_cap_reported(self, cong_instance):
        exp = poisson_rhs(cong_instance, q_max=4, quad=QuadratureSpec(max_nodes=48))
        assert len(exp.nodes) == 4
        assert exp.capped_q[0] == 1
        assert all(exp.nodes[q - 1] == 48 for q in exp.capped_q)


_CONGRUENCE = dict(L=2, lam=(1, 0, 0))
_CROSS = dict(coeffs=(2, 3, 1, 2, 0, 2), m0=3, p0=7, L=2, lam=(0, 1, 0), center=(0.5, 0.4, 0.3))


def _tensordot_chain(instance, q_max, c_max, quad):
    """The expansion as a tensordot, two einsums and a flat window phase
    e_{qL^2}(c.lam): the written-out reference for poisson_rhs's GEMM chain."""
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
        nodes = quad.nodes_for(
            2.0 * instance.weight.radius * c_max / (L * rp), 2.0 * yscale * form_range(instance) / rk
        )
        axes, wts, amp = _amplitude_grid(instance, kernel, rk, (nodes,) * 3, yscale)
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
        rng = np.random.default_rng(7)
        n, m = (9, 7, 11), (5, 8, 6)
        amp = rng.standard_normal(n)
        P = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in zip(m, n)]
        got = _contract_axes(amp, *P)
        ref = np.einsum("ai,bj,ck,ijk->abc", *P, amp, optimize=False)
        assert got.shape == m
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    # the congruence instance is invariant under (x2, x3) -> (-x2, -x3), which
    # hides a c1 < 0 mirror that fails to reverse the c2 and c3 axes; the xy
    # term of the cross form breaks that symmetry
    @pytest.mark.parametrize(
        "kwargs, c_max",
        [(_CONGRUENCE, 0), (_CONGRUENCE, 1), (_CONGRUENCE, 4), (_CROSS, 4)],
        ids=["congruence-0", "congruence-1", "congruence-4", "cross-4"],
    )
    def test_poisson_rhs_matches_tensordot_chain(self, kwargs, c_max):
        inst = make_instance(**kwargs)
        quad = QuadratureSpec(max_nodes=24)
        exp = poisson_rhs(inst, q_max=4, c_max=c_max, quad=quad)
        ref = _tensordot_chain(inst, 4, c_max, quad)
        for name, value in ref.items():
            assert abs(getattr(exp, name) - value) <= 1e-12 * max(1.0, abs(value)), name


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
            series=rep.series,
            l_value=rep.l_value,
            h_values=rep.h_values[:2],
            gammas=rep.gammas[:2],
            predictions={k: v[:2] for k, v in rep.predictions.items()},
            residuals={k: v[:2] for k, v in rep.residuals.items()},
        )
        with pytest.raises(ValueError):
            extract_secondary(short)
