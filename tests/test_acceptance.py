"""Acceptance suite: one test per top-level correctness claim.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` and on
failure) stating the measured quantity, its tolerance, and the wall time
against the stated runtime budget.  Tolerances are asserted, never relaxed:
every comparison is against an independent oracle (brute-force sums, exact
identities, closed forms) or a recorded regression baseline.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qdelta.arch import DeltaKernel, delta_symbol, osc_integral
from qdelta.expsums import (
    brute_S,
    brute_S1,
    brute_S1_grid,
    brute_S2,
    calA,
    calS,
    crt_split,
    lemma21_eval,
)
from qdelta.localdens import L_one_psi0, count_solutions
from qdelta.modarith import characters_mod, smooth_part
from qdelta.pipeline import enumerate_gamma, poisson_rhs, predict_main
from qdelta.qform import QForm, evaluate

from conftest import make_instance

BASELINE_PATH = Path(__file__).parent / "baselines.json"

SPHERE_CENTER = (1 / 3**0.5,) * 3


def _forms():
    """The three standing test instances: definite, indefinite, congruence."""
    return [
        make_instance(coeffs=(1, 1, 1), center=SPHERE_CENTER),
        make_instance(),
        make_instance(L=2, lam=(1, 0, 0)),
    ]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"acceptance {num} {name}: {detail}"


def test_acceptance_1_closed_form_matches_brute_coprime_factor():
    """Closed-form coprime factor vs brute force: <= 1e-6 * q1^2 absolute,
    odd q1 <= 60 coprime to m0*N*Omega, smooth q2 <= 8, |c|_inf <= 2,
    three forms.  Budget: 2 min."""
    t0 = time.time()
    worst = 0.0
    checked = 0
    for inst in _forms():
        om = abs(inst.omega)
        q2s = sorted({1, 2, 4} | {v for v in range(1, 9) if smooth_part(v, om) == v})
        for q1 in range(1, 61, 2):
            if math.gcd(q1, inst.mN * om) != 1:
                continue
            for q2 in q2s:
                grid = brute_S1_grid(inst, q1, q2)
                for c in itertools.product(range(-2, 3), repeat=3):
                    closed = lemma21_eval(inst, q1, q2, c).value
                    brute = grid[tuple(v % q1 for v in c)]
                    worst = max(worst, abs(closed - brute) / (q1 * q1))
                    checked += 1
        # the FFT grid itself is spot-checked against the definitional sum
        for q1, q2 in ((7, 2), (11, 4)):
            g = brute_S1_grid(inst, q1, q2)
            for c in ((0, 0, 0), (1, 2, 0), (2, 1, 1)):
                assert abs(g[c] - brute_S1(inst, q1, q2, c).value) < 1e-8
    dt = time.time() - t0
    ok = worst <= 1e-6 and dt < 120
    _report(1, "closed-form coprime factor", ok,
            f"{checked} cases, worst dev {worst:.2e} (tol 1e-6 * q1^2), {dt:.1f}s / 120s")


def test_acceptance_2_crt_multiplicativity():
    """brute_S(q) = brute_S1 * brute_S2 to 1e-9 relative for all q <= 200 on
    the three forms.  Budget: 1 min."""
    t0 = time.time()
    worst = 0.0
    c = (1, 2, 0)
    for inst in _forms():
        for q in range(1, 201):
            q1, q2 = crt_split(inst, q)
            whole = brute_S(inst, q, c).value
            split = brute_S1(inst, q1, q2, c).value * brute_S2(inst, q1, q2, c).value
            worst = max(worst, abs(whole - split) / max(1.0, abs(whole)))
    dt = time.time() - t0
    ok = worst <= 1e-9 and dt < 60
    _report(2, "CRT multiplicativity", ok,
            f"worst rel dev {worst:.2e} (tol 1e-9), q <= 200 x 3 forms, {dt:.1f}s / 60s")


def test_acceptance_3_smoothed_indicator_identity():
    """Truncated smoothed indicator of n = 0: max deviation over
    n in [-25, 25] below 0.02 at Q = 5, strictly smaller at Q = 10.
    Budget: 30 s."""
    t0 = time.time()
    devs = {}
    for Q in (5.0, 10.0):
        kern = DeltaKernel(Q=Q)
        devs[Q] = max(
            abs(delta_symbol(kern, n) - (1.0 if n == 0 else 0.0)) for n in range(-25, 26)
        )
    dt = time.time() - t0
    ok = devs[5.0] < 0.02 and devs[10.0] < devs[5.0] and dt < 30
    _report(3, "smoothed indicator identity", ok,
            f"max dev Q=5: {devs[5.0]:.4e} (tol 0.02), Q=10: {devs[10.0]:.4e} (must shrink), "
            f"{dt:.1f}s / 30s")


def test_acceptance_4_expansion_matches_enumeration():
    """Truncated expansion vs direct weighted enumeration: within 2% of
    max(count, sqrt(N)) for an indefinite form, a congruence-constrained
    instance, and an everywhere-obstructed instance, with no q held at the
    quadrature node cap.  Budget: 10 min."""
    t0 = time.time()
    cases = {
        "indefinite": make_instance(),
        "congruence": make_instance(L=2, lam=(1, 0, 0)),
        "obstructed": make_instance(coeffs=(1, 1, 1), L=2, lam=(1, 1, 1),
                                    center=SPHERE_CENTER),
    }
    details = []
    ok = True
    for tag, inst in cases.items():
        gamma = enumerate_gamma(inst).weighted
        expansion = poisson_rhs(inst)
        rhs = expansion.total
        bound = 0.02 * max(gamma, math.sqrt(inst.N))
        err = abs(rhs - gamma)
        # converged, not held at the node cap
        ok = ok and err <= bound and expansion.capped_q == ()
        details.append(f"{tag}: |rhs-count| {err:.4f} <= {bound:.4f}, capped q {expansion.capped_q}")
        if tag == "obstructed":
            ok = ok and gamma == 0.0 and abs(rhs) <= bound
    dt = time.time() - t0
    ok = ok and dt < 600
    _report(4, "expansion vs enumeration", ok, "; ".join(details) + f", {dt:.1f}s / 600s")


def test_acceptance_5_local_density_stabilization():
    """Clean primes (p not dividing 2*det*m0*L and p != p0): the mod-p and
    mod-p^2 densities agree exactly; the scaling change of variable
    x -> p0^h x preserves exact counts at k <= 2.  Budget: 1 min."""
    t0 = time.time()
    checked = 0
    for inst in _forms():
        bad = 2 * abs(inst.form.det()) * inst.m0 * inst.L
        for p in range(2, 100):
            if any(p % d == 0 for d in range(2, p)):
                continue
            if bad % p == 0 or p == inst.p0:
                continue
            v1 = Fraction(count_solutions(inst.form, inst.mN, p, 1), p**2)
            v2 = Fraction(count_solutions(inst.form, inst.mN, p, 2), p**4)
            assert v1 == v2, (inst.form.coefficients(), p, v1, v2)
            checked += 1
        # scaling invariance: counting F = m0 * u^2 with residue u*lambda
        # equals counting F = m0 with residue lambda, u = p0^h a unit mod p
        u = inst.p0 ** inst.h
        for p in (2, 3, 7, 11):
            if p == inst.p0:
                continue
            mp, rest = 0, inst.L
            while rest % p == 0:
                mp, rest = mp + 1, rest // p
            cm = p**mp
            for k in (1, 2):
                lam = inst.cong.lam
                lhs = count_solutions(
                    inst.form, inst.m0 * u * u, p, k,
                    cong_modulus=cm, cong_residue=tuple((u * v) % cm for v in lam),
                )
                rhs = count_solutions(
                    inst.form, inst.m0, p, k,
                    cong_modulus=cm, cong_residue=tuple(v % cm for v in lam),
                )
                assert lhs == rhs, (inst.form.coefficients(), p, k, lhs, rhs)
                checked += 1
    dt = time.time() - t0
    ok = dt < 60
    _report(5, "local density stabilization", ok,
            f"{checked} exact equalities (clean p < 100, k <= 2), {dt:.1f}s / 60s")


def test_acceptance_6_character_l_value_oracle():
    """L(1) of the associated real character vs closed forms pi/4 and
    pi/(3 sqrt 3), to 1e-8.  Budget: 5 s."""
    t0 = time.time()
    a = L_one_psi0(QForm.diagonal(1, 1, 1), 1)
    b = L_one_psi0(QForm.diagonal(1, 1, 3), 1)
    da = abs(a - math.pi / 4)
    db = abs(b - math.pi / (3 * math.sqrt(3)))
    dt = time.time() - t0
    ok = da < 1e-8 and db < 1e-8 and dt < 5
    _report(6, "character L-value oracle", ok,
            f"dev vs pi/4: {da:.2e}, vs pi/(3 sqrt 3): {db:.2e} (tol 1e-8), {dt:.1f}s / 5s")


def test_acceptance_7_square_case_main_term_trend():
    """Square-discriminant main term: count / (density product * sqrt(N) *
    log sqrt(N)) stays in [0.5, 1.5] for h = 1..5 and its consecutive drift
    shrinks monotonically from h = 3 on.  Budget: 20 min."""
    t0 = time.time()
    inst = make_instance(p0=3)
    rep = predict_main(inst, h_values=(1, 2, 3, 4, 5))
    main = rep.predictions["main_sqrtN_logsqrtN"]
    ratios = [g / m for g, m in zip(rep.gammas, main)]
    drifts = [abs(b - a) for a, b in zip(ratios, ratios[1:])]
    in_range = all(0.5 <= r <= 1.5 for r in ratios)
    monotone = all(a >= b for a, b in zip(drifts[1:], drifts[2:]))
    dt = time.time() - t0
    ok = in_range and monotone and dt < 1200
    _report(7, "square-case main-term trend", ok,
            f"ratios {[f'{r:.4f}' for r in ratios]} in [0.5, 1.5]; "
            f"drifts {[f'{d:.4f}' for d in drifts]} monotone from h=3: {monotone}, "
            f"{dt:.1f}s / 1200s")


def test_acceptance_8_character_orthogonality_reconstruction():
    """S_l(x; c) = sum_chi chi(x) A_l(chi; c) to 1e-8 relative for all
    l * L^2 <= 100 on the test grid.  Budget: 1 min."""
    t0 = time.time()
    worst = 0.0
    checked = 0
    c_grid = ((1, 1, 0), (0, 2, 1))
    for inst in _forms():
        L2 = inst.L * inst.L
        for l in range(1, 100 // L2 + 1):
            chars = characters_mod(l * L2)
            xs = [x for x in range(1, l * L2 + 2) if math.gcd(x, max(l * inst.L, 1)) == 1][:2]
            for x in xs:
                for c in c_grid:
                    lhs = calS(inst, l, x, c).value
                    rhs = sum(ch(x) * calA(inst, l, ch, c).value for ch in chars)
                    worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
                    checked += 1
    dt = time.time() - t0
    ok = worst <= 1e-8 and dt < 60
    _report(8, "character orthogonality reconstruction", ok,
            f"{checked} reconstructions, worst rel dev {worst:.2e} (tol 1e-8), {dt:.1f}s / 60s")


def _monitor_maxima() -> dict[str, float]:
    """Scale-normalized magnitudes whose boundedness the truncation relies on."""
    forms = _forms()
    c_grid = ((0, 0, 0), (1, 0, 0), (1, 2, 0), (1, 1, 1))
    m_smooth = 0.0
    for inst in forms:
        om = abs(inst.omega)
        for q2 in range(1, 65):
            if smooth_part(q2, om) != q2:
                continue
            for c in c_grid:
                m_smooth = max(m_smooth, abs(brute_S2(inst, 1, q2, c).value) / q2**2.5)
    m_char = 0.0
    for inst in forms:
        L2 = inst.L * inst.L
        for l in range(1, 50 // L2 + 1):
            for ch in characters_mod(l * L2):
                cond = ch.conductor()
                for c in ((1, 1, 0), (0, 2, 1)):
                    val = abs(calA(inst, l, ch, c).value)
                    m_char = max(m_char, val * cond**0.25 / l ** (43 / 16))
    m_osc = 0.0
    for inst in forms:
        for r in (0.25, 0.5, 1.0, 2.0):
            for b in ((1, 0, 0), (0, 1, 2), (2, 2, 1), (3, -1, 0)):
                val, _ = osc_integral(inst, r, b)
                m_osc = max(m_osc, abs(val) * (np.linalg.norm(b) / r) ** 0.45)
    return {
        "smooth_factor_over_q2_pow_5_2": m_smooth,
        "character_average_decay": m_char,
        "oscillatory_integral_decay": m_osc,
    }


def test_acceptance_9_empirical_bound_monitors():
    """Regression monitors: normalized sum/integral magnitudes never exceed
    1.05x the maxima recorded on the first green run (tests/baselines.json)."""
    t0 = time.time()
    current = _monitor_maxima()
    if not BASELINE_PATH.exists():
        BASELINE_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        _report(9, "empirical bound monitors", True,
                "first green run: baselines recorded to tests/baselines.json")
        return
    recorded = json.loads(BASELINE_PATH.read_text())
    details = []
    ok = set(recorded) == set(current)
    for key in sorted(current):
        bound = 1.05 * recorded[key]
        ok = ok and current[key] <= bound
        details.append(f"{key}: {current[key]:.6g} <= {bound:.6g}")
    dt = time.time() - t0
    ok = ok and dt < 300
    _report(9, "empirical bound monitors", ok, "; ".join(details) + f", {dt:.1f}s")
