"""End-to-end assembly: direct enumeration of the weighted count, the
truncated Poisson expansion of the delta identity, main-term predictions,
and residual extraction.

The expansion evaluates, term by term over (q, c),

    (sqrt(N)/L) * S_q(c) * e_{qL^2}(c.lam_N) * I_{q/Q}(w; c/L) / (qL)^3,

with S_q(c) from expsums (FFT grid for small qL, closed-form split beyond)
and the oscillatory integral from arch on a per-q amplitude grid shared by
all c.  Every c is tagged exceptional/ordinary and the three partial sums
are accumulated separately; their sum is the grand total by construction.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arch import DeltaKernel, QuadratureSpec, _amplitude_grid, form_range, singular_integral
from .expsums import GRID_MODULUS_BOUND, sqc_grid, sqc_value
from .localdens import L_one_psi0, SingularSeries, singular_series
from .qform import ProblemInstance, _classify_array

_ENUM_AXIS_BOUND = 10**6


@dataclass(frozen=True)
class EnumerationResult:
    """Direct evaluation of the weighted counting function."""

    N: int
    weighted: float
    raw_count: int
    wall_time: float
    strategy: str

    def __post_init__(self):
        if self.raw_count < 0:
            raise ValueError("raw count cannot be negative")


@dataclass(frozen=True)
class DeltaExpansion:
    """Truncated (q, c) double sum with classified partial sums.

    For an exceptional c (F*(c) = 0, or m0 det F*(c) a nonzero square N(c)^2)
    the paper rewrites the sum over q as r-integrals of I_r(w; c/L) / r,
    twisted by e_{det r}(u^2 L^3 N(c)); here those terms are summed over q
    directly like the ordinary ones and only their total is split out.
    """

    Q: float
    q_max: int
    c_max: int
    zero_part: complex
    exceptional_part: complex
    ordinary_part: complex
    shell_mass: float  # |c|_inf = c_max shell contribution (truncation proxy)
    tail_budget: float
    budget_ok: bool
    n_terms: int

    @property
    def total(self) -> complex:
        return self.zero_part + self.exceptional_part + self.ordinary_part


def _solutions_sliced(instance: ProblemInstance):
    """Lattice points in the weight support: exact quadratic solve in x3 per
    congruence-admissible (x1, x2).  Yields points in lexicographic order."""
    form = instance.form
    a11, a22, a33, a12, a13, a23 = form.coefficients()
    if a33 == 0:
        raise ValueError("sliced enumeration requires a nonzero x3^2 coefficient")
    w = instance.weight
    lo, hi = w.support_box()
    s = instance.sqrtN
    L = instance.L
    lam = instance.lam_N
    mN = instance.mN
    for i in range(3):
        if (hi[i] - lo[i]) * s > 2 * _ENUM_AXIS_BOUND:
            raise ValueError("enumeration box exceeds the per-axis bound")

    def axis_range(i: int):
        start = math.ceil(lo[i] * s)
        start += (lam[i] - start) % L
        return range(start, math.floor(hi[i] * s) + 1, L)

    lo3, hi3 = math.ceil(lo[2] * s), math.floor(hi[2] * s)
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
            roots = sorted({(-bb + r), (-bb - r)})
            for num in roots:
                if num % (2 * a33) != 0:
                    continue
                x3 = num // (2 * a33)
                if (x3 - lam[2]) % L != 0 or not lo3 <= x3 <= hi3:
                    continue
                yield (x1, x2, x3)


def _solutions_triple(instance: ProblemInstance):
    """Full triple loop over the support box; validation strategy."""
    form = instance.form
    w = instance.weight
    lo, hi = w.support_box()
    s = instance.sqrtN
    L = instance.L
    lam = instance.lam_N
    mN = instance.mN
    if instance.N > 100 * instance.L**2:
        raise ValueError("triple-loop strategy reserved for small N")

    def axis_range(i: int):
        start = math.ceil(lo[i] * s)
        start += (lam[i] - start) % L
        return range(start, math.floor(hi[i] * s) + 1, L)

    for x1 in axis_range(0):
        for x2 in axis_range(1):
            for x3 in axis_range(2):
                if form((x1, x2, x3)) == mN:
                    yield (x1, x2, x3)


def enumerate_gamma(instance: ProblemInstance, strategy: str = "sliced") -> EnumerationResult:
    """Weighted count sum w(x/sqrt(N)) over F(x) = m0 N, x = lam_N mod L."""
    gen = {"sliced": _solutions_sliced, "triple": _solutions_triple}.get(strategy)
    if gen is None:
        raise ValueError(f"unknown strategy {strategy!r}")
    t0 = time.perf_counter()
    s = instance.sqrtN
    w = instance.weight
    values = []
    raw = 0
    for x in gen(instance):
        v = float(w(np.asarray(x, dtype=np.float64) / s))
        if v > 0.0:
            raw += 1
            values.append(v)
    return EnumerationResult(
        N=instance.N,
        weighted=math.fsum(values),
        raw_count=raw,
        wall_time=time.perf_counter() - t0,
        strategy=strategy,
    )


_KERNEL_FLOOR = 5.0


def default_kernel(instance: ProblemInstance) -> DeltaKernel:
    """Kernel scale: sqrt(N)/L, floored so the bump calibration holds.

    The smoothed-indicator identity is exact for any scale, but the
    normalization delta(0) ~ 1 is a lattice sum of the bump over multiples
    of 1/Q and degenerates for Q below ~5 (too few lattice points under the
    bump).  Flooring the kernel scale keeps delta(0) within its calibrated
    drift while the geometric phase scale stays sqrt(N)/L."""
    return DeltaKernel(Q=max(float(instance.Q), _KERNEL_FLOOR))


def default_q_max(instance: ProblemInstance, kernel: DeltaKernel) -> int:
    yscale = (float(instance.Q) / kernel.Q) ** 2
    return int(math.ceil(1.1 * kernel.support_bound(yscale * form_range(instance)) * kernel.Q))


_CWINDOW_FACTOR = 5.0


def max_gradient(instance: ProblemInstance) -> float:
    """Largest |dF/dt_i| over the weight support box (attained at a corner
    since the gradient is linear)."""
    lo, hi = instance.weight.support_box()
    gram = np.asarray(instance.form.gram(), dtype=np.float64)
    g = 0.0
    for i in range(8):
        corner = np.array([(hi if (i >> k) & 1 else lo)[k] for k in range(3)])
        g = max(g, float(np.max(np.abs(2.0 * gram @ corner))))
    return g


def default_c_max(instance: ProblemInstance) -> int:
    """Default dual-variable window.

    The oscillatory integral stays O(1) while c/L is inside the gradient
    range of the form on the weight support (the kernel amplitude supplies
    matching frequencies there) and decays super-algebraically beyond, so
    the window must cover a fixed multiple of the largest gradient
    component; the outermost shell mass is the truncation diagnostic and
    doubling the window is the consistency check."""
    return int(math.ceil(_CWINDOW_FACTOR * instance.L * max_gradient(instance)))


def poisson_rhs(
    instance: ProblemInstance,
    q_max: int | None = None,
    c_max: int | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel: DeltaKernel | None = None,
    tail_budget_frac: float = 0.01,
) -> DeltaExpansion:
    """Truncated delta expansion matching enumerate_gamma."""
    if kernel is None:
        kernel = default_kernel(instance)
    Q = kernel.Q
    Qgeo = float(instance.Q)
    yscale = (Qgeo / Q) ** 2
    if q_max is None:
        q_max = default_q_max(instance, kernel)
    if c_max is None:
        c_max = default_c_max(instance)
    L = instance.L
    lam = instance.lam_N
    prefac = yscale * instance.sqrtN / L
    cvals = np.arange(-c_max, c_max + 1, dtype=np.int64)

    # flat dual window and its exceptional/ordinary classification
    C1, C2, C3 = (g.ravel() for g in np.meshgrid(cvals, cvals, cvals, indexing="ij"))
    type_i, type_ii = _classify_array(instance, C1, C2, C3)
    nonzero = (C1 != 0) | (C2 != 0) | (C3 != 0)
    exc_mask = nonzero & (type_i | type_ii)
    ord_mask = nonzero & ~exc_mask
    zero_mask = ~nonzero
    shell_mask = np.maximum(np.abs(C1), np.maximum(np.abs(C2), np.abs(C3))) == c_max

    zero = 0j
    exceptional = 0j
    ordinary = 0j
    shell = 0.0
    n_terms = 0
    fr = form_range(instance)
    for q in range(1, q_max + 1):
        rk = q / Q  # kernel scale (amplitude)
        rp = q / Qgeo  # geometric scale (phase)
        nodes = quad.nodes_for(
            2.0 * instance.weight.radius * c_max / (L * rp), 2.0 * yscale * fr / rk
        )
        axes, wts, amp = _amplitude_grid(instance, kernel, rk, (nodes, nodes, nodes), yscale)
        if not np.any(amp):
            continue
        qL = q * L
        qL2 = q * L * L
        qL3 = qL**3
        if qL <= GRID_MODULUS_BOUND:
            S = sqc_grid(instance, q)[C1 % qL, C2 % qL, C3 % qL]
        else:
            S = np.array([sqc_value(instance, q, c) for c in zip(C1, C2, C3)])
        # all-window oscillatory integrals in one tensordot chain:
        # P[i][a, j] = w_j exp(-2 pi i (c_a / L) t_j / r)
        P = [
            np.exp(-2j * np.pi * np.outer(cvals / L, axes[i]) / rp) * wts[i]
            for i in range(3)
        ]
        t1 = np.tensordot(P[0], amp, axes=(1, 0))
        t2 = np.einsum("bj,ajk->abk", P[1], t1)
        integrals = np.einsum("ck,abk->abc", P[2], t2).ravel()
        phase = np.exp(2j * np.pi * ((C1 * lam[0] + C2 * lam[1] + C3 * lam[2]) % qL2) / qL2)
        terms = prefac * S * phase * integrals / qL3
        zero += complex(terms[zero_mask].sum())
        exceptional += complex(terms[exc_mask].sum())
        ordinary += complex(terms[ord_mask].sum())
        shell += float(np.abs(terms[shell_mask]).sum())
        n_terms += terms.size
        # release this q's grid- and window-sized arrays before the next q
        # builds its own: the loop's peak memory is then one q's arrays,
        # not the previous q's held alongside the next q's contraction
        del axes, wts, amp, S, P, t1, t2, integrals, phase, terms
    budget = tail_budget_frac * instance.sqrtN
    return DeltaExpansion(
        Q=Q,
        q_max=q_max,
        c_max=c_max,
        zero_part=complex(zero),
        exceptional_part=complex(exceptional),
        ordinary_part=complex(ordinary),
        shell_mass=shell,
        tail_budget=budget,
        budget_ok=shell <= budget,
        n_terms=n_terms,
    )


# ---------------------------------------------------------------------------
# Predictions and residuals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionReport:
    """Main-term predictions next to enumeration over an h grid."""

    instance_echo: dict
    square_disc: bool
    singular_integral: float
    singular_integral_error: float
    series: SingularSeries
    l_value: float | None  # L(1, psi0), None in the square case
    h_values: tuple[int, ...]
    gammas: tuple[float, ...]
    predictions: dict  # name -> tuple of per-h main terms
    residuals: dict  # name -> tuple of (gamma - main)/sqrt(N)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance_echo,
            "square_disc": self.square_disc,
            "singular_integral": self.singular_integral,
            "singular_integral_error": self.singular_integral_error,
            "singular_series": self.series.value,
            "series_drift": self.series.drift,
            "obstructed_at": self.series.obstructed_at,
            "l_value": self.l_value,
            "h": list(self.h_values),
            "gamma": list(self.gammas),
            "predictions": {k: list(v) for k, v in self.predictions.items()},
            "residuals": {k: list(v) for k, v in self.residuals.items()},
        }


def instance_echo(instance: ProblemInstance) -> dict:
    w = instance.weight
    return {
        "form": list(instance.form.coefficients()),
        "m0": instance.m0,
        "p0": instance.p0,
        "h": instance.h,
        "L": instance.L,
        "lambda": list(instance.cong.lam),
        "weight_center": list(w.center) if w is not None else None,
        "weight_radius": w.radius if w is not None else None,
        "weight_profile": w.profile if w is not None else None,
    }


def predict_main(
    instance: ProblemInstance,
    h_values: tuple[int, ...] = (1, 2, 3),
    p_max: int = 300,
    quad: QuadratureSpec = QuadratureSpec(),
    enumerations: dict[int, float] | None = None,
) -> PredictionReport:
    """Predicted leading terms per h next to the enumerated counts.

    Square case: I(w) * S * sqrt(N) log sqrt(N).  Non-square case emits two
    candidates, with and without the L(1, psi0) factor carried by the c = 0
    analysis; the residuals decide empirically which one the count tracks.
    """
    si = singular_integral(instance, quad)
    series = singular_series(instance, p_max)
    square = series.square_disc
    lval = None if square else L_one_psi0(instance.form, instance.m0)
    gammas = []
    for h in h_values:
        inst_h = instance.with_h(h)
        if enumerations is not None and h in enumerations:
            gammas.append(enumerations[h])
        else:
            gammas.append(enumerate_gamma(inst_h).weighted)
    predictions: dict[str, tuple[float, ...]] = {}
    base = si.value * series.value
    if square:
        predictions["main_sqrtN_logsqrtN"] = tuple(
            base * instance.p0**h * math.log(instance.p0**h) for h in h_values
        )
    else:
        predictions["main_sqrtN"] = tuple(base * instance.p0**h for h in h_values)
        predictions["main_sqrtN_lvalue"] = tuple(
            base * lval * instance.p0**h for h in h_values
        )
    residuals = {
        name: tuple(
            (g - m) / instance.p0**h for g, m, h in zip(gammas, vals, h_values)
        )
        for name, vals in predictions.items()
    }
    return PredictionReport(
        instance_echo=instance_echo(instance),
        square_disc=square,
        singular_integral=si.value,
        singular_integral_error=si.error,
        series=series,
        l_value=lval,
        h_values=tuple(h_values),
        gammas=tuple(gammas),
        predictions=predictions,
        residuals=residuals,
    )


def extract_secondary(report: PredictionReport, which: str | None = None) -> dict:
    """Residual sequence (gamma - main)/sqrt(N) with boundedness diagnostics.

    Needs at least 3 h values; reports the max residual and consecutive
    drifts but makes no convergence claim.
    """
    if len(report.h_values) < 3:
        raise ValueError("need at least 3 h values to discuss a trend")
    if which is None:
        which = min(
            report.residuals, key=lambda k: max(abs(r) for r in report.residuals[k])
        )
    res = report.residuals[which]
    drifts = tuple(abs(res[i + 1] - res[i]) for i in range(len(res) - 1))
    return {
        "candidate": which,
        "residuals": list(res),
        "max_abs_residual": max(abs(r) for r in res),
        "consecutive_drifts": list(drifts),
    }

