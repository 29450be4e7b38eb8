"""End-to-end assembly: direct enumeration of the weighted count, the
truncated Poisson expansion of the delta identity, main-term predictions,
and residual extraction.

The direct count solves F(x) = m0 N exactly along one axis for every
congruence-admissible pair of the other two: one int64 array kernel per
block of at most _BLOCK_PAIRS pairs, with an exact integer square root (the
rounded float root, exact on perfect squares below 2^62) and an exact bound
that rejects, before any allocation, a box where an int64 step could reach
2^62.

The expansion evaluates, term by term over (q, c),

    (sqrt(N)/L) * S_q(c) * e_{qL^2}(c.lam_N) * I_{q/Q}(w; c/L) / (qL)^3,

on the dual window, the cube |c|_inf <= c_max.  Per q, expsums.sqc_window
(S1 in closed form times S2) gives S_q(c) first, on the sub-cube its support
spans: the window rows whose slice of S_q(c) is not identically 0, closed
under c -> -c.  A q without support is skipped before any amplitude is
evaluated, and the loop ends at the first q past the kernel's support over
arch.form_range_bound, where every later amplitude is 0.  The oscillatory
integral comes from arch on a per-q trapezoid grid (arch._trapezoid_box,
with QuadratureSpec.trapezoid_nodes_for per q).
Per q, e_{qL^2}(c.lam_N) I(c) on the sub-cube is one pass of
arch._amplitude_grid, whose axis factors hold the supported rows only: each
slab of the real kernel amplitude is contracted along x3 as soon as it is
computed, then x2 and x1 follow, over the supported c3 >= 0;
U(-c) = conj U(c) gives the rest.  The amplitude is never held whole.  Then
the sub-cube is split into c = 0, exceptional and ordinary c
(qform._classify_array), so no array spans the whole window unless a q's
support does.  Before anything is allocated, a memory preflight rejects
(ValueError) an expansion whose amplitude slabs, contraction intermediates,
window, S_q(c) factor product and S2 residue table exceed _MEMORY_BUDGET,
or (OverflowError) whose window leaves the int64 classifier's range.  Nodes
per q, the capped q and the terms per q are reported too.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .arch import (
    _SLAB_POINTS,
    DeltaKernel,
    QuadratureSpec,
    SingularIntegral,
    _amplitude_grid,
    _axis_factors,
    form_range,
    form_range_bound,
    singular_integral,
)
from .expsums import sqc_table_peak, sqc_window
from .localdens import L_one_psi0, SingularSeries, singular_series
from .qform import ProblemInstance, _classify_array, classifier_range_check

_ENUM_AXIS_BOUND = 10**6
# (x1, x2) pairs per block of the sliced kernel: 128 KiB per int64 temporary.
# Blocks of 2^16 pairs ran as fast only on a heap that a freed 16 MiB array
# had left warm; on a fresh heap every block faulted in new pages
_BLOCK_PAIRS = 1 << 14
# |x3-discriminant| limit of the int64 kernel; below it (r + 1)^2 still fits
_DISC_BOUND = 1 << 62


@dataclass(frozen=True)
class EnumerationResult:
    """Direct evaluation of the weighted counting function."""

    N: int
    weighted: float
    raw_count: int
    wall_time: float

    def __post_init__(self):
        if self.raw_count < 0:
            raise ValueError("raw count cannot be negative")


@dataclass(frozen=True)
class DeltaExpansion:
    """Truncated (q, c) double sum split into c = 0, exceptional and ordinary c.

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
    # (q, c) terms evaluated at q = 1..q_max: the size of the sub-cube that
    # S_q(c)'s support spans in the window, 0 at a q whose S_q(c) or
    # amplitude is 0 throughout
    terms_per_q: tuple[int, ...]
    nodes: tuple[int, ...]  # quadrature nodes per axis at q = 1..q_max
    capped_q: tuple[int, ...]  # the q whose node count sits at quad.max_nodes

    @property
    def total(self) -> complex:
        return self.zero_part + self.exceptional_part + self.ordinary_part

    @property
    def n_terms(self) -> int:
        return sum(self.terms_per_q)


def _admissible_axis(lo: float, hi: float, lam: int, L: int, s: int) -> np.ndarray:
    """Integers in [lo s, hi s] congruent to lam mod L, ascending."""
    start = math.ceil(lo * s)
    start += (lam - start) % L
    return np.arange(start, math.floor(hi * s) + 1, L, dtype=np.int64)


def _square_root(d: np.ndarray) -> np.ndarray:
    """The nearest integer to sqrt(d) for an int64 array with 0 <= d < 2^62:
    the exact root wherever d is a perfect square.  For d = s^2 the float
    root is within s 2^-52 < 2^-21 of s, so it rounds to s; d is a square
    exactly where the result squared equals d."""
    r = np.sqrt(d.astype(np.float64))
    np.rint(r, out=r)
    return r.astype(np.int64)


def _solutions_sliced(instance: ProblemInstance) -> np.ndarray:
    """Lattice points in the weight support box: an exact quadratic solve
    along one axis for every congruence-admissible pair of the other two.

    The solved axis is x3, or the last axis with a nonzero square
    coefficient when a33 = 0 (QForm.solve_order; coordinates are permuted
    and permuted back).
    Pairs (x1, x2) go through in blocks of whole x1 rows, at most
    _BLOCK_PAIRS pairs each (one x1 row is split when the x2 axis is wider).
    Per block, in int64: the x3-discriminant
    disc = (a13 x1 + a23 x2)^2 - 4 a33 (a11 x1^2 + a22 x2^2 + a12 x1 x2 - m0 N)
    from terms computed once per axis, and its exact integer root where
    disc is a square (_square_root).  The few square pairs of all blocks
    then go through once: both roots x3 = (-b +- r) / (2 a33) (one when
    r = 0), and the divisibility, x3 = lam3 mod L and box filters as
    masks.  Before any allocation the
    termwise bound on |disc| over the box corners, in exact integers, must
    stay below 2^62, or OverflowError is raised: no int64 step can wrap.
    Returns an (n, 3) int64 array in lexicographic order."""
    lo, hi = instance.weight.support_box()
    s = instance.sqrtN
    L = instance.L
    lam = instance.lam_N
    mN = instance.mN
    for i in range(3):
        if (hi[i] - lo[i]) * s > 2 * _ENUM_AXIS_BOUND:
            raise ValueError("enumeration box exceeds the per-axis bound")
    perm = instance.form.solve_order()
    if perm is None:
        raise ValueError("sliced enumeration needs a nonzero square coefficient; a11 = a22 = a33 = 0")
    a11, a22, a33, a12, a13, a23 = instance.form.permuted(perm).coefficients()
    # largest |x1|, |x2| in the box: every int64 term below is bounded by
    # the same terms in absolute value at these corners
    X1, X2 = (max(abs(math.ceil(lo[i] * s)), abs(math.floor(hi[i] * s))) for i in perm[:2])
    bb_max = abs(a13) * X1 + abs(a23) * X2
    cc_max = abs(a11) * X1 * X1 + abs(a22) * X2 * X2 + abs(a12) * X1 * X2 + abs(mN)
    if bb_max * bb_max + 4 * abs(a33) * cc_max >= _DISC_BOUND:
        raise OverflowError("x3-discriminant may exceed 2^62: outside the int64 enumeration kernel")
    ax1, ax2 = (_admissible_axis(lo[i], hi[i], lam[i], L, s) for i in perm[:2])
    lo3, hi3 = math.ceil(lo[perm[2]] * s), math.floor(hi[perm[2]] * s)
    lam3 = lam[perm[2]]

    # disc = P1[x1] + P2[x2] + K[x1] x2, three passes per block, with the
    # x1-only and x2-only parts computed once per axis.  Expanded, disc has
    # seven monomials, and the termwise bound is the sum of their largest
    # absolute values on the box.  Every int64 value below, from the
    # products inside P1, P2 and K x2 to each partial sum, is bounded by a
    # subset of those terms: K itself by the x1 x2 terms at |x2| = 1 (when
    # every x2 is 0, K may wrap, but K x2 is 0)
    b1, b2 = a13 * ax1, a23 * ax2
    p1 = b1 * b1 - 4 * a33 * a11 * ax1 * ax1
    p2 = b2 * b2 - 4 * a33 * (a22 * ax2 * ax2 - mN)
    k1 = (2 * a13 * a23 - 4 * a33 * a12) * ax1
    cols = max(1, min(len(ax2), _BLOCK_PAIRS))
    rows = _BLOCK_PAIRS // cols
    # (x1, x2, root) of every pair whose disc is a perfect square
    found = [(np.empty(0, dtype=np.int64),) * 3]
    for i in range(0, len(ax1), rows):
        i1 = slice(i, i + rows)
        for j in range(0, len(ax2), cols):
            i2 = slice(j, j + cols)
            disc = k1[i1, None] * ax2[None, i2]
            disc += p1[i1, None]
            disc += p2[None, i2]
            pair = np.flatnonzero(disc >= 0)
            d = disc.ravel()[pair]
            r = _square_root(d)
            exact = r * r == d
            row, col = np.divmod(pair[exact], disc.shape[1])
            found.append((ax1[i + row], ax2[j + col], r[exact]))
    x1, x2, r = (np.concatenate(part) for part in zip(*found))
    bb = a13 * x1 + a23 * x2
    num = -bb[:, None] + r[:, None] * np.array([1, -1])
    x3 = num // (2 * a33)
    keep = (num % (2 * a33) == 0) & ((x3 - lam3) % L == 0) & (lo3 <= x3) & (x3 <= hi3)
    keep[:, 1] &= r > 0
    k, root = np.nonzero(keep)
    y = np.stack([x1[k], x2[k], x3[k, root]], axis=1)
    pts = np.empty_like(y)
    pts[:, perm] = y
    return pts[np.lexsort(pts.T[::-1])]


def enumerate_gamma(instance: ProblemInstance) -> EnumerationResult:
    """Weighted count sum w(x/sqrt(N)) over F(x) = m0 N, x = lam_N mod L.

    w is evaluated once on the whole point array; math.fsum is correctly
    rounded, so the sum does not depend on the order of the points."""
    t0 = time.perf_counter()
    pts = _solutions_sliced(instance)
    values = instance.weight.values(*(pts.T / instance.sqrtN))
    values = values[values > 0.0]
    return EnumerationResult(
        N=instance.N,
        weighted=math.fsum(values),
        raw_count=int(values.size),
        wall_time=time.perf_counter() - t0,
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


# bytes poisson_rhs may hold at once; over it, expansion_plan raises
_MEMORY_BUDGET = 2 << 30
_TAIL_BUDGET_FRAC = 0.01  # reported shell-mass budget, per unit of sqrt(N)
# window bytes per dual frequency c in poisson_rhs, an upper bound: a q's
# terms on its support's sub-cube (16 bytes per c) and their classification
# (three 8-byte arrays) peaked at 40.3 bytes per c on the hyperboloid at
# c_max = 80, whose support spans the window (5.1 to 5.3 on congruence at 60
# and the cross form at 100, 0.3 on the obstructed sphere at 60), traced at
# 24 nodes; 19% margin.  Where qL >= 2 c_max + 1, sqc_window also holds its
# whole-window product: sqc_table_peak's product term counts that
_WINDOW_BYTES = 48
# bytes per point of one amplitude slab (w, F - m0 and h_many's working
# set), an upper bound: traced at 115 on a box weight and 93 on a ball
_SLAB_BYTES = 128


def expansion_plan(
    instance: ProblemInstance,
    q_max: int | None = None,
    c_max: int | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel: DeltaKernel | None = None,
) -> tuple[DeltaKernel, int, int, list[int]]:
    """Kernel, q_max, c_max and the trapezoid node count per axis at each
    q = 1..q_max of poisson_rhs, after its memory preflight.

    The preflight counts, at the largest node count n and m = 2 c_max + 1,
    the amplitude walk (_SLAB_BYTES per slab point), the contraction over
    the c3 >= 0 half window (16 (c_max + 1) n^2 bytes after x3, then
    16 (c_max + 1) n m after x2 and 16 (c_max + 1) m^2 after x1, two stages
    held at once), _WINDOW_BYTES per point of the m^3 window and the
    largest S_q(c) S2 table and factor product (expsums.sqc_table_peak),
    and raises ValueError above _MEMORY_BUDGET (or on q_max < 1, c_max < 0)
    and OverflowError outside the int64 classifier's range: nothing is
    clamped to fit."""
    if kernel is None:
        kernel = default_kernel(instance)
    if q_max is None:
        q_max = default_q_max(instance, kernel)
    if c_max is None:
        c_max = default_c_max(instance)
    if q_max < 1 or c_max < 0:
        raise ValueError(f"expansion needs q_max >= 1 and c_max >= 0, got {q_max} and {c_max}")
    classifier_range_check(instance, c_max)
    yscale = (float(instance.Q) / kernel.Q) ** 2
    fr = form_range(instance)
    nodes = []
    for q in range(1, q_max + 1):
        rk = q / kernel.Q  # kernel scale (amplitude)
        rp = q / float(instance.Q)  # geometric scale (phase)
        cycles = 2.0 * instance.weight.radius * c_max / (instance.L * rp)
        nodes.append(quad.trapezoid_nodes_for(cycles, 2.0 * yscale * fr / rk))
    n = max(nodes)
    m = 2 * c_max + 1
    table_qL, table_bytes = sqc_table_peak(instance, q_max, m)
    need = (
        _SLAB_BYTES * min(n**3, _SLAB_POINTS)
        + 16 * (c_max + 1) * (n + m) * max(n, m)
        + _WINDOW_BYTES * m**3
        + table_bytes
    )
    if need > _MEMORY_BUDGET:
        raise ValueError(
            f"delta expansion needs about {need / 2**30:.3g} GiB ({n} nodes per axis, "
            f"c_max = {c_max}, S_q(c) residue table at qL = {table_qL}), "
            f"over the {_MEMORY_BUDGET / 2**30:.3g} GiB budget"
        )
    return kernel, q_max, c_max, nodes


def poisson_rhs(
    instance: ProblemInstance,
    q_max: int | None = None,
    c_max: int | None = None,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel: DeltaKernel | None = None,
) -> DeltaExpansion:
    """Truncated delta expansion matching enumerate_gamma."""
    kernel, q_max, c_max, nodes_per_q = expansion_plan(instance, q_max, c_max, quad, kernel)
    Q = kernel.Q
    Qgeo = float(instance.Q)
    yscale = (Qgeo / Q) ** 2
    L = instance.L
    lam = instance.lam_N
    prefac = yscale * instance.sqrtN / L
    cvals = np.arange(-c_max, c_max + 1, dtype=np.int64)

    zero = exceptional = ordinary = 0j
    shell = 0.0
    terms_per_q = [0] * q_max
    # past this kernel scale h(rk, y) = 0 wherever w > 0
    rk_max = kernel.support_bound(yscale * form_range_bound(instance))
    for q, nodes in enumerate(nodes_per_q, 1):
        rk = q / Q  # kernel scale (amplitude)
        if rk > rk_max:
            break
        rp = q / Qgeo  # geometric scale (phase)
        qL = q * L
        qL2 = q * L * L
        window = sqc_window(instance, q, cvals)
        if window is None:
            continue
        rows, terms = window
        # the amplitude is real and the lam-phase rows are conjugate under
        # c -> -c, so U(-c) = conj U(c); as the rows are closed under
        # c -> -c, U is needed on the supported c3 >= 0 only
        freqs = [cvals[r] for r in rows]
        freqs[2] = freqs[2][freqs[2] >= 0]
        neg = len(rows[2]) - len(freqs[2])  # the rows c3 < 0

        # U(c) = e_{qL^2}(c.lam) I(c) on those rows, the lam-phase folded
        # into the rows of the axis factors:
        # P[i][a, j] = w_j exp(-2 pi i (c_a / L) t_j / r) e_{qL^2}(c_a lam_i)
        def factors(axes, wts):
            P = _axis_factors(axes, wts, [f / L for f in freqs], rp)
            for i in range(3):
                P[i] *= np.exp(2j * np.pi * ((freqs[i] * lam[i]) % qL2) / qL2)[:, None]
            return P

        U = _amplitude_grid(instance, kernel, rk, (nodes, nodes, nodes), factors, yscale)
        if U is None:
            continue
        # prefac S_q(c) U(c) / (qL)^3 in place, U mirrored onto c3 < 0
        terms *= prefac
        terms[:, :, neg:] *= U
        terms[:, :, :neg] *= np.conj(U[::-1, ::-1, ::-1][:, :, :neg])
        terms /= qL**3
        del U
        # c = 0 is type II: the exceptional c leave it to the zero part
        c1, c2, c3 = np.ix_(*(cvals[r] for r in rows))
        exc = np.logical_or(*_classify_array(instance, c1, c2, c3))
        centre = (c1 == 0) & (c2 == 0) & (c3 == 0)
        zero += complex(terms[centre].sum())
        ordinary += complex(terms[~exc].sum())
        exc &= ~centre
        exceptional += complex(terms[exc].sum())
        outer = (np.abs(c1) == c_max) | (np.abs(c2) == c_max) | (np.abs(c3) == c_max)
        shell += float(np.abs(terms[outer]).sum())
        terms_per_q[q - 1] = terms.size
        # release this q's sub-cube before the next q builds its own: the
        # loop's peak memory is then one q's arrays
        del terms, exc, centre, outer
    return DeltaExpansion(
        Q=Q,
        q_max=q_max,
        c_max=c_max,
        zero_part=zero,
        exceptional_part=exceptional,
        ordinary_part=ordinary,
        shell_mass=shell,
        tail_budget=_TAIL_BUDGET_FRAC * instance.sqrtN,
        terms_per_q=tuple(terms_per_q),
        nodes=tuple(nodes_per_q),
        capped_q=tuple(q for q, n in enumerate(nodes_per_q, 1) if n >= quad.max_nodes),
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
    singular_evidence: SingularIntegral  # coarea cross-check and mollifier ladder
    series: SingularSeries
    l_value: float | None  # L(1, chi), None in the square case
    h_values: tuple[int, ...]
    gammas: tuple[float, ...]
    predictions: dict  # the one main term's name -> its per-h values
    residuals: dict  # the same name -> per-h (gamma - main)/sqrt(N)

    def to_dict(self) -> dict:
        return {
            "instance": self.instance_echo,
            "square_disc": self.square_disc,
            "singular_integral": self.singular_integral,
            "singular_integral_error": self.singular_integral_error,
            "singular_integral_converged": self.singular_evidence.converged,
            "singular_integral_ladder": [
                {"eps": e, "nodes": n} for e, n in self.singular_evidence.ladder
            ],
            "coarea_value": self.singular_evidence.coarea_value,
            "coarea_error": self.singular_evidence.coarea_error,
            "coarea_axis": self.singular_evidence.coarea_axis,
            "singular_series": self.series.value,
            "series_drift": self.series.drift,
            "obstructed_at": self.series.obstructed_at,
            "uncertified_primes": [d.p for d in self.series.densities if not d.certified],
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
    """The predicted main term per h next to the enumerated counts: the
    singular integral I(w) times the singular series S, times
    sqrt(N) log sqrt(N) in the square case (main_sqrtN_logsqrtN) and
    L(1, chi) sqrt(N) otherwise (main_sqrtN_lvalue), chi the character of
    S's convergence factors.
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
    base = si.value * series.value
    sqrt_n = [instance.p0**h for h in h_values]
    if square:
        name, main = "main_sqrtN_logsqrtN", [base * s * math.log(s) for s in sqrt_n]
    else:
        name, main = "main_sqrtN_lvalue", [base * lval * s for s in sqrt_n]
    predictions = {name: tuple(main)}
    residuals = {name: tuple((g - m) / s for g, m, s in zip(gammas, main, sqrt_n))}
    return PredictionReport(
        instance_echo=instance_echo(instance),
        square_disc=square,
        singular_integral=si.value,
        singular_integral_error=si.error,
        singular_evidence=si,
        series=series,
        l_value=lval,
        h_values=tuple(h_values),
        gammas=tuple(gammas),
        predictions=predictions,
        residuals=residuals,
    )


def extract_secondary(report: PredictionReport) -> dict:
    """Residual sequence (gamma - main)/sqrt(N) of the report's one main
    term, with boundedness diagnostics.

    Needs at least 3 h values; reports the max residual and consecutive
    drifts but makes no convergence claim.
    """
    if len(report.h_values) < 3:
        raise ValueError("need at least 3 h values to discuss a trend")
    ((name, res),) = report.residuals.items()
    drifts = tuple(abs(res[i + 1] - res[i]) for i in range(len(res) - 1))
    return {
        "main_term": name,
        "residuals": list(res),
        "max_abs_residual": max(abs(r) for r in res),
        "consecutive_drifts": list(drifts),
    }
