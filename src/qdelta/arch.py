"""Archimedean layer: smooth weights, the delta-method kernel, oscillatory
integrals and the singular integral.

Every integrand is w(t) g(F(t) - m0) on a tensor grid; w and F are evaluated
by broadcasting the three 1-D axes (np.ix_), never on a stacked point array.
Two node rules span the grids: tensor Gauss-Legendre for osc_integral (the
oracle of the expansion's integrals) and the singular integral, and the
uniform trapezoid rule for the expansion side (pipeline.poisson_rhs).  Its
amplitude vanishes with all its derivatives on the box edge, so the trapezoid
rule converges spectrally with about 2 nodes per phase cycle.  The kernel
amplitude and the singular integral's Gaussian mollifier both walk their
grids in slabs of at most _SLAB_POINTS grid points (_slabs), each cropped to
the x2 and x3 nodes of the weight support's widest cross-section over the
slab's x1 rows (_support_slabs): w, F and h are evaluated only on that
sub-box, which holds every node where w > 0, and a slab that meets no such
node is skipped.  On a ball the crops hold about a third of the box's
nodes.  Each amplitude slab is contracted along x3 at once, so no n^3 array
exists and the memory of an integral is O(slab + frequencies n^2); the
mollifier makes one pass per node count for every width on it, in O(slab).
The Gauss-Legendre reference rule on [-1, 1] is computed once per node count
and cached in-process; each grid maps it onto its own interval.

The kernel h(x, y) = sum_{j>=1} (xj)^{-1} [omega(xj) - omega(|y|/(xj))] is
built from a bump omega supported on [1/2, 1], so a point pays only for the
j of its own window |y|/x < j < 2|y|/x on top of one y-free sum per call.
Two exact facts drive the implementation and its tests:

* at n = 0 the normalized q-sum collapses to (1/Q) sum_m omega(m/Q), so
  normalizing omega to unit mass makes the drift from 1 exponentially small;
* at n != 0 the q-sum telescopes to exactly zero over divisor pairs of n,
  independent of omega.

The bump carries a tempering exponent: a gentler-than-standard decay at the
support endpoints flattens its Fourier transform near the origin, which is
what keeps the n = 0 drift small already at Q = 5.  The mass constant is
calibrated once by the trapezoid rule and cached in-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modarith import ramanujan_sum
from .qform import ProblemInstance, form_values

_TEMPERING_DEFAULT = 0.4
_SKEW_DEFAULT = -0.25
_MASS_MAX_NODES = 1 << 20
# DeltaKernel.h_many takes finished points out of its working set only while
# at least this many stay.  Smaller arrays, of a new size on every pass, stay
# in numpy's small-block cache and fragment the heap: the osc_monitor
# benchmark's peak RSS rose from 47 to 53 MB when the set shrank to any size
_WALK_MIN_POINTS = 1024
# h_many's bound on |y|/x: past it j = floor(|y|/x) + 1 is no longer exact,
# and the window would hold about 2^52 terms
_WALK_MAX_T = 2.0**52


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def _bump_profile(u2: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-u^2)) for u^2 < 1, zero outside, on the squared argument
    u2 = u^2 (the ball's squared radius needs no square root); peak value 1
    at u = 0."""
    out = np.zeros_like(u2)
    inside = u2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
    return out


@dataclass(frozen=True)
class WeightSpec:
    """Smooth compactly supported weight: a bump on a ball (or a product of
    1D bumps on a box) of the given radius around the center."""

    center: tuple[float, float, float]
    radius: float
    profile: str = "ball"  # "ball" or "box"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.profile not in ("ball", "box"):
            raise ValueError(f"unknown profile {self.profile!r}")

    def __call__(self, t) -> np.ndarray | float:
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 1
        pts = np.atleast_2d(t)
        vals = self.values(pts[..., 0], pts[..., 1], pts[..., 2])
        return float(vals[0]) if scalar else vals

    def values(self, x1, x2, x3) -> np.ndarray:
        """w on coordinate arrays broadcast against each other (open axes
        give w on the tensor grid without building the point array)."""
        u1, u2, u3 = (self.offsets2(x, i) for i, x in enumerate((x1, x2, x3)))
        if self.profile == "ball":
            return _bump_profile(u1 + u2 + u3)
        return _bump_profile(u1) * _bump_profile(u2) * _bump_profile(u3)

    def offsets2(self, x, axis: int) -> np.ndarray:
        """Squared offsets ((x - center) / radius)^2 along one axis, as
        values() computes them."""
        d = (np.asarray(x, dtype=np.float64) - self.center[axis]) / self.radius
        return d * d

    def section(self, u1_min: float) -> float | None:
        """Bound on the squared offsets along x2 and x3 of every point where
        w > 0 and the squared x1 offset is at least u1_min; None when there
        is no such point.  w > 0 needs each squared offset below 1 on a box,
        and their sum below 1 on a ball, where the float sum can undercut the
        exact one by 2^-52 relative: 1e-12 covers that."""
        if u1_min >= 1.0:
            return None
        return 1.0 - u1_min + 1e-12 if self.profile == "ball" else 1.0

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius


# ---------------------------------------------------------------------------
# Delta kernel
# ---------------------------------------------------------------------------


def _omega_core(u: np.ndarray, s: float, skew: float) -> np.ndarray:
    """Unnormalized tempered bump at points u that all lie in (1/2, 1).

    The linear skew factor breaks the reflection symmetry about 3/4; a
    symmetric bump makes the Q = 5 and Q = 10 lattice sums coincide exactly
    (the grids are nested and reflection-paired), which would freeze the
    delta-identity drift instead of letting it shrink with Q.
    """
    a = u - 0.5
    b = 1.0 - u
    a *= b
    np.divide(-s, a, out=a)
    np.exp(a, out=a)
    np.subtract(u, 0.75, out=b)
    b *= skew
    b += 1.0
    a *= b
    return a


def _omega_raw(t: np.ndarray, s: float, skew: float) -> np.ndarray:
    """Unnormalized tempered bump on (1/2, 1), zero outside."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 1.0)
    out[inside] = _omega_core(t[inside], s, skew)
    return out


@lru_cache(maxsize=None)
def _omega_mass(s: float, skew: float) -> float:
    """Integral of the unnormalized bump over (1/2, 1), cached in process.

    The integrand vanishes to all orders at both ends, so the trapezoid rule
    converges faster than any power of the step.  The node count doubles from
    256 until two successive sums agree to 1e-14 relative.
    """
    n = 256
    prev = None
    while n <= _MASS_MAX_NODES:
        interior = 0.5 + 0.5 * np.arange(1, n) / n
        cur = math.fsum(_omega_raw(interior, s, skew)) * (0.5 / n)
        if prev is not None and abs(cur - prev) <= 1e-14 * abs(cur):
            return cur
        prev = cur
        n *= 2
    raise RuntimeError(f"bump mass trapezoid sums not converged at {_MASS_MAX_NODES} nodes")


@dataclass(frozen=True)
class DeltaKernel:
    """The kernel h(x, y) together with its scale Q and bump tempering."""

    Q: float
    tempering: float = _TEMPERING_DEFAULT
    skew: float = _SKEW_DEFAULT

    def __post_init__(self):
        if self.Q <= 1:
            raise ValueError("Q must exceed 1")
        if self.tempering <= 0:
            raise ValueError("tempering must be positive")
        if not -1.0 < self.skew < 1.0:
            raise ValueError("skew must keep the bump positive")

    def omega(self, t) -> np.ndarray:
        """The unit-mass bump supported on [1/2, 1]."""
        return _omega_raw(t, self.tempering, self.skew) / _omega_mass(self.tempering, self.skew)

    def h(self, x: float, y: float) -> float:
        if x <= 0:
            raise ValueError("h requires x > 0")
        return float(self.h_many(x, np.asarray([y]))[0])

    def h_many(self, x: float, y: np.ndarray) -> np.ndarray:
        """h(x, y) over an array of finite y values at fixed x > 0.

        h(x, y) = C(x) - sum_j omega(t/j)/(xj) with t = |y|/x: the y-free
        part C(x) = sum_j omega(xj)/(xj) is one scalar, and omega(t/j) is
        nonzero only in each point's window t < j < 2t.  The walk starts
        every point at j = floor(t) + 1 and stops adding to it once
        j >= 2t, so each value depends only on its own y.  The work is
        about sum t over the points: finished points leave the working set
        once at least half of it has finished, while _WALK_MIN_POINTS stay.
        """
        if x <= 0:
            raise ValueError("h requires x > 0")
        y = np.asarray(y, dtype=np.float64)
        s, skew = self.tempering, self.skew
        # a bump value below the smallest subnormal is 0, not an error
        with np.errstate(under="ignore"):
            t = np.abs(y.ravel())
            t /= x
            t_max = float(t.max(initial=0.0))
            if not math.isfinite(t_max):
                raise ValueError("h requires finite y (and a finite |y|/x)")
            if t_max >= _WALK_MAX_T:
                raise ValueError(f"h requires |y|/x < 2^52, got {t_max:.3g}")
            out = np.full(t.shape, self._y_free_part(x))
            norm = x * _omega_mass(s, skew)
            # j and 2t are exact, and a quotient t/j by an integer j rounds
            # to 1/2 or 1 only where it equals them: every u = t/j evaluated
            # below, with t < j < 2t, lies in (1/2, 1) after rounding too
            idx = np.flatnonzero(t > 0.5)
            t = t[idx]
            j = np.floor(t)
            j += 1.0
            t2 = t + t
            live = j < t2
            if not live.all():  # t = 1: the window 1 < j < 2 is empty
                idx, t, j, t2 = idx[live], t[live], j[live], t2[live]
            # acc[i] = sum over point idx[i]'s window of omega_raw(t/j)/j;
            # the first term is every point's, and few have many more
            acc = _omega_core(t / j, s, skew)
            acc /= j
            j += 1.0
            pos = np.arange(t.size)  # the working set, as positions in acc
            live = j < t2
            while k := np.count_nonzero(live):
                if k >= _WALK_MIN_POINTS and 2 * k <= live.size:
                    pos, t, j, t2 = pos[live], t[live], j[live], t2[live]
                    live = j < t2
                # finished points stay at u = 3/4, and their term is dropped
                u = np.divide(t, j, out=np.full_like(t, 0.75), where=live)
                term = _omega_core(u, s, skew)
                term /= j
                term *= live
                acc[pos] += term
                j += 1.0
                live = j < t2
            acc /= norm
            out[idx] -= acc
        return out.reshape(y.shape)

    def _y_free_part(self, x: float) -> float:
        """C(x) = sum_j omega(xj)/(xj) over the j with 1/2 < xj < 1: the
        part of h(x, y) that does not depend on y."""
        xj = [x * j for j in range(max(1, int(0.5 / x)), int(1.0 / x) + 2) if 0.5 < x * j < 1.0]
        if not xj:
            return 0.0
        xj = np.array(xj)
        mass = _omega_mass(self.tempering, self.skew)
        return float(np.sum(_omega_core(xj, self.tempering, self.skew) / xj)) / mass

    def support_bound(self, y_max: float) -> float:
        """h(x, y) = 0 for all |y| <= y_max once x exceeds this bound: then
        xj > 1 for every j >= 1, and each point's window |y|/x < j < 2|y|/x
        holds no integer."""
        return max(1.0, 2.0 * abs(y_max))


def delta_symbol(kernel: DeltaKernel, n: int, q_max: int | None = None) -> float:
    """(1/Q^2) sum_{q <= q_max} c_q(n) h(q/Q, n/Q^2), the smoothed indicator
    of n = 0.  The unit-coprime a-sum is the Ramanujan sum c_q(n)."""
    Q = kernel.Q
    needed = int(math.ceil(kernel.support_bound(n / Q**2) * Q))
    if q_max is None:
        q_max = needed
    if q_max < needed:
        raise ValueError(f"q_max={q_max} truncates inside kernel support (need {needed})")
    y = n / Q**2
    total = 0.0
    for q in range(1, q_max + 1):
        hval = kernel.h(q / Q, y)
        if hval != 0.0:
            total += ramanujan_sum(q, n) * hval
    return total / Q**2


# ---------------------------------------------------------------------------
# Oscillatory integrals
# ---------------------------------------------------------------------------


# Uniform trapezoid rule of the expansion side (poisson_rhs): its integrand
# w(t) h(r, F(t) - m0) is smooth and vanishes with all its derivatives on the
# edge of the support box, so the rule converges spectrally and needs about
# 2 nodes per phase cycle and 1 per amplitude feature, against 7 and 5 for
# tensor Gauss-Legendre.
_TRAPEZOID_PER_CYCLE = 2
_TRAPEZOID_PER_FEATURE = 1
# tensor Gauss-Legendre rule of osc_integral: nodes per phase cycle and per
# amplitude feature, and the ratio of its error grid's node count to its own
_GL_PER_CYCLE = 7
_GL_PER_FEATURE = 5
_GL_REFINE = 1.35
# singular_integral's first mollifier width, per unit of max(1, |m0|)
_MOLLIFIER_EPS0 = 0.2

# grid points per slab of _amplitude_grid and _mollified before the crop to
# the support: 512 KiB per float64 temporary, about a third of that on a
# ball once cropped.  Measured on uncropped slabs of the identity and
# osc_monitor inputs (2^14 to 2^20 and one block): peak RSS grew with the
# slab above 2^16, time was flat or worse, and 2^14 cut osc_monitor's minor
# page faults per round from 24k to 3.8k but ran slower there and on
# identity (4x the slabs, each with its own call overhead).  On cropped
# slabs 2^14 still takes fewer faults there (7.1k against 17-20k per round),
# but its CPU per round stayed within the run-to-run spread (2-core machine)
_SLAB_POINTS = 1 << 16


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts per axis for the two quadrature rules.

    `nodes_for` is the tensor Gauss-Legendre rule of osc_integral and
    `trapezoid_nodes_for` the uniform trapezoid rule of
    pipeline.poisson_rhs, each with the fixed per-cycle and per-feature
    constants above.  base_nodes and max_nodes bound both; singular_integral
    reads max_nodes only."""

    base_nodes: int = 24
    max_nodes: int = 320

    def __post_init__(self):
        if self.base_nodes < 1 or self.max_nodes < 1:
            raise ValueError("base_nodes and max_nodes must be at least 1")
        if self.base_nodes > self.max_nodes:
            raise ValueError(f"base_nodes {self.base_nodes} exceeds max_nodes {self.max_nodes}")

    def nodes_for(self, cycles: float, features: float = 0.0) -> int:
        """Gauss-Legendre node count resolving `cycles` phase oscillations
        plus `features` amplitude features per axis (the kernel amplitude
        varies on the scale r in its second argument, which is much finer
        than the phase for small r)."""
        return self._rule(_GL_PER_CYCLE * cycles + _GL_PER_FEATURE * features)

    def trapezoid_nodes_for(self, cycles: float, features: float = 0.0) -> int:
        """Trapezoid node count for the same `cycles` and `features`."""
        return self._rule(_TRAPEZOID_PER_CYCLE * cycles + _TRAPEZOID_PER_FEATURE * features)

    def _rule(self, demand: float) -> int:
        return min(self.max_nodes, max(self.base_nodes, int(math.ceil(demand)) + 8))


@lru_cache(maxsize=None)
def _gl_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], read-only and shared by
    every grid of n nodes per axis."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gl_axis(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [lo, hi], as fresh arrays."""
    x, w = _gl_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _gl_box(weight: WeightSpec, nodes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gauss-Legendre nodes and weights along each axis of the support box."""
    lo, hi = weight.support_box()
    pairs = [_gl_axis(float(lo[i]), float(hi[i]), nodes[i]) for i in range(3)]
    return [x for x, _ in pairs], [w for _, w in pairs]


def _trapezoid_box(weight: WeightSpec, nodes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Uniform trapezoid nodes and weights along each axis of the support
    box: the n interior nodes lo + k h, k = 1..n, h = (hi - lo) / (n + 1),
    each of weight h (the integrand vanishes at both ends)."""
    lo, hi = weight.support_box()
    axes, wts = [], []
    for i in range(3):
        h = (float(hi[i]) - float(lo[i])) / (nodes[i] + 1)
        axes.append(float(lo[i]) + h * np.arange(1, nodes[i] + 1))
        wts.append(np.full(nodes[i], h))
    return axes, wts


def _slabs(nodes):
    """(x1 slice, x2 slice) pairs that cover an (n0, n1, n2) tensor grid in
    slabs of at most _SLAB_POINTS points, in C order: whole x1 rows while
    they fit, and one row split along x2 when it is wider (a slab is never
    narrower than one x3 line)."""
    n0, n1, n2 = nodes
    cols = max(1, min(n1, _SLAB_POINTS // n2))
    rows = max(1, _SLAB_POINTS // (cols * n2))
    for i in range(0, n0, rows):
        for j in range(0, n1, cols):
            yield slice(i, i + rows), slice(j, j + cols)


def _support_slabs(weight: WeightSpec, axes):
    """The slabs of _slabs over the tensor grid `axes`, each cropped to the
    support's widest cross-section over its x1 rows: (x1 slice, x2 slice,
    x3 slice) triples in C order, the x2 and x3 slices the node ranges where
    the squared offset is within weight.section of the rows' least squared
    x1 offset.  A slab with no node in that range is left out, so every
    node where w > 0 lies in exactly one triple's sub-box."""
    u = [weight.offsets2(x, i) for i, x in enumerate(axes)]
    for s0, s1 in _slabs(tuple(len(x) for x in axes)):
        bound = weight.section(float(u[0][s0].min()))
        if bound is None:
            continue
        j = np.flatnonzero(u[1][s1] <= bound)
        k = np.flatnonzero(u[2] <= bound)
        if j.size and k.size:
            yield s0, slice(s1.start + j[0], s1.start + j[-1] + 1), slice(k[0], k[-1] + 1)


def _axis_factors(axes, wts, freqs, r: float) -> list[np.ndarray]:
    """Quadrature-weighted phase matrices P_i[a, j] = w_j e_r(-f_a t_j) along
    each axis, one row per frequency f_a in freqs[i]."""
    return [np.exp(-2j * np.pi * np.outer(f, x) / r) * w for f, x, w in zip(freqs, axes, wts)]


def _amplitude_grid(
    instance: ProblemInstance,
    kernel: DeltaKernel,
    r: float,
    nodes: tuple[int, int, int],
    factors,
    yscale: float = 1.0,
    *,
    box=_gl_box,
) -> np.ndarray | None:
    """U[a, b, c] = sum_ijk P0[a, i] P1[b, j] P2[c, k] A[i, j, k] for the
    weighted kernel amplitude A = w(t) h(r, yscale*(F(t)-m0)) on the tensor
    grid `box(weight, nodes)` (Gauss-Legendre by default, or _trapezoid_box)
    over the weight support box, with the complex factors
    (P0, P1, P2) = factors(axes, axis weights); None when A is 0 everywhere.
    yscale != 1 arises when the kernel scale is decoupled from the
    geometric scale sqrt(N)/L.

    A is never held whole.  Each slab, cropped to the support
    (_support_slabs), computes w, F - m0 and h_many as one evaluation over
    the whole grid would (each value depends on its own point alone: w and
    F are pointwise, and h_many gives a point the scalar C(r) less its own
    window's terms), and is contracted at once along x3, with the rows of
    P2^T its crop spans, into its own entries of the zero-initialised
    complex (n0, n1, m2) intermediate: A is 0 outside the crops.  Then x2
    (complex matmuls per x1 node) and x1 (one complex GEMM) follow, so
    memory is O(slab + m2 n0 n1 + m1 m2 n0)."""
    axes, wts = box(instance.weight, nodes)
    p0, p1, p2 = factors(axes, wts)
    n0, n1, _ = nodes
    # P2^T as float64 columns (Re, Im) per row of P2: a real slab times its
    # rows is the x3 stage, and the rows of t read back as complex
    p2 = np.ascontiguousarray(p2.T).view(np.float64)
    # t is zeroed by fill, and each slab's product is copied in from its own
    # GEMM: with np.zeros, or a stacked matmul written into t's strided
    # sub-box, the identity benchmark's peak RSS read 53.5-53.8 MB in place
    # of 52.0-52.2 at some checkout path lengths (a different heap layout)
    t = np.empty((n0, n1, p2.shape[1]))
    t.fill(0.0)
    live = False
    for s0, s1, s2 in _support_slabs(instance.weight, axes):
        grid = np.ix_(axes[0][s0], axes[1][s1], axes[2][s2])
        slab = instance.weight.values(*grid)
        mask = slab > 0.0
        if not np.any(mask):
            continue
        y = yscale * (form_values(instance.form, *grid)[mask] - instance.m0)
        slab[mask] *= kernel.h_many(r, y)
        live = live or bool(np.any(slab))
        rows, cols, _ = slab.shape
        t[s0, s1] = (slab.reshape(rows * cols, -1) @ p2[s2]).reshape(rows, cols, -1)
    if not live:
        return None
    t = p1 @ t.view(np.complex128)
    return (p0 @ t.reshape(n0, -1)).reshape(len(p0), len(p1), -1)


def osc_cycles(instance: ProblemInstance, r: float, b) -> float:
    """Oscillation count of e_r(-b.t) across the weight support per axis."""
    width = 2.0 * instance.weight.radius
    return max(abs(float(bi)) for bi in b) * width / r if any(b) else 0.0


def osc_integral(
    instance: ProblemInstance,
    r: float,
    b,
    quad: QuadratureSpec = QuadratureSpec(),
) -> tuple[complex, float]:
    """I_r(w; b) = int w(t) h(r, F(t)-m0) e_r(-b.t) dt, h at scale max(Q, 1 + 1e-9),
    with an error estimate from a second grid: a refined one, or at the node
    cap a coarser one (the value then comes from the capped grid)."""
    if r <= 0:
        raise ValueError("r must be positive")
    kernel = DeltaKernel(Q=max(float(instance.Q), 1.0 + 1e-9))

    def factors(axes, wts):
        return _axis_factors(axes, wts, [[bi] for bi in b], r)

    def value(n: int) -> complex:
        u = _amplitude_grid(instance, kernel, r, (n, n, n), factors)
        return 0j if u is None else u.item()

    n = quad.nodes_for(osc_cycles(instance, r, b), 2.0 * form_range(instance) / r)
    fine = min(quad.max_nodes, int(math.ceil(n * _GL_REFINE)) + 1)
    if fine > n:
        n, other = fine, n
    else:
        other = int(math.ceil(n / _GL_REFINE))
    val = value(n)
    return val, abs(val - value(other))


# ---------------------------------------------------------------------------
# Singular integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularIntegral:
    """Mollifier-extrapolated archimedean density with its coarea cross-check.

    ladder holds (width, Gauss-Legendre nodes per axis) per mollifier width;
    coarea_axis is the axis the coarea route solved along, None when every
    square coefficient is 0 and the coarea fields repeat the mollifier's."""

    value: float
    error: float
    coarea_value: float
    coarea_error: float
    converged: bool
    ladder: tuple[tuple[float, int], ...]
    coarea_axis: int | None

    def consistent(self) -> bool:
        tol = self.error + self.coarea_error + 1e-9
        return abs(self.value - self.coarea_value) <= tol


def _mollified(instance: ProblemInstance, nodes: int, widths) -> list[float]:
    """int w(t) phi_e(F(t) - m0) dt with a Gaussian phi_e of each width e,
    on one nodes^3 Gauss-Legendre grid over the support box.

    One pass over the grid in slabs cropped to the support
    (_support_slabs): per slab, w and F - m0 are evaluated once, the
    weighted amplitude W = w w_i w_j w_k and y = F - m0 are kept where w > 0
    only, and every width adds sum W exp(-(y/e)^2 / 2) to its own sum.
    Memory is O(_SLAB_POINTS) at any node count."""
    axes, wts = _gl_box(instance.weight, (nodes, nodes, nodes))
    sums = [0.0] * len(widths)
    for s0, s1, s2 in _support_slabs(instance.weight, axes):
        grid = np.ix_(axes[0][s0], axes[1][s1], axes[2][s2])
        w = instance.weight.values(*grid)
        mask = w > 0.0
        if not np.any(mask):
            continue
        w *= wts[0][s0, None, None]
        w *= wts[1][None, s1, None]
        w *= wts[2][s2]
        amp = w[mask]
        y = form_values(instance.form, *grid)[mask]
        y -= instance.m0
        for k, e in enumerate(widths):
            g = y / e
            np.square(g, out=g)
            g *= -0.5
            np.exp(g, out=g)
            # einsum, not BLAS: a threaded dot spends more on its threads
            # than on one slab, and its rounding follows the thread count
            sums[k] += float(np.einsum("i,i->", amp, g))
    return [s / (e * math.sqrt(2.0 * math.pi)) for s, e in zip(sums, widths)]


def coarea_integral(instance: ProblemInstance) -> tuple[float, float]:
    """Surface route: sum over the sheets of {F = m0} along x_k, the last
    axis with a nonzero square coefficient (QForm.solve_order; the other two
    coordinates span a 2-D Gauss-Legendre grid of 160 and then 224 nodes
    per axis, the error their difference), of w / |dF/dx_k|; requires a
    nonzero square coefficient."""
    order = instance.form.solve_order()
    if order is None:
        raise ValueError("coarea route requires a nonzero square coefficient")
    a11, a22, a33, a12, a13, a23 = instance.form.permuted(order).coefficients()
    lo, hi = instance.weight.support_box()

    def run(n: int) -> float:
        x1, w1 = _gl_axis(float(lo[order[0]]), float(hi[order[0]]), n)
        x2, w2 = _gl_axis(float(lo[order[1]]), float(hi[order[1]]), n)
        g1, g2 = np.ix_(x1, x2)
        bb = a13 * g1 + a23 * g2
        cc = a11 * g1 * g1 + a22 * g2 * g2 + a12 * g1 * g2 - instance.m0
        disc = bb * bb - 4.0 * a33 * cc
        total = 0.0
        for sign in (1.0, -1.0):
            with np.errstate(invalid="ignore"):
                root = (-bb + sign * np.sqrt(np.where(disc > 0, disc, np.nan))) / (2.0 * a33)
            grad3 = 2.0 * a33 * root + bb
            ok = np.isfinite(root) & (np.abs(grad3) > 1e-12)
            point = [None] * 3
            point[order[0]], point[order[1]], point[order[2]] = g1, g2, root
            vals = np.zeros((n, n))
            vals[ok] = instance.weight.values(*point)[ok] / np.abs(grad3[ok])
            total += float(np.einsum("ij,i,j->", vals, w1, w2))
        return total

    v1, v2 = run(160), run(224)
    return v2, abs(v2 - v1)


def singular_integral(
    instance: ProblemInstance, quad: QuadratureSpec = QuadratureSpec()
) -> SingularIntegral:
    """Archimedean density: Gaussian mollifier with Richardson extrapolation
    over eps -> 0, cross-checked against the coarea form."""
    scale = max(1.0, abs(float(instance.m0)))
    widths = [_MOLLIFIER_EPS0 * scale / 2**k for k in range(3)]
    ladder = tuple((e, min(quad.max_nodes, max(48, int(24 * scale / e)))) for e in widths)
    # one pass per node count serves every width on it; the count never
    # falls as the width halves, so the passes return the values in order
    passes: dict[int, list[float]] = {}
    for e, n in ladder:
        passes.setdefault(n, []).append(e)
    vals = [v for n, es in passes.items() for v in _mollified(instance, n, es)]
    # I(eps) = I0 + c eps^2 + ..., so Richardson in eps^2
    r1 = (4.0 * vals[1] - vals[0]) / 3.0
    r2 = (4.0 * vals[2] - vals[1]) / 3.0
    err = abs(r2 - r1)
    converged = err < 0.05 * max(abs(r2), 1e-12) + 1e-9
    order = instance.form.solve_order()
    if order is None:
        cv, ce = r2, err  # no independent sheet route available
    else:
        cv, ce = coarea_integral(instance)
    return SingularIntegral(
        value=r2,
        error=err,
        coarea_value=cv,
        coarea_error=ce,
        converged=converged,
        ladder=ladder,
        coarea_axis=None if order is None else order[2],
    )


def form_range(instance: ProblemInstance) -> float:
    """max |F(t) - m0| over the weight support box (sampled on 33 points
    per axis, 5% margin)."""
    lo, hi = instance.weight.support_box()
    axes = np.ix_(*(np.linspace(float(lo[i]), float(hi[i]), 33) for i in range(3)))
    y = np.abs(form_values(instance.form, *axes) - instance.m0)
    return 1.05 * float(y.max())
