"""Archimedean layer: smooth weights, the delta-method kernel, oscillatory
integrals and the singular integral.

Every integrand is w(t) g(F(t) - m0) on a tensor grid; w and F are evaluated
by broadcasting the three 1-D axes (np.ix_), never on a stacked point array.

The kernel h(x, y) = sum_{j>=1} (xj)^{-1} [omega(xj) - omega(|y|/(xj))] is
built from a bump omega supported on [1/2, 1].  Two exact facts drive the
implementation and its tests:

* at n = 0 the normalized q-sum collapses to (1/Q) sum_m omega(m/Q), so
  normalizing omega to unit mass makes the drift from 1 exponentially small;
* at n != 0 the q-sum telescopes to exactly zero over divisor pairs of n,
  independent of omega.

The bump carries a tempering exponent: a gentler-than-standard decay at the
support endpoints flattens its Fourier transform near the origin, which is
what keeps the n = 0 drift small already at Q = 5.  The mass constant is
calibrated once by quadrature and cached (optionally on disk under
QDELTA_CACHE_DIR).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy import integrate

from .modarith import ramanujan_sum
from .qform import ProblemInstance, QForm, form_values

_TEMPERING_DEFAULT = 0.4
_SKEW_DEFAULT = -0.25


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------


def _bump_profile(u: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1-u^2)) for |u| < 1, zero outside; peak value 1 at u = 0."""
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    ui = u[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
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
        d1, d2, d3 = ((np.asarray(x, dtype=np.float64) - c) / self.radius
                      for x, c in zip((x1, x2, x3), self.center))
        if self.profile == "ball":
            return _bump_profile(np.sqrt(d1 * d1 + d2 * d2 + d3 * d3))
        return _bump_profile(d1) * _bump_profile(d2) * _bump_profile(d3)

    def support_box(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius

    def meets_variety(self, form: QForm, m0: int, samples: int = 41) -> bool:
        """Numerical check that Supp(w) meets {F = m0}: the sign of F - m0
        changes across sample points where w > 0."""
        lo, hi = self.support_box()
        axes = np.ix_(*(np.linspace(lo[i], hi[i], samples) for i in range(3)))
        w = self.values(*axes)
        f = form_values(form, *axes) - m0
        inside = w > 1e-12
        if not inside.any():
            return False
        fi = f[inside]
        return bool(fi.min() < 0 < fi.max())


# ---------------------------------------------------------------------------
# Delta kernel
# ---------------------------------------------------------------------------


def _omega_raw(t: np.ndarray, s: float, skew: float) -> np.ndarray:
    """Unnormalized tempered bump on (1/2, 1).

    The linear skew factor breaks the reflection symmetry about 3/4; a
    symmetric bump makes the Q = 5 and Q = 10 lattice sums coincide exactly
    (the grids are nested and reflection-paired), which would freeze the
    delta-identity drift instead of letting it shrink with Q.
    """
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 1.0)
    ti = t[inside]
    out[inside] = np.exp(-s / ((ti - 0.5) * (1.0 - ti))) * (1.0 + skew * (ti - 0.75))
    return out


def _cache_path() -> Path | None:
    d = os.environ.get("QDELTA_CACHE_DIR")
    return Path(d) / "omega_mass.json" if d else None


@lru_cache(maxsize=None)
def _omega_mass(s: float, skew: float) -> float:
    """Integral of the unnormalized bump, cached in process and on disk."""
    key = f"{s:.12g}|{skew:.12g}"
    path = _cache_path()
    if path is not None and path.exists():
        try:
            stored = json.loads(path.read_text())
            if key in stored:
                return float(stored[key])
        except (ValueError, OSError):
            pass
    val, err = integrate.quad(
        lambda t: math.exp(-s / ((t - 0.5) * (1.0 - t))) * (1.0 + skew * (t - 0.75)),
        0.5,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
    )
    if err > 1e-11:
        raise RuntimeError(f"bump mass quadrature too inaccurate: err={err}")
    if path is not None:
        try:
            stored = json.loads(path.read_text()) if path.exists() else {}
            stored[key] = val
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(stored, indent=1, sort_keys=True))
        except (ValueError, OSError):
            pass
    return val


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
        """h(x, y) over an array of y values at fixed x > 0.

        Terms vanish once xj > 1 (first part) and xj > 2|y| (second part),
        so the j-sum is finite.
        """
        if x <= 0:
            raise ValueError("h requires x > 0")
        y = np.asarray(y, dtype=np.float64)
        ay = np.abs(y)
        jmax = int(math.ceil(max(1.0, 2.0 * float(ay.max(initial=0.0))) / x)) + 1
        out = np.zeros_like(ay)
        for j in range(1, jmax + 1):
            xj = x * j
            first = float(self.omega(np.asarray([xj]))[0])
            out += (first - self.omega(ay / xj)) / xj
        return out

    def support_bound(self, y_max: float) -> float:
        """h(x, y) = 0 for all |y| <= y_max once x exceeds this bound."""
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


def delta_symbol_literal(kernel: DeltaKernel, n: int, q_max: int) -> float:
    """Same sum with the a-loop written out; oracle for the Ramanujan-sum
    collapse, restricted to small q_max."""
    if q_max > 50:
        raise ValueError("literal a-loop reserved for q_max <= 50")
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


# ---------------------------------------------------------------------------
# Oscillatory integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor Gauss-Legendre resolution control."""

    base_nodes: int = 24
    nodes_per_cycle: int = 7
    nodes_per_feature: int = 5
    max_nodes: int = 320
    refine_factor: float = 1.35

    def nodes_for(self, cycles: float, features: float = 0.0) -> int:
        """Node count resolving `cycles` phase oscillations plus `features`
        amplitude features per axis (the kernel amplitude varies on the scale
        r in its second argument, which is much finer than the phase for
        small r)."""
        n = max(
            self.base_nodes,
            int(math.ceil(self.nodes_per_cycle * cycles + self.nodes_per_feature * features)) + 8,
        )
        return min(n, self.max_nodes)


def _gl_axis(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _gl_box(weight: WeightSpec, nodes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gauss-Legendre nodes and weights along each axis of the support box."""
    lo, hi = weight.support_box()
    pairs = [_gl_axis(float(lo[i]), float(hi[i]), nodes[i]) for i in range(3)]
    return [x for x, _ in pairs], [w for _, w in pairs]


def _amplitude_grid(
    instance: ProblemInstance,
    kernel: DeltaKernel,
    r: float,
    nodes: tuple[int, int, int],
    yscale: float = 1.0,
):
    """Weighted kernel amplitude w(t) h(r, yscale*(F(t)-m0)) on a tensor GL
    grid over the weight support box; returns (axes, axis weights, amplitude
    array).  yscale != 1 arises when the kernel scale is decoupled from the
    geometric scale sqrt(N)/L."""
    axes, wts = _gl_box(instance.weight, nodes)
    grid = np.ix_(*axes)
    amp = instance.weight.values(*grid)
    mask = amp > 0.0
    if np.any(mask):
        y = yscale * (form_values(instance.form, *grid)[mask] - instance.m0)
        amp[mask] *= kernel.h_many(r, y)
    return axes, wts, amp


def _axis_factors(axes, wts, freqs, r: float) -> list[np.ndarray]:
    """Quadrature-weighted phase matrices P_i[a, j] = w_j e_r(-f_a t_j) along
    each axis, one row per frequency f_a in freqs[i]."""
    return [np.exp(-2j * np.pi * np.outer(f, x) / r) * w for f, x, w in zip(freqs, axes, wts)]


def _contract_axes(amp: np.ndarray, p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """T[a, b, c] = sum_ijk p0[a, i] p1[b, j] p2[c, k] amp[i, j, k] for a real
    (n0, n1, n2) amplitude and complex (m_i, n_i) factors.

    The first stage is one real GEMM against the stacked real and imaginary
    parts of p0, so the n0 n1 n2 amplitude is never copied to complex; the
    other two stages are complex matmuls on the (m0, n1, n2) intermediate."""
    n0, n1, n2 = amp.shape
    t = (np.concatenate([p0.real, p0.imag]) @ amp.reshape(n0, n1 * n2)).reshape(2, -1, n1, n2)
    return (p1 @ (t[0] + 1j * t[1])) @ p2.T


def osc_cycles(instance: ProblemInstance, r: float, b) -> float:
    """Oscillation count of e_r(-b.t) across the weight support per axis."""
    width = 2.0 * instance.weight.radius
    return max(abs(float(bi)) for bi in b) * width / r if any(b) else 0.0


def osc_integral(
    instance: ProblemInstance,
    r: float,
    b,
    quad: QuadratureSpec = QuadratureSpec(),
    kernel: DeltaKernel | None = None,
) -> tuple[complex, float]:
    """I_r(w; b) = int w(t) h(r, F(t)-m0) e_r(-b.t) dt with an error estimate
    from a second grid: a refined one, or at the node cap a coarser one (the
    value then comes from the capped grid)."""
    if r <= 0:
        raise ValueError("r must be positive")
    if kernel is None:
        kernel = DeltaKernel(Q=max(float(instance.Q), 1.0 + 1e-9))

    def value(n: int) -> complex:
        axes, wts, amp = _amplitude_grid(instance, kernel, r, (n, n, n))
        return _contract_axes(amp, *_axis_factors(axes, wts, [[bi] for bi in b], r)).item()

    n = quad.nodes_for(osc_cycles(instance, r, b), 2.0 * form_range(instance) / r)
    fine = min(quad.max_nodes, int(math.ceil(n * quad.refine_factor)) + 1)
    if fine > n:
        n, other = fine, n
    else:
        other = int(math.ceil(n / quad.refine_factor))
    val = value(n)
    return val, abs(val - value(other))


# ---------------------------------------------------------------------------
# Singular integral
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularIntegral:
    """Mollifier-extrapolated archimedean density with its coarea cross-check."""

    value: float
    error: float
    coarea_value: float
    coarea_error: float
    converged: bool

    def consistent(self) -> bool:
        tol = self.error + self.coarea_error + 1e-9
        return abs(self.value - self.coarea_value) <= tol


def _mollified(instance: ProblemInstance, eps: float, nodes: int) -> float:
    """int w(t) phi_eps(F(t) - m0) dt with a Gaussian phi_eps."""
    axes, wts = _gl_box(instance.weight, (nodes, nodes, nodes))
    grid = np.ix_(*axes)
    amp = instance.weight.values(*grid)
    y = form_values(instance.form, *grid) - instance.m0
    amp = amp * np.exp(-0.5 * (y / eps) ** 2) / (eps * math.sqrt(2.0 * math.pi))
    return float(np.einsum("ijk,i,j,k->", amp, wts[0], wts[1], wts[2]))


def coarea_integral(instance: ProblemInstance, nodes: int = 160) -> tuple[float, float]:
    """Surface route: sum over the x3-sheets of {F = m0} of w / |dF/dx3| on a
    2D grid; requires a nonzero x3^2 coefficient."""
    form = instance.form
    a11, a22, a33, a12, a13, a23 = form.coefficients()
    if a33 == 0:
        raise ValueError("coarea route requires a nonzero x3^2 coefficient")

    def run(n: int) -> float:
        lo, hi = instance.weight.support_box()
        x1, w1 = _gl_axis(float(lo[0]), float(hi[0]), n)
        x2, w2 = _gl_axis(float(lo[1]), float(hi[1]), n)
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
            vals = np.zeros((n, n))
            vals[ok] = instance.weight.values(g1, g2, root)[ok] / np.abs(grad3[ok])
            total += float(np.einsum("ij,i,j->", vals, w1, w2))
        return total

    v1, v2 = run(nodes), run(int(nodes * 1.4))
    return v2, abs(v2 - v1)


def singular_integral(
    instance: ProblemInstance, quad: QuadratureSpec = QuadratureSpec(), eps0: float = 0.2
) -> SingularIntegral:
    """Archimedean density: Gaussian mollifier with Richardson extrapolation
    over eps -> 0, cross-checked against the coarea form."""
    scale = max(1.0, abs(float(instance.m0)))
    eps = eps0 * scale
    vals = []
    for k in range(3):
        e = eps / 2**k
        nodes = min(quad.max_nodes, max(48, int(24 * scale / e)))
        vals.append(_mollified(instance, e, nodes))
    # I(eps) = I0 + c eps^2 + ..., so Richardson in eps^2
    r1 = (4.0 * vals[1] - vals[0]) / 3.0
    r2 = (4.0 * vals[2] - vals[1]) / 3.0
    err = abs(r2 - r1)
    converged = err < 0.05 * max(abs(r2), 1e-12) + 1e-9
    try:
        cv, ce = coarea_integral(instance)
    except ValueError:
        cv, ce = r2, err  # no independent sheet route available
    return SingularIntegral(value=r2, error=err, coarea_value=cv, coarea_error=ce, converged=converged)


def form_range(instance: ProblemInstance, samples: int = 33) -> float:
    """max |F(t) - m0| over the weight support box (sampled, 5% margin)."""
    lo, hi = instance.weight.support_box()
    axes = np.ix_(*(np.linspace(float(lo[i]), float(hi[i]), samples) for i in range(3)))
    y = np.abs(form_values(instance.form, *axes) - instance.m0)
    return 1.05 * float(y.max())
