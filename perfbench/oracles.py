"""Reference computations for the benchmark's correctness checks.

Nothing here imports qdelta: every value is recomputed from the definitions
(plain loops, or a uniform trapezoid grid) so that a check compares the
program against an independent route, never against a saved copy of its own
output.  Instances are described by the same flat config dictionaries the
workloads hand to the program.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np


# ---------------------------------------------------------------------------
# Instances as plain data
# ---------------------------------------------------------------------------


def coefficients(cfg: dict) -> tuple[int, int, int, int, int, int]:
    return tuple(int(cfg.get(k, 0)) for k in ("a11", "a22", "a33", "a12", "a13", "a23"))


def form_value(co, x) -> int:
    a11, a22, a33, a12, a13, a23 = co
    x1, x2, x3 = x
    return a11 * x1 * x1 + a22 * x2 * x2 + a33 * x3 * x3 + a12 * x1 * x2 + a13 * x1 * x3 + a23 * x2 * x3


def gram_det(co) -> int:
    a11, a22, a33, a12, a13, a23 = co
    m12, m13, m23 = a12 // 2, a13 // 2, a23 // 2
    return (
        a11 * (a22 * a33 - m23 * m23)
        - m12 * (m12 * a33 - m23 * m13)
        + m13 * (m12 * m23 - a22 * m13)
    )


def ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace(",", " ").split())


def floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def legendre(a: int, p: int) -> int:
    """(a / p) for an odd prime p, by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# Weighted lattice count
# ---------------------------------------------------------------------------


def ball_weight(t, center, radius) -> float:
    """The smooth ball bump exp(1 - 1/(1 - u^2)), u = |t - center| / radius."""
    u2 = sum(((ti - ci) / radius) ** 2 for ti, ci in zip(t, center))
    if u2 >= 1.0:
        return 0.0
    return math.exp(1.0 - 1.0 / (1.0 - u2))


def weighted_count(cfg: dict, h: int | None = None) -> tuple[float, int]:
    """Sum of w(x / p0^h) over the integer points of the support box with
    F(x) = m0 p0^(2h) and x = p0^h lambda (mod L): a full triple loop."""
    if cfg.get("weight_profile", "ball") != "ball":
        raise ValueError("the reference count implements the ball profile only")
    co = coefficients(cfg)
    h = int(cfg.get("h", 1)) if h is None else h
    s = int(cfg["p0"]) ** h
    target = int(cfg["m0"]) * s * s
    L = int(cfg.get("L", 1))
    lam = tuple(s * v % L for v in ints(cfg.get("lambda", "0,0,0")))
    center = floats(cfg["weight_center"])
    radius = float(cfg["weight_radius"])
    axes = []
    for i in range(3):
        lo = math.ceil((center[i] - radius) * s)
        lo += (lam[i] - lo) % L
        axes.append(range(lo, math.floor((center[i] + radius) * s) + 1, L))
    values = []
    for x in product(*axes):
        if form_value(co, x) == target:
            v = ball_weight([xi / s for xi in x], center, radius)
            if v > 0.0:
                values.append(v)
    return math.fsum(values), len(values)


# ---------------------------------------------------------------------------
# Exponential sums and local counts
# ---------------------------------------------------------------------------


def sqc_amplitudes(cfg: dict, q: int) -> list[tuple[tuple[int, int, int], float]]:
    """(sigma, a-sum) pairs of S_q(c): sigma mod qL with L^2 | F(L sigma +
    lambda_N) - m0 N, and the coprime a-sum of e_q(a (F - m0 N) / L^2)."""
    co = coefficients(cfg)
    h = int(cfg.get("h", 1))
    s = int(cfg["p0"]) ** h
    mN = int(cfg["m0"]) * s * s
    L = int(cfg.get("L", 1))
    lam = tuple(s * v % L for v in ints(cfg.get("lambda", "0,0,0")))
    units = [a for a in range(q) if math.gcd(a, q) == 1]
    asum = [sum(math.cos(2.0 * math.pi * a * k / q) for a in units) for k in range(q)]
    out = []
    for sigma in product(range(q * L), repeat=3):
        g = form_value(co, tuple(L * si + li for si, li in zip(sigma, lam))) - mN
        if g % (L * L) == 0:
            out.append((sigma, asum[(g // (L * L)) % q]))
    return out


def sqc_value(amplitudes, qL: int, c) -> complex:
    """S_q(c) = sum over sigma of a-sum * e_{qL}(c . sigma)."""
    tab = [cmath.exp(2j * math.pi * k / qL) for k in range(qL)]
    total = 0j
    for (s1, s2, s3), a in amplitudes:
        total += a * tab[(c[0] * s1 + c[1] * s2 + c[2] * s3) % qL]
    return total


def count_mod_p(cfg: dict, p: int) -> int:
    """Solutions of F(x) = m0 mod p, by a triple loop over residues."""
    co = coefficients(cfg)
    m0 = int(cfg["m0"]) % p
    return sum(1 for x in product(range(p), repeat=3) if (form_value(co, x) - m0) % p == 0)


# ---------------------------------------------------------------------------
# Oscillatory integral on a uniform grid
# ---------------------------------------------------------------------------

# The default delta kernel: a bump on (1/2, 1) with tempering 0.4 and a
# linear skew -0.25, normalised to unit mass.
KERNEL_TEMPERING = 0.4
KERNEL_SKEW = -0.25


def _omega_raw(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 1.0)
    ti = t[inside]
    out[inside] = np.exp(-KERNEL_TEMPERING / ((ti - 0.5) * (1.0 - ti))) * (1.0 + KERNEL_SKEW * (ti - 0.75))
    return out


def omega_mass(n: int = 20001) -> float:
    """Unit-mass constant of the bump; the integrand vanishes to all orders at
    both ends, so the trapezoid rule converges faster than any power of n."""
    t = np.linspace(0.5, 1.0, n)
    return float(np.sum(_omega_raw(t)) * (t[1] - t[0]))


def kernel_h(r: float, y: np.ndarray, mass: float) -> np.ndarray:
    """h(r, y) = sum_{j >= 1} (rj)^-1 [omega(rj) - omega(|y| / (rj))]."""
    ay = np.abs(y)
    jmax = int(math.ceil(max(1.0, 2.0 * float(ay.max(initial=0.0))) / r)) + 1
    out = np.zeros_like(ay)
    for j in range(1, jmax + 1):
        rj = r * j
        out += (_omega_raw(np.array([rj]))[0] - _omega_raw(ay / rj)) / (mass * rj)
    return out


def osc_trapezoid(cfg: dict, r: float, b, n: int, mass: float) -> complex:
    """I_r(w; b) = int w(t) h(r, F(t) - m0) e(-b.t / r) dt as a uniform n^3
    Riemann sum over the weight's support box, one x1-slab at a time."""
    co = coefficients(cfg)
    a11, a22, a33, a12, a13, a23 = co
    m0 = int(cfg["m0"])
    center = floats(cfg["weight_center"])
    radius = float(cfg["weight_radius"])
    axes = [np.linspace(c - radius, c + radius, n) for c in center]
    step = axes[0][1] - axes[0][0]
    e = [np.exp(-2j * np.pi * b[i] * axes[i] / r) for i in range(3)]
    x2, x3 = np.meshgrid(axes[1], axes[2], indexing="ij")
    d23 = ((x2 - center[1]) / radius) ** 2 + ((x3 - center[2]) / radius) ** 2
    total = 0j
    for i, x1 in enumerate(axes[0]):
        u2 = d23 + ((x1 - center[0]) / radius) ** 2
        inside = u2 < 1.0
        if not inside.any():
            continue
        amp = np.zeros_like(u2)
        amp[inside] = np.exp(1.0 - 1.0 / (1.0 - u2[inside]))
        f = (a11 * x1 * x1 + a22 * x2 * x2 + a33 * x3 * x3 + a12 * x1 * x2
             + a13 * x1 * x3 + a23 * x2 * x3 - m0)
        amp[inside] *= kernel_h(r, f[inside], mass)
        total += e[0][i] * (e[1] @ amp @ e[2])
    return complex(total * step**3)
