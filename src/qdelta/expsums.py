"""Complete exponential sums for the delta-method expansion.

Ground truth is the definition-level sum S_q(c) over residues sigma mod qL
(the divisibility condition tested in exact integers), with its CRT factors
S1/S2, the closed forms of S1 (a Salie-sum table at every odd q1, Lemma 2.1
where q1 is prime to m0 N) and the character averages of the ramified part.

The unit a-sums are collapsed to Ramanujan sums c_q(m) via the Mobius/gcd
formula; the raw double loops live in the tests as oracles for that collapse.
Every sum here is one object, the amplitude A(s) = [L^2 | g] c_q(g / L^2)
with g = F(scale*s + lam) - target, s mod qL, summed against e_{qL}(c.s):
S_q(c), S1, S2, the cone sum calT1, and the character-organized calS, calA
and calT2.  Those three sum over beta mod lL^2 with beta = lam mod L; with
beta = L s + lam that is the amplitude at q = l times the phase
e_{lL^2}(k.lam).  One kernel, `_amplitude_rows`, builds A row by row by
gathering the Ramanujan table over the rows of g that `qform.residue_rows`
yields (the residue-grid kernel the local densities count with too); it has
two consumers: `_amplitude_sums` for a list of c, which builds each row once
and contracts it against every c's phases (memory O((qL)^2 + len(cs) qL)),
and `_amplitude_table` for every c mod qL at once (one FFT).  A sum is its
value alone: no term count is kept.  All vectorized reductions run in a
fixed order, the same for a c whatever list it comes in, so results are
reproducible bit-for-bit.

S_q(c) has one route at every q: S1 at modulus q1 in closed form
(`_s1_values`, on int64 arrays of c) times the definition-level S2 at
modulus q2 L, summed per c for a list (`sqc_values`), or taken once on the
cube of the residues mod qL that the dual window reaches and gathered onto
the sub-cube its support spans (`sqc_window`).  `sqc_grid` (the whole
(qL)^3 table), `brute_S1`, `brute_S1_grid` and `lemma21_eval` are oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modarith import divisors, factorize, jacobi, quadratic_roots, ramanujan_sum, smooth_part
from .qform import ProblemInstance, evaluate, residue_rows

_BRUTE_MODULUS_BOUND = 10**4
_CALS_BOUND = 10**4
_CALA_BOUND = 3000
# bytes per residue _amplitude_table holds at its peak: the real m^3
# amplitude, its complex FFT and the conjugate (40.0 traced at m = 125, 128)
_TABLE_BYTES = 8 + 16 + 16
# bytes per point of sqc_window's product at its peak: the complex product and
# the gathered S2 or the lam-phase's two real temporaries (32.1 traced, 101^3);
# the product and the support's sub-cube gathered from it hold 32 at most
_PRODUCT_BYTES = 8 * 4 + 1


@dataclass(frozen=True)
class ComplexSum:
    """Value of a finite exponential sum."""

    value: complex

    def __abs__(self) -> float:
        return abs(self.value)


def _exp_table(n: int) -> np.ndarray:
    """e(k/n) for k = 0..n-1, computed once per modulus."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def _sum_masked_phase(amp: np.ndarray, ph2: np.ndarray, ph3: np.ndarray) -> complex:
    """sum_{s2,s3} amp[s2,s3] * ph2[s2] * ph3[s3], fixed reduction order."""
    inner = amp @ ph3.real + 1j * (amp @ ph3.imag)
    return complex(ph2 @ inner)


@lru_cache(maxsize=None)
def _ramanujan_residue_table(q: int, L2: int) -> np.ndarray:
    """c_q(r // L2) for residues r mod q*L2 with L2 | r, else 0; tiled x3.

    c_q(m) depends on m only through gcd(m, q): one value per divisor of q.
    The tiling lets callers index with unreduced sums of three residues in
    [0, q*L2) without a folding pass.
    """
    r = np.arange(q * L2, dtype=np.int64)
    g = np.gcd(r // L2, q)
    vals = np.zeros(q * L2)
    for d in divisors(q):
        vals[(g == d) & (r % L2 == 0)] = ramanujan_sum(q, d)
    return np.tile(vals, 3)


def crt_split(instance: ProblemInstance, q: int) -> tuple[int, int]:
    """q = q1 * q2 with q2 the Omega-part of q and gcd(q1, q2*Omega) = 1."""
    if q < 1:
        raise ValueError("q must be positive")
    q2 = smooth_part(q, instance.omega)
    return q // q2, q2


def _check_modulus(modulus: int) -> None:
    if modulus > _BRUTE_MODULUS_BOUND:
        raise ValueError(f"modulus {modulus} exceeds brute-force bound {_BRUTE_MODULUS_BOUND}")


def _check_split(instance: ProblemInstance, q1: int, q2: int) -> None:
    if math.gcd(q1, q2 * abs(instance.omega)) != 1:
        raise ValueError("require gcd(q1, q2*Omega) = 1")


def _amplitude_rows(form, q: int, L: int, scale: int, lam, target: int):
    """Rows of A(s) = [L^2 | g] c_q(g / L^2), g = F(scale*s + lam) - target, for
    s mod qL: an iterator over s1 = 0..qL-1 of A[s1, :, :], the Ramanujan
    table gathered over qform.residue_rows at modulus qL^2.  The modulus
    bound is checked on the call, not on the first row."""
    size = q * L
    _check_modulus(size)
    ramanujan = _ramanujan_residue_table(q, L * L)
    return (ramanujan[r] for r in residue_rows(form, scale, lam, -target, q * L * L, size))


def _amplitude_sums(form, q: int, L: int, scale: int, lam, target: int, cs) -> list[ComplexSum]:
    """sum_s A(s) e_{qL}(c.s) for each c in cs, one row of A at a time: each
    row is built once and contracted against every c."""
    size = q * L
    rows = _amplitude_rows(form, q, L, scale, lam, target)
    cs = [tuple(int(v) % size for v in c) for c in cs]
    tab = _exp_table(size)
    s = np.arange(size)
    ph2 = [tab[(c[1] * s) % size] for c in cs]
    ph3 = [tab[(c[2] * s) % size] for c in cs]
    totals = [0j] * len(cs)
    for s1, amp in enumerate(rows):
        for k, c in enumerate(cs):
            totals[k] += tab[(c[0] * s1) % size] * _sum_masked_phase(amp, ph2[k], ph3[k])
    return [ComplexSum(total) for total in totals]


def _amplitude_table(form, q: int, L: int, scale: int, lam, target: int) -> np.ndarray:
    """sum_s A(s) e_{qL}(k.s) for every k mod qL, as a (qL)^3 array."""
    rows = _amplitude_rows(form, q, L, scale, lam, target)
    # filled in place: a list of row arrays stacked at the end fragments the
    # heap where tables are built one after another (calS over l)
    amp = np.empty((q * L,) * 3)
    for s1, row in enumerate(rows):
        amp[s1] = row
    return np.conj(np.fft.fftn(amp))


def brute_S(instance: ProblemInstance, q: int, c) -> ComplexSum:
    """Definition-level S_q(c): a mod q coprime, sigma mod qL with
    L^2 | F(L sigma + lam_N) - m0 N, summand e_{qL}(a (F(..)-m0N)/L + c.sigma).

    The a-sum is a Ramanujan sum; tests/test_expsums.py keeps the raw a- and
    sigma-loops (`brute_S_literal`, `brute_S_reordered`) as its oracle.
    """
    return _S_sums(instance, q, [c])[0]


def _S_sums(instance: ProblemInstance, q: int, cs) -> list[ComplexSum]:
    """brute_S at each c in cs, from one pass over the residue amplitude."""
    L = instance.L
    return _amplitude_sums(instance.form, q, L, L, instance.lam_N, instance.mN, cs)


def brute_S1(instance: ProblemInstance, q1: int, q2: int, c) -> ComplexSum:
    """Definition-level S1: sigma mod q1, a1 mod q1 coprime,
    e_{q1}(a1 (F(q2 L^2 sigma + lam_N) - m0 N) + c.sigma)."""
    return _S1_sums(instance, q1, q2, [c])[0]


def _S1_sums(instance: ProblemInstance, q1: int, q2: int, cs) -> list[ComplexSum]:
    """brute_S1 at each c in cs, from one pass over the residue amplitude."""
    _check_split(instance, q1, q2)
    scale = q2 * instance.L * instance.L
    return _amplitude_sums(instance.form, q1, 1, scale, instance.lam_N, instance.mN, cs)


def brute_S1_grid(instance: ProblemInstance, q1: int, q2: int) -> np.ndarray:
    """S1 for every c mod q1 at once (FFT over the sigma grid)."""
    _check_split(instance, q1, q2)
    scale = q2 * instance.L * instance.L
    return _amplitude_table(instance.form, q1, 1, scale, instance.lam_N, instance.mN)


def brute_S2(instance: ProblemInstance, q1: int, q2: int, c) -> ComplexSum:
    """Definition-level S2: sigma mod q2 L with L^2 | F(L q1 sigma + lam_N) - m0 N,
    a2 mod q2 coprime, e_{q2 L}(a2 (...)/L + c.sigma)."""
    return _S2_sums(instance, q1, q2, [c])[0]


def _S2_sums(instance: ProblemInstance, q1: int, q2: int, cs) -> list[ComplexSum]:
    """brute_S2 at each c in cs, from one pass over the residue amplitude."""
    _check_split(instance, q1, q2)
    L = instance.L
    return _amplitude_sums(instance.form, q2, L, L * q1, instance.lam_N, instance.mN, cs)


def _salie_table(instance: ProblemInstance, q1: int) -> np.ndarray:
    """(det/q1) eps^3 q1^{3/2} K(m), m = 0..q1-1, eps = 1 or i (eps^3 = -i) as
    q1 = 1 or 3 mod 4, K(m) = sum*_{a mod q1} (a/q1) e_{q1}(-a m0 N - abar m):
    one FFT of f(b) = (b/q1) e_{q1}(-bbar m0 N) over the units b = abar."""
    b = np.arange(q1, dtype=np.int64)
    chi = np.ones(q1, dtype=np.int64)  # (b/q1), a product of Legendre tables
    for p, e in factorize(q1):
        legendre = np.full(p, -1, dtype=np.int64)
        legendre[b[:p] ** 2 % p] = 1
        legendre[0] = 0
        chi *= legendre[b % p] ** e
    units = np.flatnonzero(chi)
    inv = np.array([pow(u, -1, q1) for u in units.tolist()], dtype=np.int64)
    f = np.zeros(q1, dtype=np.complex128)
    f[units] = chi[units] * np.exp(-2j * np.pi * (inv * (instance.mN % q1) % q1) / q1)
    return jacobi(instance.form.det(), q1) * (1 if q1 % 4 == 1 else -1j) * q1**1.5 * np.fft.fft(f)


def _s1_values(instance: ProblemInstance, q1: int, q2: int, c1, c2, c3) -> np.ndarray:
    """S1 on int64 arrays c1, c2, c3 broadcast together.  Every prime of q1
    is odd and prime to det, so Gauss sums complete the square, whether or
    not it divides m0 N: S1(c) = e_{q1}(-sbar c.lam_N) T(kappa F*(c)), with
    T = _salie_table, s = q2 L^2 and kappa = (4 det s^2)^{-1} mod q1.  c is
    reduced mod q1 first, so no int64 step exceeds q1^2."""
    _check_split(instance, q1, q2)
    s = q2 * instance.L * instance.L
    inv_s = pow(s, -1, q1)
    kappa = pow(4 * instance.form.det() * s * s, -1, q1)
    r = [np.asarray(c, dtype=np.int64) % q1 for c in (c1, c2, c3)]
    # the class key kappa F*(c) mod q1, one reduced term at a time
    coeffs = (a * kappa % q1 for a in instance.form.dual().coefficients())
    key = np.zeros(np.broadcast_shapes(*(x.shape for x in r)), dtype=np.int64)
    for a, (x, y) in zip(coeffs, ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
        if a:
            key += (a * r[x] % q1) * r[y] % q1
    key %= q1
    out = _salie_table(instance, q1)[key]
    del key
    turn = 2.0 * np.pi / q1
    for lam, x in zip(instance.lam_N, r):
        if lam % q1:
            _mul_in_place(out, np.exp(1j * (turn * ((-inv_s * lam) % q1 * x % q1))))
    return out


def _mul_in_place(out: np.ndarray, z: np.ndarray) -> None:
    """out *= z by four real products: numpy's complex multiply rounds
    differently on different memory layouts, this the same on all."""
    re, im = out.real, out.imag
    re_z, im_z = re * z.imag, im * z.imag
    re *= z.real
    re -= im_z
    im *= z.real
    im += re_z


def lemma21_eval(instance: ProblemInstance, q1: int, q2: int, c) -> ComplexSum:
    """Lemma 2.1, the oracle for _s1_values at q1 prime to 2 m0 N: S1(c) =
    q1^2 (-m0 N det / q1) e_{q1}(-sbar c.lam_N) sum_v e_{q1}(det^{-1} sbar v)
    over the v with v^2 = m0 N det F*(c) mod q1, s = q2 L^2 (tau = s sigma
    rescales c by sbar)."""
    if math.gcd(q1, 2 * instance.mN) != 1:
        raise ValueError("require q1 odd and gcd(q1, m0*N) = 1")
    _check_split(instance, q1, q2)
    c = tuple(int(v) for v in c)
    det = instance.form.det()
    inv_s = pow(q2 * instance.L * instance.L, -1, q1)
    roots = quadratic_roots(instance.mN * det * evaluate(instance.form.dual(), c) % q1, q1)
    shift = -inv_s * sum(lam * v for lam, v in zip(instance.lam_N, c))
    ks = np.array([(pow(det, -1, q1) * inv_s * v + shift) % q1 for v in roots], dtype=np.int64)
    front = q1 * q1 * jacobi(-instance.mN * det, q1)
    return ComplexSum(complex(front * np.exp(2j * np.pi * ks / q1).sum()))


# ---------------------------------------------------------------------------
# Character-organized ramified sums
# ---------------------------------------------------------------------------


# one table: every caller walks l in its outer loop, and the (lL)^3
# complex tables of a walk to l = 200 would hold about 5 GB together
@lru_cache(maxsize=1)
def _cal_grid(instance: ProblemInstance, l: int) -> np.ndarray:
    """sum_sigma A(sigma) e_{lL}(k.sigma) for every k mod lL, A the amplitude
    of S_q(c) at q = l: S_l's sum over its locus beta = L sigma + lam_N,
    less the phase e_{lL^2}(k.lam_N)."""
    L = instance.L
    return _amplitude_table(instance.form, l, L, L, instance.lam_N, instance.mN)


def calS(instance: ProblemInstance, l: int, x: int, c) -> ComplexSum:
    """S_l(x; c): a mod l coprime, beta mod lL^2 on the congruence locus,
    e_{lL^2}(a (F(beta) - m0 N) + xbar c.beta).  With beta = L sigma + lam_N
    and k = xbar c, it is e_{lL^2}(k.lam_N) times _cal_grid at k mod lL."""
    L = instance.L
    mod = l * L * L
    if mod > _CALS_BOUND:
        raise ValueError(f"l*L^2 = {mod} exceeds bound {_CALS_BOUND}")
    if math.gcd(x, l * L) != 1:
        raise ValueError("require gcd(x, lL) = 1")
    xinv = pow(x % mod, -1, mod)
    k = [(xinv * int(v)) % mod for v in c]
    turn = sum(a * b for a, b in zip(k, instance.lam_N)) % mod
    amp = complex(_cal_grid(instance, l)[tuple(v % (l * L) for v in k)])
    return ComplexSum(amp * cmath.exp(2j * cmath.pi * turn / mod))


def calA(instance: ProblemInstance, l: int, chi, c) -> ComplexSum:
    """A_l(chi; c) = phi(lL^2)^{-1} sum_x conj(chi(x)) S_l(x; c)."""
    mod = l * instance.L * instance.L
    if mod > _CALA_BOUND:
        raise ValueError(f"l*L^2 = {mod} exceeds bound {_CALA_BOUND}")
    if chi.modulus != mod:
        raise ValueError("character modulus must equal l*L^2")
    # calS at every unit x at once: k = xbar c, one gather and one phase each
    units = [x for x in range(1, mod + 1) if math.gcd(x, mod) == 1]
    xinv = np.array([pow(x, -1, mod) for x in units], dtype=np.int64)
    k = xinv[:, None] * (np.array([int(v) for v in c], dtype=np.int64) % mod) % mod
    turn = k @ np.array(instance.lam_N, dtype=np.int64) % mod
    s = _cal_grid(instance, l)[tuple((k % (l * instance.L)).T)] * np.exp(2j * np.pi * turn / mod)
    return ComplexSum(complex(np.conj([chi(x) for x in units]) @ s) / len(units))


def calT1(instance: ProblemInstance, q2: int, x: int, c) -> ComplexSum:
    """Cone sum over the p0-part of q2: b mod q2_flat coprime, beta mod q2_flat,
    e_{q2_flat}(b F(beta) + xbar c.beta).  Equals 1 when p0 does not divide q2."""
    flat = smooth_part(q2, instance.p0)
    if flat == 1:
        return ComplexSum(1 + 0j)
    if math.gcd(x, flat) != 1:
        raise ValueError("require gcd(x, q2_flat) = 1")
    xinv = pow(x % flat, -1, flat)
    c = tuple(xinv * int(v) for v in c)
    return _amplitude_sums(instance.form, flat, 1, 1, (0, 0, 0), 0, [c])[0]


def calT2(instance: ProblemInstance, q2: int, x: int, c) -> ComplexSum:
    """N-free ramified sum over q2_nat = q2 / (p0-part): b mod q2_nat coprime,
    beta mod q2_nat L^2 with F(beta) = m0 mod L^2 and beta = lam mod L,
    e_{q2_nat L^2}(b (F(beta) - m0) + xbar c.beta).  Independent of h.  With
    beta = L sigma + lam and k = xbar c, it is e_{q2_nat L^2}(k.lam) times the
    residue amplitude's sum at modulus q2_nat L."""
    flat = smooth_part(q2, instance.p0)
    nat = q2 // flat
    L = instance.L
    mod = nat * L * L
    _check_modulus(mod)
    if math.gcd(x, mod) != 1:
        raise ValueError("require gcd(x, q2_nat L^2) = 1")
    xinv = pow(x % mod, -1, mod)
    k = [(xinv * int(v)) % mod for v in c]
    turn = sum(a * b for a, b in zip(k, instance.cong.lam)) % mod
    (amp,) = _amplitude_sums(instance.form, nat, L, L, instance.cong.lam, instance.m0, [k])
    return ComplexSum(complex(amp.value) * cmath.exp(2j * cmath.pi * turn / mod))


def sqc_grid(instance: ProblemInstance, q: int) -> np.ndarray:
    """S_q(c) for all c mod qL as a (qL)^3 array (FFT of the whole sum):
    brute_S's values, the oracle for sqc_window."""
    L = instance.L
    return _amplitude_table(instance.form, q, L, L, instance.lam_N, instance.mN)


def sqc_values(instance: ProblemInstance, q: int, cs) -> list[complex]:
    """S_q(c) = S1(q1, q2; c) S2(q1, q2; c) at each c in cs, (q1, q2) =
    crt_split(q): S1 in closed form, S2 the definition-level sum at modulus
    q2 L (up to the brute-force bound), built once for the whole list and
    skipped at modulus 1.  A value does not depend on the list it is in."""
    if not cs:
        return []
    q1, q2 = crt_split(instance, q)
    r = np.array([[int(x) % q1 for x in c] for c in cs], dtype=np.int64)
    vals = [complex(a) for a in _s1_values(instance, q1, q2, *r.T)]
    if q2 * instance.L > 1:
        vals = [complex(a * s.value) for a, s in zip(vals, _S2_sums(instance, q1, q2, cs))]
    return vals


def sqc_table_peak(instance: ProblemInstance, q_max: int, width: int) -> tuple[int, int]:
    """(qL, bytes) at the q = 1..q_max where sqc_window on a cube of side
    `width` holds the most besides the returned sub-cube: _TABLE_BYTES per
    residue of the S2 table at modulus q2 L and _PRODUCT_BYTES per point of
    the product, on min(qL, width)^3 points; (0, 0) when q_max < 1."""
    L = instance.L
    peak = (0, 0)
    for q in range(1, q_max + 1):
        m = crt_split(instance, q)[1] * L
        need = _TABLE_BYTES * (m**3 if m > 1 else 0) + _PRODUCT_BYTES * min(q * L, width) ** 3
        peak = max(peak, (q * L, need), key=lambda size: size[1])
    return peak


def sqc_window(
    instance: ProblemInstance, q: int, cvals
) -> tuple[tuple[np.ndarray, ...], np.ndarray] | None:
    """S_q(c) on its support in the cube cvals^3, for a window symmetric
    about 0 (cvals[::-1] == -cvals): (rows, S), with rows[i] the ascending
    indices into cvals along axis i whose slice of S_q(c) is not identically
    0, closed under c -> -c, and S the values on the sub-cube np.ix_(*rows);
    None when S_q(c) is 0 on the whole window.

    The values are the factor product of sqc_values, with S2 gathered from
    its residue table, taken once on the cube of the residues mod qL that
    the window reaches (min(qL, len(cvals)) of them on a contiguous window).
    The rows are read off the exact zeros of that product and mapped back
    to the window, and the sub-cube is gathered from it: every c left out
    of the sub-cube has a product of exactly 0."""
    cvals = np.asarray(cvals, dtype=np.int64)
    if np.any(cvals[::-1] != -cvals):
        raise ValueError("sqc_window needs a window symmetric about 0")
    L = instance.L
    res, idx = np.unique(cvals % (q * L), return_inverse=True)
    q1, q2 = crt_split(instance, q)
    vals = _s1_values(instance, q1, q2, *np.ix_(res, res, res))
    if q2 * L > 1:
        r = res % (q2 * L)
        s2 = _amplitude_table(instance.form, q2, L, L * q1, instance.lam_N, instance.mN)
        vals *= s2[np.ix_(r, r, r)]
    nonzero = vals != 0
    live = [nonzero.any(axis=other)[idx] for other in ((1, 2), (0, 2), (0, 1))]
    del nonzero
    if not live[0].any():
        return None
    # c and -c sit at mirrored indices of the window
    rows = tuple(np.flatnonzero(row | row[::-1]) for row in live)
    return rows, vals[np.ix_(*(idx[r] for r in rows))]
