"""p-adic local densities, the modified singular series, and L(1, chi).

Densities are exact rationals: counts of solutions of F = m0 mod p^k under
the congruence condition, divided by p^(2k).  Stabilization is certified
rather than assumed: at primes not dividing 2*det*m0*L every mod-p solution
is nonsingular, so level 1 is already exact, and its count is Gauss's closed
form p^2 + p (-m0 det / p) with no residues enumerated; at the remaining
primes one ladder (`_ladder`) climbs, counting residues with
count_solutions, until two consecutive levels agree and the level clears
the ramification threshold (raised by v_p(m0) - 1 where p^2 divides m0).
The density is certified when every solution
mod p^k_star is Hensel-liftable: none has a gradient 2 M x whose three
components p^(floor((k_star-1)/2) + 1) divides.  count_solutions (where
sheet counting does not apply) and the certificate both scan the zeros of
the residue-grid kernel `qform.residue_rows` row by row.

The cone density at p0 climbs the same ladder on the homogeneous
structure: the count splits into primitive solutions (whose density
stabilizes) plus p^3 times the count two levels down, which sums to a
geometric factor p/(p-1).

One character serves the series and its L-value: chi = (d0 / .), the
Kronecker symbol of the fundamental discriminant d0 of -m0*det(F).  The
Euler factors are (1 - chi(p)/p) sigma_p (1 - 1/p when -m0*det is a
square), and L(1, chi) sums the same chi, so L(1, chi) times the product
over p <= P is Siegel's product of local densities up to the tail over
p > P; on a one-class genus that product is r(m0) / sigma_infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .modarith import factorize, is_prime, is_square, jacobi, primes_up_to
from .qform import ProblemInstance, QForm, residue_rows

_BOX_BOUND = 10**4  # largest p^k enumerated directly
_CELL_BUDGET = 3 * 10**8
# residue cells per block of _count_sheets: 512 KiB per int64 temporary
_SHEET_BLOCK_CELLS = 1 << 16
# B_2k / (2k) for k = 1..8, the coefficients of 1/x^2k in digamma's
# asymptotic series
_DIGAMMA_COEFFS = (
    1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12, -3617 / 8160,
)


@dataclass(frozen=True)
class LocalDensity:
    """Stabilized density with its certificate data.  certified = False
    flags a ladder density whose solutions the Hensel certificate could not
    all lift; the value is still reported (the certificate is conservative,
    notably at p = 2)."""

    p: int
    k_star: int
    value: Fraction
    count: int  # solutions mod p^k_star
    counts: tuple[tuple[int, int], ...]  # (k, count) ladder actually computed
    certified: bool
    method: str

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("density must be nonnegative")


@dataclass(frozen=True)
class SingularSeries:
    """Truncated Euler product of convergence-factored local densities."""

    square_disc: bool
    p_max: int
    value: float
    factors: tuple[tuple[int, float], ...]  # (p, euler factor) ascending
    densities: tuple[LocalDensity, ...]  # the sigma_p behind each factor, same order
    drift: float  # change over the last decade of primes (tail proxy)
    obstructed_at: int | None  # prime with sigma_p = 0, if any


# ---------------------------------------------------------------------------
# Counting solutions of F = target mod p^k
# ---------------------------------------------------------------------------


def _count_sheets(form: QForm, target: int, p: int, k: int, axis: int) -> int:
    """Count {F = target mod p^k} by completing the square in x_axis, whose
    diagonal coefficient is a unit mod the odd prime p.

    For unit a and odd p, a x^2 + b x + c = 0 mod p^k has as many roots as
    u^2 = b^2 - 4ac = A x1^2 + B x1 x2 + C x2^2 + D does, via u = 2ax + b
    (x3 the unit variable), in blocks of x2 rows of about _SHEET_BLOCK_CELLS cells.
    """
    # permute so the unit-diagonal variable is x3
    perm = {0: (1, 2, 0), 1: (0, 2, 1), 2: (0, 1, 2)}[axis]
    b11, b22, b33, b12, b13, b23 = form.permuted(perm).coefficients()
    pk = p**k
    x = np.arange(pk, dtype=np.int64)
    table = np.bincount(x * x % pk, minlength=pk)
    row = ((b13 * b13 - 4 * b33 * b11) % pk * x % pk * x + 4 * b33 * target % pk) % pk
    cross = (2 * b13 * b23 - 4 * b33 * b12) % pk * x % pk
    col = (b23 * b23 - 4 * b33 * b22) % pk * x % pk * x % pk
    rows = max(1, _SHEET_BLOCK_CELLS // pk)
    total = 0
    for i in range(0, pk, rows):
        disc = (x[i : i + rows, None] * cross + row + col[i : i + rows, None]) % pk
        total += int(table[disc].sum())
    return total


def count_solutions(
    form: QForm,
    target: int,
    p: int,
    k: int,
    cong_modulus: int = 1,
    cong_residue: tuple[int, int, int] = (0, 0, 0),
) -> int:
    """#{x mod p^k : F(x) = target mod p^k, x = residue mod cong_modulus}.

    cong_modulus must be a power of p dividing p^k (1 for no condition).
    Sheet counting serves odd p with no congruence condition and a diagonal
    coefficient that is a unit mod p; otherwise the zeros of
    qform.residue_rows on the congruence class are counted row by row.
    """
    pk = p**k
    if cong_modulus > 1 and pk % cong_modulus != 0:
        raise ValueError("congruence modulus must divide p^k")
    axis = next((i for i, a in enumerate(form.coefficients()[:3]) if a % p), None)
    if p != 2 and cong_modulus == 1 and axis is not None:
        return _count_sheets(form, target, p, k, axis)
    per_axis = pk // cong_modulus
    if per_axis**3 > _CELL_BUDGET:
        raise ValueError(f"enumeration of p^{3 * k} residues exceeds budget")
    lam = [v % cong_modulus for v in cong_residue]
    rows = residue_rows(form, cong_modulus, lam, -target % pk, pk, per_axis)
    return sum(int(np.count_nonzero(row % pk == 0)) for row in rows)


def _valuation(n: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _is_clean(instance: ProblemInstance, p: int) -> bool:
    return (2 * instance.form.det() * instance.m0 * instance.L) % p != 0


def _hensel_certified(instance: ProblemInstance, p: int, k: int) -> bool:
    """Every solution x mod p^k, x = lambda mod p^(ord_p L), lifts
    consistently to all higher levels: its gradient 2 M x has p-valuation mu
    with k >= 2 mu + 1, so a solution fails when p^(floor((k-1)/2) + 1)
    divides all three components.  The zeros of qform.residue_rows are
    scanned row by row, the gradient taken at the zeros only."""
    pk = p**k
    step = p ** _valuation(instance.L, p)
    lam = [v % step for v in instance.cong.lam]
    size = pk // step
    d = p ** ((k - 1) // 2 + 1)
    m = instance.form.gram()
    x2, x3 = (step * np.arange(size, dtype=np.int64) + v for v in lam[1:])
    rows = residue_rows(instance.form, step, lam, -instance.m0 % pk, pk, size)
    for s1, row in enumerate(rows):
        i, j = np.nonzero(row % pk == 0)
        x = (step * s1 + lam[0], x2[i], x3[j])
        grad = [2 * (a * x[0] + b * x[1] + c * x[2]) for a, b, c in m]
        if np.any((grad[0] % d == 0) & (grad[1] % d == 0) & (grad[2] % d == 0)):
            return False
    return True


def _ladder(p: int, k: int, threshold: int, count) -> list[tuple[int, int]] | None:
    """The ladder (k, n_k), n_k = count(k), climbed from level k while
    p^k <= _BOX_BOUND, up to the first level with n_k / p^(2k) =
    n_(k-1) / p^(2k-2) (n_k = p^2 n_(k-1)) and k - 1 > threshold: the
    density of n_(k-1) has stabilized.  None when the box bound comes first."""
    counts: list[tuple[int, int]] = []
    while p**k <= _BOX_BOUND:
        counts.append((k, count(k)))
        if len(counts) > 1 and counts[-1][1] == p * p * counts[-2][1] and k - 1 > threshold:
            return counts
        k += 1
    return None


def sigma_p(instance: ProblemInstance, p: int) -> LocalDensity:
    """Local density of F = m0 under x = lambda mod p^(ord_p L), at p != p0.

    The ladder's threshold is 1 + v_p(2 det L), raised by v_p(m0) - 1 where
    p^2 divides m0: at odd p not dividing 2 det L the density is stable from
    level v_p(m0) + 1, which that raise reaches, and a ladder that would
    stop below it can read a level that has not stabilized."""
    if p == instance.p0:
        raise ValueError("use sigma_p0_cone at the distinguished prime")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    ell = _valuation(instance.L, p)
    if _is_clean(instance, p):
        # Gauss's count for a nondegenerate ternary form at odd p prime to
        # m0 det: #{x mod p : x^T M x = m0} = p^2 + p (-m0 det / p).  The
        # solutions are nonsingular (a singular one would force x = 0 and
        # m0 = 0 mod p), so level 1 is exact by Hensel lifting
        n1 = p * p + p * jacobi((-instance.m0 * instance.form.det()) % p, p)
        return LocalDensity(
            p=p,
            k_star=1,
            value=Fraction(n1, p**2),
            count=n1,
            counts=((1, n1),),
            certified=True,
            method="gauss-character",
        )
    form, m0, lam = instance.form, instance.m0, instance.cong.lam
    threshold = 1 + _valuation(2 * form.det() * instance.L, p) + max(0, _valuation(m0, p) - 1)
    counts = _ladder(p, max(1, ell), threshold, lambda k: count_solutions(form, m0, p, k, p**ell, lam))
    if counts is None:
        raise ValueError(f"no stabilization for p={p} within the enumeration bound")
    k_star, n = counts[-2]
    return LocalDensity(
        p=p,
        k_star=k_star,
        value=Fraction(n, p ** (2 * k_star)),
        count=n,
        counts=tuple(counts),
        certified=n == 0 or _hensel_certified(instance, p, k_star),
        method="ladder",
    )


def sigma_p0_cone(instance: ProblemInstance) -> LocalDensity:
    """Density of the cone F = 0 at p0 via the primitive-solution recurrence.

    N_k = P_k + p^3 N_(k-2) with P_k the primitive count; once P_k/p^(2k)
    stabilizes at rho, the full density is rho * p/(p-1).  rho = 0 detects
    anisotropy over the p0-adics.
    """
    p, form = instance.p0, instance.form
    totals: list[int] = []  # totals[k - 1]: all solutions mod p^k

    def primitive(k: int) -> int:
        totals.append(count_solutions(form, 0, p, k))
        # subtract non-primitive solutions x = p x': every x mod p^(k-1)
        # when k <= 2, else p^3 per solution mod p^(k-2), counted two
        # levels ago
        return totals[-1] - (p ** (3 * (k - 1)) if k <= 2 else p**3 * totals[k - 3])

    counts = _ladder(p, 1, 1 + _valuation(2 * form.det(), p), primitive)
    if counts is None:
        raise ValueError(f"no cone stabilization for p0={p} within the enumeration bound")
    k_star, prim = counts[-2]
    return LocalDensity(
        p=p,
        k_star=k_star,
        value=Fraction(prim, p ** (2 * k_star)) * Fraction(p, p - 1),
        count=prim,
        counts=tuple(counts),
        certified=True,
        method="cone-recurrence",
    )


# ---------------------------------------------------------------------------
# Singular series and the L-value
# ---------------------------------------------------------------------------


def singular_series(instance: ProblemInstance, p_max: int = 300) -> SingularSeries:
    """Euler product (1 - chi(p)/p) sigma_p over p <= p_max, chi the
    Kronecker character of L_one_psi0 (1 - 1/p when -m0*det is a square),
    with the cone density at p0."""
    if p_max > 10**4:
        raise ValueError("prime bound capped at 10^4")
    disc = -instance.m0 * instance.form.det()
    square = is_square(disc)
    d0 = None if square else _fundamental_discriminant(disc)

    def convergence(p: int) -> float:
        if square:
            return 1.0 - 1.0 / p
        return 1.0 - kronecker_value(d0, p) / p

    cone = sigma_p0_cone(instance)
    rest = [sigma_p(instance, p) for p in primes_up_to(p_max) if p != instance.p0]
    # an obstruction at p0 is reported ahead of one at a smaller prime
    obstructed = next((d.p for d in (cone, *rest) if d.value == 0), None)
    densities = tuple(sorted((cone, *rest), key=lambda d: d.p))
    factors = tuple((d.p, convergence(d.p) * float(d.value)) for d in densities)
    value = 1.0
    for _, f in factors:
        value *= f
    # drift across the last decade of primes as a tail proxy
    cutoff = p_max / 10
    head = 1.0
    for p, f in factors:
        if p <= cutoff:
            head *= f
    drift = abs(value - head)
    return SingularSeries(
        square_disc=square,
        p_max=p_max,
        value=value,
        factors=factors,
        densities=densities,
        drift=drift,
        obstructed_at=obstructed,
    )


def _fundamental_discriminant(disc: int) -> int:
    """Fundamental discriminant d0 of the quadratic field attached to disc;
    its conductor is |d0|."""
    if disc == 0 or is_square(disc):
        raise ValueError("principal character has no finite L(1) value")
    square_free = 1
    for q, e in factorize(abs(disc)):
        if e % 2 == 1:
            square_free *= q
    square_free *= -1 if disc < 0 else 1
    return square_free if square_free % 4 == 1 else 4 * square_free


def kronecker_value(d0: int, n: int) -> int:
    """Kronecker symbol (d0 / n) of a fundamental discriminant d0, realized
    as the primitive real character mod |d0|."""
    n %= abs(d0)
    if n == 0 or math.gcd(n, abs(d0)) > 1:
        return 0
    # build from Jacobi on the odd part plus the standard value at 2
    val = 1
    m = n
    two = 0
    while m % 2 == 0:
        m //= 2
        two += 1
    if two:
        if d0 % 2 == 0:
            return 0
        # (d0/2) = 1 if d0 = +-1 mod 8 else -1
        val *= (1 if d0 % 8 in (1, 7) else -1) ** two
    if m > 1:
        val *= jacobi(d0 % m if d0 % m else 0, m)
    return val


def _digamma(x: np.ndarray) -> np.ndarray:
    """digamma(x) for x >= 8: ln x - 1/(2x) - sum_k B_2k / (2k x^2k) through
    B_16.  The truncation error is below the first omitted term, 1.7e-16 at
    x = 8, so rounding dominates."""
    x = np.asarray(x, dtype=np.float64)
    if x.min() < 8.0:
        raise ValueError(f"the digamma series needs x >= 8, got {x.min()}")
    y = 1.0 / (x * x)
    series = np.zeros_like(x)
    for c in reversed(_DIGAMMA_COEFFS):
        series = c + y * series
    return np.log(x) - 0.5 / x - y * series


def L_one_psi0(form: QForm, m0: int) -> float:
    """L(1, chi) for chi = (d0 / .), the primitive quadratic character
    attached to -m0*det(F): the character of singular_series' Euler factors.

    Direct partial sum to the period multiple M = 8 f plus the exact digamma
    tail (the Abel-summed remainder of a bounded-partial-sum character
    series), so one evaluation suffices; M = 8 f keeps every digamma
    argument (M + a) / f above 8, where the asymptotic series is exact to
    rounding.
    """
    d0 = _fundamental_discriminant(-m0 * form.det())
    f = abs(d0)
    chi = np.array([kronecker_value(d0, a) for a in range(1, f + 1)], dtype=np.float64)
    if abs(chi.sum()) > 1e-9:
        raise ValueError("character is principal; L(1) diverges")

    M = 8 * f
    n = np.arange(1, M + 1, dtype=np.float64)
    vals = chi[(np.arange(M)) % f]
    head = float(np.sum(vals / n))
    a = np.arange(1, f + 1, dtype=np.float64)
    tail = -float(np.sum(chi * _digamma((M + a) / f))) / f
    return head + tail
