"""Exact modular arithmetic: factorization, CRT, Jacobi symbols, Dirichlet
characters, and complete square-root sets modulo n.

Everything here works with plain Python integers and is exact.  Factorization
and primality are delegated to sympy (deterministic well past 2**64); the
character machinery and quadratic root lifting are implemented here because we
need complete root sets at ramified primes and characters indexed by explicit
generator bases.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import sympy

_MAX_FACTOR_INPUT = 1 << 63
_MAX_CHARACTER_MODULUS = 10**6


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as [(p, e), ...] with primes ascending.

    n = 1 returns the empty list.
    """
    if not 1 <= n <= _MAX_FACTOR_INPUT:
        raise ValueError(f"factorize requires 1 <= n <= 2**63, got {n}")
    return sorted(sympy.factorint(n).items())


def is_prime(n: int) -> bool:
    return bool(sympy.isprime(n))


def primes_up_to(bound: int) -> list[int]:
    return list(sympy.primerange(2, bound + 1))


def euler_phi(n: int) -> int:
    return int(sympy.totient(n))


def mobius(n: int) -> int:
    return int(sympy.mobius(n))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol requires odd n >= 1, got n={n}")
    return int(sympy.jacobi_symbol(a, n))


def is_square(n: int) -> bool:
    """Exact perfect-square test; negative integers are never squares."""
    if n < 0:
        return False
    return math.isqrt(n) ** 2 == n


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Residue mod m1*m2 congruent to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    if math.gcd(m1, m2) != 1:
        raise ValueError("CRT moduli must be coprime")
    u = pow(m1, -1, m2) if m2 > 1 else 0
    return (r1 + m1 * ((r2 - r1) * u % m2)) % (m1 * m2)


def smooth_part(n: int, base: int) -> int:
    """Largest divisor of n supported on the primes dividing base.

    Returns 1 when base is 0-free of common factors; base may be negative.
    """
    if n < 1:
        raise ValueError("n must be positive")
    b = abs(base)
    part = 1
    g = math.gcd(n, b)
    while g > 1:
        while n % g == 0:
            n //= g
            part *= g
        g = math.gcd(n, b)
    return part


def ramanujan_sum(q: int, m: int) -> int:
    """c_q(m) = sum over a mod q, gcd(a,q)=1 of e_q(a m), via the Mobius/gcd formula."""
    if q < 1:
        raise ValueError("q must be positive")
    g = math.gcd(m % q if q > 1 else 0, q)
    # c_q(m) = sum_{d | gcd(q,m)} d * mu(q/d)
    total = 0
    for d in sympy.divisors(g):
        total += d * mobius(q // d)
    return total


# ---------------------------------------------------------------------------
# Unit group structure and Dirichlet characters
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _unit_group(n: int):
    """Generator basis of (Z/nZ)* with discrete-log tables.

    Returns (components, dlog) where components is a tuple of (generator,
    order) pairs (generators given mod n via CRT) and dlog maps each unit
    x mod n to its exponent tuple.  Cached per modulus; building the table is
    O(n) and done once.
    """
    components: list[tuple[int, int]] = []
    local: list[tuple[int, list[tuple[int, int]]]] = []  # (p^e, [(gen mod p^e, order)])
    for p, e in factorize(n):
        pe = p**e
        if p == 2:
            if e == 1:
                gens = []
            elif e == 2:
                gens = [(3, 2)]
            else:
                gens = [(pe - 1, 2), (5, 2 ** (e - 2))]
        else:
            g = int(sympy.primitive_root(pe))
            gens = [(g, pe - pe // p)]
        local.append((pe, gens))

    # lift generators to mod n (1 at the other prime-power components)
    for pe, gens in local:
        m_other = n // pe
        for g, order in gens:
            lifted = crt_pair(g, pe, 1, m_other) if m_other > 1 else g % n
            components.append((lifted, order))

    # discrete log table per local component, combined into exponent tuples
    dlog: dict[int, tuple[int, ...]] = {}
    local_logs: list[dict[int, tuple[int, ...]]] = []
    for pe, gens in local:
        table: dict[int, tuple[int, ...]] = {}
        if not gens:
            table[1 % pe] = ()
        else:
            orders = [o for _, o in gens]
            # enumerate the full product of cyclic factors
            def rec(idx: int, acc: int, exps: tuple[int, ...]):
                if idx == len(gens):
                    table[acc] = exps
                    return
                g, order = gens[idx]
                val = acc
                for k in range(order):
                    rec(idx + 1, val, exps + (k,))
                    val = val * g % pe
            rec(0, 1 % pe, ())
            assert len(table) == math.prod(orders)
        local_logs.append(table)

    moduli = [pe for pe, _ in local]
    for x in range(1, n + 1):
        if math.gcd(x, n) != 1:
            continue
        exps: tuple[int, ...] = ()
        for (pe, _), table in zip(local, local_logs):
            exps += table[x % pe]
        dlog[x % n] = exps
    if n == 1:
        dlog[0] = ()
    return tuple(components), dlog


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod n, given by image exponents on a generator basis.

    chi(g_i) = e(exponents[i] / orders[i]); chi(x) = 0 when gcd(x, n) > 1.
    """

    modulus: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        comps, _ = _unit_group(self.modulus)
        if len(self.exponents) != len(comps):
            raise ValueError("exponent vector does not match unit-group basis")
        for e, (_, order) in zip(self.exponents, comps):
            if not 0 <= e < order:
                raise ValueError("image exponent out of range")

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __call__(self, x: int) -> complex:
        n = self.modulus
        if n == 1:
            return 1 + 0j
        x %= n
        if math.gcd(x, n) != 1:
            return 0j
        comps, dlog = _unit_group(n)
        ks = dlog[x]
        # accumulate the phase as an exact fraction of a full turn
        num, den = 0, 1
        for e, k, (_, d) in zip(self.exponents, ks, comps):
            num = num * d + e * k * den
            den *= d
        num %= den
        if num == 0:
            return 1 + 0j
        if 2 * num == den:
            return -1 + 0j
        return cmath.exp(2j * cmath.pi * num / den)

    def conductor(self) -> int:
        """Smallest d | modulus such that chi factors through (Z/dZ)*."""
        n = self.modulus
        for d in sorted(sympy.divisors(n)):
            if all(
                abs(self(x) - 1) < 1e-12
                for x in range(1, n + 1, d if d > 0 else 1)
                if x % d == 1 % d and math.gcd(x, n) == 1
            ):
                return d
        return n


def characters_mod(n: int) -> list[DirichletCharacter]:
    """All phi(n) Dirichlet characters mod n; the principal character comes first."""
    if n > _MAX_CHARACTER_MODULUS:
        raise ValueError(f"character enumeration bounded at n <= {_MAX_CHARACTER_MODULUS}")
    comps, _ = _unit_group(n)
    chars: list[DirichletCharacter] = []

    def rec(idx: int, exps: tuple[int, ...]):
        if idx == len(comps):
            chars.append(DirichletCharacter(n, exps))
            return
        for e in range(comps[idx][1]):
            rec(idx + 1, exps + (e,))

    rec(0, ())
    return chars


# ---------------------------------------------------------------------------
# Square roots modulo n
# ---------------------------------------------------------------------------


def _sqrt_mod_prime(d: int, p: int) -> list[int]:
    """Roots of v^2 = d mod prime p (Tonelli-Shanks for odd p)."""
    d %= p
    if p == 2:
        return [d]  # v = d works: 0^2=0, 1^2=1
    if d == 0:
        return [0]
    if jacobi(d, p) != 1:
        return []
    r = int(sympy.sqrt_mod(d, p))
    return sorted({r, p - r})


def _lift_roots(d: int, p: int, e: int) -> list[int]:
    """Complete root set of v^2 = d mod p^e by levelwise lifting.

    Every root mod p^(k+1) reduces to a root mod p^k, so lifting each root
    through all p candidates per level is exhaustive.  Hensel's unique lift
    applies when p does not divide 2v; the branching loop handles the
    ramified cases uniformly.
    """
    roots = _sqrt_mod_prime(d, p)
    mod = p
    for _ in range(e - 1):
        nxt_mod = mod * p
        nxt = []
        for r in roots:
            fr = (r * r - d) % nxt_mod
            deriv = (2 * r) % p
            if deriv != 0:
                # unique lift: r + t*mod with t = -f(r)/mod / f'(r) mod p
                t = (-(fr // mod) * pow(deriv, -1, p)) % p
                nxt.append(r + t * mod)
            elif fr == 0:
                nxt.extend(r + t * mod for t in range(p))
        roots = nxt
        mod = nxt_mod
    return sorted(set(roots))


def quadratic_roots(d: int, n: int) -> list[int]:
    """Sorted complete list of v mod n with v^2 = d (mod n)."""
    if not 1 <= n <= 10**9:
        raise ValueError("modulus out of range")
    if n == 1:
        return [0]
    d %= n
    parts: list[tuple[list[int], int]] = []
    for p, e in factorize(n):
        pe = p**e
        local = _lift_roots(d % pe, p, e)
        if not local:
            return []
        parts.append((local, pe))
    # CRT combine
    combined = [(0, 1)]
    for local, pe in parts:
        combined = [
            (crt_pair(r, m, s, pe), m * pe) for r, m in combined for s in local
        ]
    return sorted(r for r, _ in combined)
