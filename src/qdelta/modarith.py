"""Exact modular arithmetic: factorization, primality, CRT, Jacobi symbols,
Dirichlet characters, and complete square-root sets modulo n.

Everything here works with plain Python integers and is exact.  Factorization
is trial division by the primes below 1000, then Pollard-Brent rho on what is
left; primality is deterministic Miller-Rabin with the prime bases 2..41, exact
below 3.3e24.  The character machinery and quadratic root lifting are
implemented here because we need complete root sets at ramified primes and
characters indexed by explicit generator bases (the smallest primitive root
of each odd prime power).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

_MAX_FACTOR_INPUT = 1 << 63
_MAX_CHARACTER_MODULUS = 10**6
# Miller-Rabin with the first 13 primes as bases has no strong pseudoprime
# below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BOUND = 3317044064679887385961981
_TRIAL_LIMIT = 1000


def primes_up_to(bound: int) -> list[int]:
    """Primes p <= bound, ascending (sieve of Eratosthenes)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return [p for p, flag in enumerate(sieve) if flag]


_SMALL_PRIMES = tuple(primes_up_to(_TRIAL_LIMIT))


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_BASES[-1] ** 2:
        return True
    if n >= _MR_EXACT_BOUND:
        raise ValueError(f"is_prime is exact only below {_MR_EXACT_BOUND}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of the odd composite n, not a perfect square.

    Brent's cycle search on x -> x^2 + c, with the gcd taken once per batch
    of 128 steps and a step-by-step replay of the last batch when the batched
    gcd overshoots to n; c = 1, 2, ... until a proper factor appears.
    """
    batch = 128
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(batch, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += batch
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise RuntimeError(f"Pollard-Brent found no factor of {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as [(p, e), ...] with primes ascending.

    n = 1 returns the empty list.
    """
    if not 1 <= n <= _MAX_FACTOR_INPUT:
        raise ValueError(f"factorize requires 1 <= n <= 2**63, got {n}")
    out: list[tuple[int, int]] = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n == 1:
        return out
    if n < _TRIAL_LIMIT**2:  # no factor below 1000 and below 1000^2: prime
        return out + [(n, 1)]
    large: dict[int, int] = {}
    pending = [n]
    while pending:
        m = pending.pop()
        if is_prime(m):
            large[m] = large.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            pending += [root, root]
        else:
            d = _pollard_brent(m)
            pending += [d, m // d]
    return out + sorted(large.items())


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    return math.prod(p ** (e - 1) * (p - 1) for p, e in factorize(n))


def mobius(n: int) -> int:
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol requires odd n >= 1, got n={n}")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def primitive_root(p: int, e: int = 1) -> int:
    """Smallest primitive root mod p^e for an odd prime p and e >= 1.

    g generates (Z/p^eZ)* exactly when it generates (Z/pZ)* and, for e >= 2,
    g^(p-1) != 1 mod p^2; candidates are tried in increasing order.
    """
    if p == 2 or e < 1 or not is_prime(p):
        raise ValueError(f"primitive_root requires an odd prime p and e >= 1, got {p}, {e}")
    cofactors = [(p - 1) // r for r, _ in factorize(p - 1)]
    g = 2
    while (
        g % p == 0
        or any(pow(g, k, p) == 1 for k in cofactors)
        or (e > 1 and pow(g, p - 1, p * p) == 1)
    ):
        g += 1
    return g


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
    for d in divisors(g):
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
            g = primitive_root(p, e)
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
        for d in divisors(n):
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
    odd, s = p - 1, 0
    while odd % 2 == 0:
        odd //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c, t, r = pow(z, odd, p), pow(d, odd, p), pow(d, (odd + 1) // 2, p)
    # invariant: r^2 = t d mod p, with t of order dividing 2^(s-1)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
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
