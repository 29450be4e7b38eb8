"""Exact arithmetic layer: factorization, characters, quadratic roots."""

from __future__ import annotations

import cmath
import math
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qdelta.modarith import (
    DirichletCharacter,
    characters_mod,
    _sqrt_mod_prime,
    crt_pair,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    is_square,
    jacobi,
    mobius,
    primes_up_to,
    primitive_root,
    quadratic_roots,
    ramanujan_sum,
    smooth_part,
)


class TestFactorize:
    def test_roundtrip_small(self):
        for n in range(1, 500):
            prod = 1
            for p, e in factorize(n):
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_mersenne_prime(self):
        n = 2**61 - 1
        assert factorize(n) == [(n, 1)]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_random_against_sympy(self):
        rng = random.Random(20261019)
        for n in [rng.randrange(1, 2**63) for _ in range(200)]:
            assert factorize(n) == sorted(sympy.factorint(n).items()), n

    @pytest.mark.parametrize(
        "n",
        [
            2**61 - 1,
            2**63 - 25,  # the largest prime below 2^63
            (2**31 - 1) * (2**31 - 19),  # balanced semiprime: rho's hardest case
            (2**31 - 1) ** 2,
            2**63,
        ],
    )
    def test_hard_inputs_against_sympy(self, n):
        assert factorize(n) == sorted(sympy.factorint(n).items())

    def test_rejects_above_bound(self):
        with pytest.raises(ValueError):
            factorize(2**63 + 1)


class TestAgainstSympy:
    def test_is_prime_divisors_on_range(self):
        for n in range(-2, 5000):
            assert is_prime(n) == sympy.isprime(n), n
        for n in range(1, 5000):
            assert divisors(n) == sympy.divisors(n), n
        rng = random.Random(7)
        for n in [rng.randrange(2**40, 2**63) | 1 for _ in range(500)]:
            assert is_prime(n) == sympy.isprime(n), n

    def test_is_prime_refuses_beyond_exact_bound(self):
        # the bound is the least strong pseudoprime to the bases 2..41,
        # 1287836182261 * 2575672364521, which the test would call prime
        bound = 3317044064679887385961981
        assert is_prime(bound - 2) == sympy.isprime(bound - 2)
        with pytest.raises(ValueError):
            is_prime(bound)

    def test_primes_up_to(self):
        for bound in (0, 1, 2, 3, 1000, 1009, 30000):
            assert primes_up_to(bound) == list(sympy.primerange(2, bound + 1))

    def test_primitive_root_is_sympys(self):
        # the generators fix the dlog tables, so the order of characters_mod
        for p in sympy.primerange(3, 10**4):
            e = 1
            while p**e <= 10**4:
                assert primitive_root(p, e) == sympy.primitive_root(p**e), (p, e)
                e += 1

    def test_primitive_root_rejects_even_or_composite(self):
        for p in (2, 9):
            with pytest.raises(ValueError):
                primitive_root(p)

    def test_sqrt_mod_prime_roots(self):
        for p in sympy.primerange(2, 2000):
            squares = {v * v % p for v in range(p)}
            for d in range(p):
                roots = _sqrt_mod_prime(d, p)
                assert all(r * r % p == d for r in roots), (d, p)
                assert bool(roots) == (d in squares), (d, p)


class TestBasicFunctions:
    def test_phi_mobius_against_sympy(self):
        for n in range(1, 200):
            assert euler_phi(n) == sympy.totient(n)
            assert mobius(n) == sympy.mobius(n)

    def test_primes_up_to(self):
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_square(self):
        squares = {k * k for k in range(40)}
        for n in range(1500):
            assert is_square(n) == (n in squares)
        assert not is_square(-4)

    def test_smooth_part(self):
        assert smooth_part(360, 6) == 72  # 2^3 * 3^2
        assert smooth_part(35, 6) == 1
        assert smooth_part(1, 10) == 1

    @given(st.integers(min_value=-500, max_value=500), st.integers(min_value=1, max_value=250))
    def test_jacobi_matches_sympy(self, a, n):
        n = 2 * n - 1  # odd
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n)


class TestRamanujanSum:
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=-80, max_value=80))
    @settings(max_examples=120)
    def test_matches_definition(self, q, m):
        direct = sum(
            cmath.exp(2j * cmath.pi * a * m / q) for a in range(q) if math.gcd(a, q) == 1
        )
        assert abs(ramanujan_sum(q, m) - direct.real) < 1e-7
        assert abs(direct.imag) < 1e-7

    def test_known_values(self):
        assert ramanujan_sum(1, 5) == 1
        assert ramanujan_sum(6, 0) == euler_phi(6)
        assert ramanujan_sum(5, 5) == 4
        assert ramanujan_sum(5, 1) == -1


class TestCrt:
    @given(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
    )
    def test_crt_pair(self, r1, r2):
        m1, m2 = 21, 20
        x = crt_pair(r1 % m1, m1, r2 % m2, m2)
        assert 0 <= x < m1 * m2
        assert x % m1 == r1 % m1
        assert x % m2 == r2 % m2


class TestCharacters:
    def test_group_size(self):
        for n in (3, 5, 8, 12, 15):
            assert len(characters_mod(n)) == euler_phi(n)

    def test_mod5_orders(self):
        chars = characters_mod(5)
        orders = sorted(self._order(ch) for ch in chars)
        assert orders == [1, 2, 4, 4]

    @staticmethod
    def _order(ch: DirichletCharacter) -> int:
        for k in range(1, ch.modulus + 1):
            if all(
                abs(ch(a) ** k - 1) < 1e-9
                for a in range(1, ch.modulus)
                if math.gcd(a, ch.modulus) == 1
            ):
                return k
        raise AssertionError("no order found")

    def test_orthogonality(self):
        n = 12
        chars = characters_mod(n)
        for ch in chars:
            total = sum(ch(a) for a in range(n) if math.gcd(a, n) == 1)
            expected = euler_phi(n) if ch.is_principal else 0.0
            assert abs(total - expected) < 1e-9

    def test_principal_first(self):
        for n in (5, 8, 21):
            assert characters_mod(n)[0].is_principal

    def test_conductor_divides_modulus(self):
        for ch in characters_mod(24):
            assert 24 % ch.conductor() == 0


class TestQuadraticRoots:
    def test_against_brute_force(self):
        for n in (1, 2, 3, 4, 5, 8, 9, 12, 25, 27, 45, 49, 98, 121):
            for d in range(n):
                expected = sorted(v for v in range(n) if (v * v - d) % n == 0)
                assert sorted(quadratic_roots(d, n)) == expected, (d, n)

    def test_large_prime_power(self):
        p, k = 101, 3
        n = p**k
        d = (12345 * 12345) % n
        roots = quadratic_roots(d, n)
        assert all((v * v - d) % n == 0 for v in roots)
        assert 12345 % n in roots
