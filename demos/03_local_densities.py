"""Local solution densities and the modified singular series.

The arithmetic main-term factor is an Euler product of p-adic densities: the
stabilized ratio (solutions of F = m0 mod p^k, under the congruence
condition) / p^{2k}.  For primes away from 2*det(F)*m0*L the density
stabilizes already at k = 1, where Gauss's closed count p^2 + p (-m0 det / p)
gives it without enumerating residues (method gauss-character); the finitely
many remaining primes need a certified Hensel ladder, such as p = 3 for
x^2 + y^2 + 27 z^2.  Conditional
convergence of the product is handled with the convergence factors
(1 - chi(p)/p), chi the Kronecker character of the fundamental discriminant
of -m0 det(F); when chi is non-principal the compensating value L(1, chi) is
computed from the same character and is checked here against two classical
closed forms.  Siegel's formula ties the pieces together: on the sphere,
a one-class genus, r(n) = 2 pi sqrt(n) L(1, chi) prod_p (1 - chi(p)/p) sigma_p.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qdelta.arch import WeightSpec
from qdelta.localdens import (
    L_one_psi0,
    count_solutions,
    kronecker_value,
    sigma_p,
    singular_series,
)
from qdelta.modarith import primes_up_to
from qdelta.qform import CongruenceDatum, ProblemInstance, QForm

c = 1 / 3**0.5
sphere = ProblemInstance(
    QForm.diagonal(1, 1, 1), 1, 5, 1, CongruenceDatum(1, (0, 0, 0)),
    WeightSpec(center=(c, c, c), radius=0.6),
)

print("== densities at individual primes (sphere, target 25) ==")
for p in (2, 3, 7, 11):
    d = sigma_p(sphere, p)
    print(f"p={p:2d}:  sigma_p = {d.value}  (stabilized at k = {d.k_star}, method {d.method})")

print()
print("== a ramified ladder with its certificate ==")
# x^2 + y^2 + 27 z^2 = 1 at p = 3: the density stabilizes at k = 5, and the
# Hensel certificate scans all 3^15 residues mod 3^5 for a singular solution
ramified = ProblemInstance(
    QForm.diagonal(1, 1, 27), 1, 5, 1, CongruenceDatum(1, (0, 0, 0)),
    WeightSpec(center=(c, c, c), radius=0.6),
)
d = sigma_p(ramified, 3)
print(f"x^2+y^2+27z^2, p=3:  sigma_p = {d.value}  (k_star = {d.k_star}, "
      f"{d.count} solutions mod 3^{d.k_star}, certified: {d.certified})")
print(f"  ladder (k, count): {d.counts}")

print()
print("== stabilization is exact for clean primes ==")
for p in (3, 7, 11):
    v1 = Fraction(count_solutions(sphere.form, sphere.mN, p, 1), p**2)
    v2 = Fraction(count_solutions(sphere.form, sphere.mN, p, 2), p**4)
    print(f"p={p:2d}:  k=1 gives {v1},  k=2 gives {v2},  equal: {v1 == v2}")

print()
print("== the full series ==")
s = singular_series(sphere, p_max=300)
print(f"sphere: value {s.value:.6f}, square discriminant: {s.square_disc}, "
      f"tail drift {s.drift:.2e}")

obstructed = ProblemInstance(
    QForm.diagonal(1, 1, 1), 1, 5, 1, CongruenceDatum(2, (1, 1, 1)),
    WeightSpec(center=(c, c, c), radius=0.6),
)
so = singular_series(obstructed, p_max=100)
print(f"sphere with x = (1,1,1) mod 2: value {so.value}, "
      f"obstructed at p = {so.obstructed_at} (three odd squares are 3 mod 8, "
      f"never 25 mod 8)")

print()
print("== L(1, chi) against classical values ==")
v4 = L_one_psi0(QForm.diagonal(1, 1, 1), 1)
v3 = L_one_psi0(QForm.diagonal(1, 1, 3), 1)
print(f"discriminant -4:  {v4:.12f}  vs pi/4        = {math.pi / 4:.12f}")
print(f"discriminant -3:  {v3:.12f}  vs pi/(3 rt 3) = {math.pi / (3 * math.sqrt(3)):.12f}")

print()
print("== Siegel's formula on the sphere ==")
# x^2 + y^2 + z^2 = 3: r = 8 (the points (+-1, +-1, +-1)); chi = (-3 / .),
# the product over p <= 2000 short of the whole by prod_(p > 2000) (1 - 1/p^2)
three = ProblemInstance(QForm.diagonal(1, 1, 1), 3, 10007, 0, CongruenceDatum(1, (0, 0, 0)))
product = 2 * math.pi * math.sqrt(3) * L_one_psi0(three.form, 3)
for p in primes_up_to(2000):
    product *= (1 - kronecker_value(-3, p) / p) * float(sigma_p(three, p).value)
print(f"n = 3:  r = 8,  2 pi sqrt(3) L(1, chi) prod_(p <= 2000) = {product:.6f}")
