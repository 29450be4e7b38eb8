"""Complete exponential sums: brute-force oracles, CRT factors, closed forms.

The arithmetic weight attached to each modulus q in the expansion is a
complete exponential sum S_q(c) over residue vectors on the quadric.  Three
independent facts make it computable at scale:

  1. S_q(c) is multiplicative across the coprime split q = q1 * q2, where q2
     collects the primes dividing the invariant 2*L*det(F).
  2. The q1-factor has a closed form at every odd q1: completing the square
     with Gauss sums leaves a Jacobi symbol, q1^(3/2) and a Salie-type sum
     of F*(c), one length-q1 table for all c instead of q1^3 terms per c.
     Where q1 is prime to m0*N, Lemma 2.1 evaluates it as a short sum over
     square roots of a discriminant mod q1.
  3. The ramified q2-factor decomposes over Dirichlet characters, which is
     how the averaged estimates are organized.

Each step is checked here against the definition-level sum.
"""

from __future__ import annotations

import math

from qdelta.arch import WeightSpec
from qdelta.expsums import (
    brute_S, brute_S1, brute_S2, calA, calS, crt_split, lemma21_eval, sqc_values,
)
from qdelta.modarith import characters_mod, smooth_part
from qdelta.qform import CongruenceDatum, ProblemInstance, QForm

inst = ProblemInstance(
    QForm.diagonal(1, 1, -1), 1, 5, 1, CongruenceDatum(1, (0, 0, 0)),
    WeightSpec(center=(1.25, 0.5, 0.9013878188659973), radius=0.6),
)
c = (1, 2, 0)

print("== multiplicativity across the coprime split ==")
for q in (12, 45, 98):
    q1, q2 = crt_split(inst, q)
    whole = brute_S(inst, q, c).value
    split = brute_S1(inst, q1, q2, c).value * brute_S2(inst, q1, q2, c).value
    print(f"q={q:3d} = {q1} * {q2}:  |S_q - S1*S2| = {abs(whole - split):.2e}")

print()
print("== closed form vs definition for the coprime factor ==")
print("(generic frequencies give full square-root cancellation, i.e. zero;")
print(" the zero frequency carries the maximal value q1^2)")
for q1 in (7, 23, 59):
    for cc in ((0, 0, 0), (1, 2, 0)):
        closed = lemma21_eval(inst, q1, 2, cc).value
        brute = brute_S1(inst, q1, 2, cc).value
        print(f"q1={q1:3d}, c={cc}:  closed {closed.real:+12.4f}  "
              f"brute {brute.real:+12.4f}  dev {abs(closed - brute):.2e}")

print()
print("== S_q(c) = S1 * S2: one closed form on q1, p0 | q1 included ==")
inst625 = inst.with_h(2)  # N = 625
c625 = (5, 1, 1)
for q in (25, 50, 75, 125):
    q1, q2 = crt_split(inst625, q)
    whole = brute_S(inst625, q, c625).value
    closed = sqc_values(inst625, q, [c625])[0]
    print(f"N=625, q={q:3d} = {q1}*{q2} (5-part of q1: {smooth_part(q1, 5):3d}), c={c625}:  "
          f"sqc_values {closed.real:+12.4f}  brute_S {whole.real:+12.4f}  "
          f"dev {abs(closed - whole):.2e}")

print()
print("== character decomposition of the ramified factor ==")
l, cc = 9, (1, 1, 1)
chars = characters_mod(l)
for x in (1, 2, 4):
    if math.gcd(x, l) != 1:
        continue
    lhs = calS(inst, l, x, cc).value
    rhs = sum(ch(x) * calA(inst, l, ch, cc).value for ch in chars)
    print(f"l={l}, x={x}:  S_l(x;c) = {lhs.real:+10.4f},  "
          f"sum over {len(chars)} characters = {rhs.real:+10.4f},  "
          f"dev {abs(lhs - rhs):.2e}")
