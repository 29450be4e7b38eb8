"""Complete exponential sums: brute-force oracles, CRT factors, closed forms.

The arithmetic weight attached to each modulus q in the expansion is a
complete exponential sum S_q(c) over residue vectors on the quadric.  Three
independent facts make it computable at scale:

  1. S_q(c) is multiplicative across the coprime split q = q1 * q2, where q2
     collects the primes dividing the invariant 2*L*det(F).
  2. The q1-factor has a closed form: a Jacobi symbol times a short sum over
     square roots of a discriminant mod q1 -- evaluation cost ~log q1 instead
     of q1^3.  Where q1 shares a prime with m0*N (say p0 | q1), that part v
     of q1 is summed by its definition and the rest, u = q1 / v, stays
     closed.
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
print("== S_q(c) from its factors: closed form on u, definition on v ==")
inst625 = inst.with_h(2)  # N = 625
q, c625 = 205, (1, 1, 0)
q1, q2 = crt_split(inst625, q)
v = smooth_part(q1, inst625.mN)
u = q1 // v
closed_u = lemma21_eval(inst625, u, q // u, c625).value
brute_v = brute_S1(inst625, v, q // v, c625).value
whole = brute_S(inst625, q, c625).value
print(f"N=625, q={q} = u*v*q2 = {u}*{v}*{q2}, c={c625}:  closed(u) * S1(v) = "
      f"{(closed_u * brute_v).real:+.4f}  brute_S {whole.real:+.4f}  "
      f"sqc_values dev {abs(sqc_values(inst625, q, [c625])[0] - whole):.2e}")

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
