"""End to end: direct lattice enumeration vs the truncated expansion, and the
main-term prediction.

Two independent computations of the same weighted count of integer points on
F(x) = m0 * p0^(2h) with x = lambda mod L:

  * enumerate_gamma walks the lattice directly (exact, exponential in log N);
  * poisson_rhs evaluates the dual side -- exponential sums times oscillatory
    integrals, summed over moduli q and frequency vectors c.

The two must agree to truncation accuracy.  The expansion additionally
splits by frequency class: the zero frequency carries the main term, the
"exceptional" frequencies (square discriminant of the dual-form value)
carry the secondary term, and the ordinary ones average out.

Finally, the main-term prediction (archimedean density x singular series x
growth factor) is compared against the exact counts along h = 1, 2, 3.
"""

from __future__ import annotations

import math

from qdelta.arch import WeightSpec
from qdelta.pipeline import enumerate_gamma, poisson_rhs, predict_main
from qdelta.qform import CongruenceDatum, ProblemInstance, QForm

weight = WeightSpec(center=(1.25, 0.5, 0.9013878188659973), radius=0.6)
inst = ProblemInstance(QForm.diagonal(1, 1, -1), 1, 5, 1, CongruenceDatum(1, (0, 0, 0)), weight)

print("== both sides of the identity (x^2 + y^2 - z^2 = 25, weighted) ==")
gamma = enumerate_gamma(inst)
print(f"direct enumeration: {gamma.weighted:.6f}  ({gamma.raw_count} lattice points "
      f"in the window, {gamma.wall_time:.2f}s)")
exp = poisson_rhs(inst)
print(f"truncated expansion: {exp.total.real:.6f}  "
      f"({exp.n_terms} (q, c) terms on the support of S_q(c), q <= {exp.q_max}, "
      f"|c| <= {exp.c_max})")
print(f"  zero frequency      {exp.zero_part.real:+.6f}")
print(f"  exceptional         {exp.exceptional_part.real:+.6f}")
print(f"  ordinary            {exp.ordinary_part.real:+.6f}")
print(f"difference: {abs(exp.total.real - gamma.weighted):.4f} "
      f"(tolerance 2% of max(count, sqrt(N)) = {0.02 * max(gamma.weighted, 5):.4f})")

print()
print("== main-term prediction along h (square-discriminant branch) ==")
rep = predict_main(
    ProblemInstance(QForm.diagonal(1, 1, -1), 1, 3, 1, CongruenceDatum(1, (0, 0, 0)), weight),
    h_values=(1, 2, 3),
)
main = rep.predictions["main_sqrtN_logsqrtN"]
print(f"archimedean density {rep.singular_integral:.6f}, "
      f"singular series {rep.series.value:.6f}")
print(" h |  sqrt(N) | exact count | predicted main | ratio")
for h, g, m in zip(rep.h_values, rep.gammas, main):
    print(f"{h:2d} | {3.0**h:8.1f} | {g:11.4f} | {m:14.4f} | {g / m:.4f}")
print("The ratio drifts toward 1 like 1/log sqrt(N); the bounded residual")
print("(count - main)/p0^h is the empirically extracted secondary constant.")
