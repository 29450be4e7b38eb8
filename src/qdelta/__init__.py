"""qdelta: delta-method lattice point counts on ternary affine quadrics.

Library layout:

* modarith  - exact modular arithmetic, characters, quadratic roots
* qform     - ternary quadratic forms, duals, problem instances
* expsums   - complete exponential sums and their factorizations
* localdens - p-adic densities, singular series, L(1, chi)
* arch      - weights, delta kernel, oscillatory and singular integrals
* pipeline  - enumeration vs truncated expansion, main-term predictions
* cli       - command line front end
"""

from .qform import CongruenceDatum, ProblemInstance, QForm
from .arch import DeltaKernel, QuadratureSpec, WeightSpec

__all__ = [
    "QForm",
    "CongruenceDatum",
    "ProblemInstance",
    "WeightSpec",
    "DeltaKernel",
    "QuadratureSpec",
]

__version__ = "0.1.0"
