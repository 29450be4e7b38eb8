"""Integral ternary quadratic forms and problem-instance assembly.

F(x) = a11 x1^2 + a22 x2^2 + a33 x3^2 + a12 x1 x2 + a13 x1 x3 + a23 x2 x3,
restricted to classically integral forms (even cross coefficients) so the Gram
determinant is an integer.  The dual form is the adjugate quadratic form; it
drives the classification of Poisson variables into exceptional and ordinary.

`residue_rows` is the one residue-grid kernel: F(scale*s + lam) + shift over
s mod size, row by row, each row an int64 array in [0, 3 modulus) congruent
to the value mod modulus.  The exponential sums gather their Ramanujan
table over it, and the local densities count and certify its zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .modarith import is_prime, is_square, jacobi

_INT128_MAX = 1 << 127


class CClass(Enum):
    """Classification of a nonzero Poisson variable c."""

    EXCEPTIONAL_TYPE_I = "exceptional-I"   # m0 * det * F*(c) a nonzero square
    EXCEPTIONAL_TYPE_II = "exceptional-II"  # F*(c) = 0
    ORDINARY = "ordinary"


@dataclass(frozen=True)
class QForm:
    """Non-degenerate classically integral ternary quadratic form."""

    a11: int
    a22: int
    a33: int
    a12: int = 0
    a13: int = 0
    a23: int = 0

    def __post_init__(self):
        for name in ("a12", "a13", "a23"):
            if getattr(self, name) % 2 != 0:
                raise ValueError(
                    f"cross coefficient {name}={getattr(self, name)} is odd; "
                    "only classically integral forms (even cross terms) are supported"
                )
        if self.det() == 0:
            raise ValueError("degenerate form: Gram determinant is zero")

    @classmethod
    def diagonal(cls, a: int, b: int, c: int) -> "QForm":
        return cls(a, b, c)

    def gram(self) -> list[list[int]]:
        """Integer Gram matrix M with F(x) = x^T M x."""
        m12, m13, m23 = self.a12 // 2, self.a13 // 2, self.a23 // 2
        return [
            [self.a11, m12, m13],
            [m12, self.a22, m23],
            [m13, m23, self.a33],
        ]

    def det(self) -> int:
        """Gram determinant (the discriminant entering psi0 and Omega)."""
        m = self.gram()
        return (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )

    def adjugate(self) -> list[list[int]]:
        m = self.gram()
        cof = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(3):
                sub = [
                    [m[r][c] for c in range(3) if c != j]
                    for r in range(3) if r != i
                ]
                cof[i][j] = (-1) ** (i + j) * (
                    sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
                )
        # adjugate = transpose of cofactor matrix
        return [[cof[j][i] for j in range(3)] for i in range(3)]

    def __call__(self, x) -> int:
        return evaluate(self, x)

    def gradient(self, x) -> tuple[int, int, int]:
        """Integer gradient of F at x (equals 2 M x)."""
        x1, x2, x3 = (int(v) for v in x)
        return (
            2 * self.a11 * x1 + self.a12 * x2 + self.a13 * x3,
            2 * self.a22 * x2 + self.a12 * x1 + self.a23 * x3,
            2 * self.a33 * x3 + self.a13 * x1 + self.a23 * x2,
        )

    def dual(self) -> "QForm":
        return dual_form(self)

    def coefficients(self) -> tuple[int, int, int, int, int, int]:
        return (self.a11, self.a22, self.a33, self.a12, self.a13, self.a23)

    def solve_order(self) -> tuple[int, int, int] | None:
        """Coordinate order (i, j, k) for a quadratic solve along x_k, the
        last axis with a nonzero square coefficient; None when
        a11 = a22 = a33 = 0."""
        m = self.gram()
        k = next((i for i in (2, 1, 0) if m[i][i] != 0), None)
        if k is None:
            return None
        i, j = (a for a in range(3) if a != k)
        return i, j, k

    def permuted(self, order) -> "QForm":
        """The same form in the coordinates y_a = x_{order[a]}."""
        m = self.gram()
        i, j, k = order
        return QForm(m[i][i], m[j][j], m[k][k], 2 * m[i][j], 2 * m[i][k], 2 * m[j][k])


def evaluate(form: QForm, x) -> int:
    """Exact integer value F(x); rejects results beyond 128-bit signed."""
    x1, x2, x3 = (int(v) for v in x)
    val = (
        form.a11 * x1 * x1
        + form.a22 * x2 * x2
        + form.a33 * x3 * x3
        + form.a12 * x1 * x2
        + form.a13 * x1 * x3
        + form.a23 * x2 * x3
    )
    if abs(val) >= _INT128_MAX:
        raise OverflowError("form value exceeds 128-bit signed range")
    return val


def form_values(form: QForm, x1, x2, x3):
    """F on arrays of coordinates, broadcast against each other; with open
    axes (x1[:, None, None], x2[None, :, None], x3[None, None, :]) this is F
    on the tensor grid.  Fixed-width arithmetic: no overflow check.

    The six terms are summed in the order of the module docstring, but a
    cross term with coefficient 0 is skipped and the others are added in
    place into the full-size sum of squares.  On finite coordinates, adding
    a zero term can change only the sign of an exact-zero float value, so
    the result equals the literal six-term expression bit for bit wherever
    F != 0.  Every float caller subtracts a nonzero m0 or target before
    using the values, and integer arrays have no signed zero."""
    a11, a22, a33, a12, a13, a23 = form.coefficients()
    out = a11 * x1 * x1 + a22 * x2 * x2 + a33 * x3 * x3
    for a, u, v in ((a12, x1, x2), (a13, x1, x3), (a23, x2, x3)):
        if a:
            out += a * u * v
    return out


def residue_rows(form: QForm, scale: int, lam, shift: int, modulus: int, size: int):
    """Rows of F(scale*s + lam) + shift over the residue grid s in [0, size)^3:
    an iterator over s1 = 0..size-1 of an int64 (size, size) array in
    [0, 3 modulus), congruent to the value mod modulus.  The (s2, s3) part
    is reduced into [0, modulus) once; each row adds its s1 terms (diagonal
    and cross) as reduced row and column vectors.  Fixed-width arithmetic:
    no overflow check."""
    a11, a22, a33, a12, a13, a23 = form.coefficients()
    s = np.arange(size, dtype=np.int64)
    x2 = scale * s + lam[1]
    x3 = scale * s + lam[2]
    base = (a22 * x2 * x2) % modulus
    base = base[:, None] + ((a33 * x3 * x3 + shift) % modulus)[None, :]
    if a23 != 0:
        base = (base + a23 * np.outer(x2, x3)) % modulus
    else:
        base[base >= modulus] -= modulus
    for s1 in range(size):
        x1 = scale * s1 + lam[0]
        yield (base + ((a11 * x1 * x1 + a12 * x1 * x2) % modulus)[:, None]) + (
            (a13 * x1 * x3) % modulus
        )[None, :]


def dual_form(form: QForm) -> QForm:
    """Dual form F*(c) = c^T adj(M) c; satisfies F*(M x) = det(M) * F(x)."""
    adj = form.adjugate()
    return QForm(
        a11=adj[0][0],
        a22=adj[1][1],
        a33=adj[2][2],
        a12=2 * adj[0][1],
        a13=2 * adj[0][2],
        a23=2 * adj[1][2],
    )


@dataclass(frozen=True)
class RealCharacter:
    """The real character n -> (disc / n): Jacobi symbol on odd n coprime to
    2*disc, zero otherwise.  `square` flags the principal case disc = square."""

    disc: int
    square: bool

    def __call__(self, n: int) -> int:
        n = int(n)
        if n <= 0:
            raise ValueError("character argument must be positive")
        if n % 2 == 0 or math.gcd(n, 2 * abs(self.disc)) > 1:
            return 0
        return jacobi(self.disc, n)


def psi0(form: QForm, m0: int) -> RealCharacter:
    """The real character attached to -m0 * det(F), with its square flag."""
    disc = -m0 * form.det()
    if disc == 0:
        raise ValueError("m0 * det(F) must be nonzero")
    return RealCharacter(disc=disc, square=is_square(disc))


@dataclass(frozen=True)
class CongruenceDatum:
    """Congruence condition x = lam mod L with F(lam) = m0 mod L."""

    L: int
    lam: tuple[int, int, int]

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("L must be a positive integer")
        if any(not 0 <= v < self.L for v in self.lam):
            raise ValueError("lambda entries must be reduced mod L")

    def validate(self, form: QForm, m0: int) -> None:
        if (evaluate(form, self.lam) - m0) % self.L != 0:
            raise ValueError("F(lambda) != m0 mod L")


@dataclass(frozen=True)
class ProblemInstance:
    """Everything the weighted counting function needs.

    N = p0^(2h); lam_N = p0^h * lam mod L; Q = sqrt(N)/L; Omega = 2*L*det(F).
    The weight is any object exposing the WeightSpec interface (see arch).
    """

    form: QForm
    m0: int
    p0: int
    h: int
    cong: CongruenceDatum
    weight: object = None

    def __post_init__(self):
        if self.m0 == 0:
            raise ValueError("m0 must be nonzero")
        if self.h < 0:
            raise ValueError("h must be nonnegative")
        if not is_prime(self.p0):
            raise ValueError(f"p0={self.p0} is not prime")
        if self.cong.L % self.p0 == 0:
            raise ValueError("p0 must not divide L")
        self.cong.validate(self.form, self.m0)

    @property
    def N(self) -> int:
        return self.p0 ** (2 * self.h)

    @property
    def sqrtN(self) -> int:
        return self.p0**self.h

    @property
    def L(self) -> int:
        return self.cong.L

    @property
    def lam_N(self) -> tuple[int, int, int]:
        s = self.sqrtN
        return tuple(s * v % self.L for v in self.cong.lam)

    @property
    def mN(self) -> int:
        return self.m0 * self.N

    @property
    def Q(self) -> Fraction:
        return Fraction(self.sqrtN, self.L)

    @property
    def omega(self) -> int:
        return 2 * self.L * self.form.det()

    def with_h(self, h: int) -> "ProblemInstance":
        return ProblemInstance(self.form, self.m0, self.p0, h, self.cong, self.weight)


def classifier_range_check(instance: ProblemInstance, c_max: int) -> None:
    """Refuse (OverflowError) |c|_inf <= c_max unless
    |m0 det| * sum|F* coefficients| * c_max^2 < 2^62: _classify_array's range."""
    scale = abs(instance.m0 * instance.form.det())
    if scale * sum(map(abs, instance.form.dual().coefficients())) * c_max**2 >= 1 << 62:
        raise OverflowError("m0 * det * F*(c) exceeds the int64 classifier's range")


def _classify_array(instance: ProblemInstance, c1, c2, c3):
    """Masks (type_i, type_ii) of the exceptional Poisson variables among
    integer arrays c1, c2, c3 (broadcast against each other): type II is
    F*(c) = 0 (the zero vector included), type I is m0 * det * F*(c) a
    nonzero square.  Fixed-width int64 arithmetic, refused outside
    classifier_range_check's range: inside it no step wraps and the rounded
    float square root is the exact one.  It holds three 8-byte arrays of c's shape at most."""
    classifier_range_check(instance, max(int(np.max(np.abs(c), initial=0)) for c in (c1, c2, c3)))
    # m0 det != 0, so prod = 0 exactly where F*(c) = 0
    prod = form_values(instance.form.dual(), c1, c2, c3)
    prod *= instance.m0 * instance.form.det()
    root = np.floor(np.sqrt(np.maximum(prod, 0.0)) + 0.5).astype(np.int64)
    root *= root
    return (prod > 0) & (root == prod), prod == 0


def classify_c(instance: ProblemInstance, c) -> CClass:
    """Exceptional/ordinary trichotomy of a nonzero Poisson variable."""
    c = tuple(int(v) for v in c)
    if c == (0, 0, 0):
        raise ValueError("c must be nonzero")
    type_i, type_ii = _classify_array(instance, *np.array(c, dtype=np.int64))
    if type_ii:
        return CClass.EXCEPTIONAL_TYPE_II
    if type_i:
        return CClass.EXCEPTIONAL_TYPE_I
    return CClass.ORDINARY
