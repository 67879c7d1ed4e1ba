"""Recurrence, exact volumes, and Bernoulli asymptotics of the count function.

For fixed (d, a, b) the count Q(n) is a degree-d polynomial in the twist n, so
its (d+1)-st finite difference vanishes: the alternating binomial sum

    sum_{k=0}^{d+1} (-1)^k C(d+1, k) Q(n0 + d + 1 - k)

is exactly zero for every starting twist n0. The Euclidean volume of the
moment polytope equals the symplectic volume of the bundle; integrating the
sliced simplex volumes (1/d!) (a + n*(b-t))^d over t in [0, b] gives

    ((a + n*b)^(d+1) - a^(d+1)) / ((d+1)! * n)      for n >= 1,
    a^d * b / d!                                    for n = 0 (prism limit).

As n grows, Q/Vol tends to sum_{k=0}^{d} C(d+1, k) B_k b^(-k), the density of
integer points in the polytope. The limit requires the B_1 = +1/2 Bernoulli
convention (power sums over 1..b); the B_1 = -1/2 convention is kept available
because the resulting k=1 sign is how the series is often quoted, and exact
evaluation shows the ratio does not converge to that variant.

Everything is exact: counts are integers, volumes and series are Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from typing import Sequence

from .combinat import binomial
from .polytope import FibrationParams
from .quantization import quantization_dimension

# Exact rational values are stdlib Fractions: always in lowest terms with a
# positive denominator.
ExactRational = Fraction


class BernoulliConvention(Enum):
    B_PLUS = "BPlus"    # B_1 = +1/2
    B_MINUS = "BMinus"  # B_1 = -1/2


@dataclass(frozen=True)
class RecurrenceReport:
    """Alternating binomial sum of d+2 consecutive Q values; zero iff it holds."""

    d: int
    a: int
    b: int
    n0: int
    q_values: tuple[int, ...]
    residual: int


@dataclass(frozen=True)
class AsymptoticSeries:
    """Coefficients c_k = C(d+1, k) * B_k of the density series in 1/b."""

    d: int
    convention: BernoulliConvention
    coefficients: tuple[Fraction, ...]

    def evaluate(self, b: int) -> Fraction:
        """Value sum_k c_k / b^k at integer fiber scale b >= 1."""
        if b < 1:
            raise ValueError(f"series evaluation needs b >= 1, got {b}")
        return sum((c / b**k for k, c in enumerate(self.coefficients)), Fraction(0))

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "convention": self.convention.value,
            "coefficients": [rational_json(c) for c in self.coefficients],
        }


@dataclass(frozen=True)
class ConvergencePoint:
    """One row of a ratio-convergence table."""

    n: int
    ratio: Fraction
    series_value: Fraction
    gap: Fraction

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "ratio": rational_json(self.ratio),
            "series_value": rational_json(self.series_value),
            "gap": rational_json(self.gap),
        }


def rational_json(q: Fraction) -> dict:
    """Schema {"num", "den"} with decimal strings (values can exceed 64 bits)."""
    return {"num": str(q.numerator), "den": str(q.denominator)}


def finite_difference(values: Sequence) -> list:
    """First differences [v1-v0, v2-v1, ...]; needs at least two entries."""
    if len(values) < 2:
        raise ValueError(f"need at least 2 values, got {len(values)}")
    return [b - a for a, b in zip(values, values[1:])]


def recurrence_residual(d: int, a: int, b: int, n0: int) -> RecurrenceReport:
    """Evaluate sum_{k=0}^{d+1} (-1)^k C(d+1, k) Q(n0 + d + 1 - k) exactly."""
    if n0 < 0:
        raise ValueError(f"starting twist must be >= 0, got {n0}")
    q_values = tuple(
        quantization_dimension(FibrationParams(d=d, a=a, b=b, n=n0 + j)).dimension
        for j in range(d + 2)
    )
    residual = sum(
        (-1) ** k * binomial(d + 1, k) * q_values[d + 1 - k] for k in range(d + 2)
    )
    return RecurrenceReport(d=d, a=a, b=b, n0=n0, q_values=q_values, residual=residual)


def symplectic_volume(p: FibrationParams) -> Fraction:
    """Euclidean volume of the moment polytope, exact.

    ((a+n*b)^(d+1) - a^(d+1)) / ((d+1)! * n) for n >= 1; the n = 0 prism is
    the continuous limit a^d * b / d!.
    """
    if p.n == 0:
        return Fraction(p.a**p.d * p.b, factorial(p.d))
    top = (p.a + p.n * p.b) ** (p.d + 1) - p.a ** (p.d + 1)
    return Fraction(top, factorial(p.d + 1) * p.n)


_BERNOULLI_MINUS: list[Fraction] = [Fraction(1)]


def bernoulli(k: int, convention: BernoulliConvention = BernoulliConvention.B_PLUS) -> Fraction:
    """Exact Bernoulli number B_k under the chosen sign convention for B_1.

    Computed from sum_{j=0}^{m} C(m+1, j) B_j = 0 (which yields B_1 = -1/2);
    the two conventions differ only at k = 1.
    """
    if k < 0:
        raise ValueError(f"Bernoulli index must be >= 0, got {k}")
    while len(_BERNOULLI_MINUS) <= k:
        m = len(_BERNOULLI_MINUS)
        acc = sum(binomial(m + 1, j) * _BERNOULLI_MINUS[j] for j in range(m))
        _BERNOULLI_MINUS.append(Fraction(-acc, m + 1))
    value = _BERNOULLI_MINUS[k]
    if k == 1 and convention is BernoulliConvention.B_PLUS:
        return -value
    return value


def asymptotic_series(
    d: int, convention: BernoulliConvention = BernoulliConvention.B_PLUS
) -> AsymptoticSeries:
    """Density series coefficients C(d+1, k) * B_k for k = 0..d."""
    if d < 1:
        raise ValueError(f"base dimension must be >= 1, got {d}")
    coefficients = tuple(binomial(d + 1, k) * bernoulli(k, convention) for k in range(d + 1))
    return AsymptoticSeries(d=d, convention=convention, coefficients=coefficients)


def ratio_convergence(
    d: int,
    a: int,
    b: int,
    n_list: Sequence[int],
    convention: BernoulliConvention = BernoulliConvention.B_PLUS,
) -> list[ConvergencePoint]:
    """Exact Q/Vol against the density series for each twist in n_list.

    Requires b >= 1 and every n >= 1 (at n = 0 the prism-limit volume is not
    the quantity the large-twist statement compares against). Output order
    follows the input order.
    """
    if b < 1:
        raise ValueError(f"ratio convergence needs b >= 1, got b={b}")
    if any(n < 1 for n in n_list):
        raise ValueError("ratio convergence needs every twist n >= 1")
    series_value = asymptotic_series(d, convention).evaluate(b)
    points = []
    for n in n_list:
        p = FibrationParams(d=d, a=a, b=b, n=n)
        ratio = Fraction(quantization_dimension(p).dimension) / symplectic_volume(p)
        points.append(
            ConvergencePoint(
                n=n, ratio=ratio, series_value=series_value, gap=abs(ratio - series_value)
            )
        )
    return points
