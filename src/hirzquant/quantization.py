"""The quantization dimension of the twisted-bundle family and its identities.

For parameters (d, a, b, n) the dimension is the lattice count

    Q(d, a, b, n) = sum_{i=0}^{b} C(a + d + n*i, d),

whose i = 0 term is the base contribution C(a+d, d) (the quantization of CP^d
at scale a) and whose i >= 1 terms come from the fibers. `slice_terms` is the
one place that lists these b + 1 terms. `quantization_dimension` does not sum
them: the terms are a degree-d polynomial in i, so Q is a degree-(d+1)
polynomial in b, and Newton's forward-difference series gives it exactly in
O(d^2) integer steps at any b. Special twists admit shorter forms:

* d = 1 (ordinary ruled surfaces):  (a + 1 + n*b/2) * (b + 1);
* n = 0 (trivial bundle, a product): C(a+d, d) * (b + 1);
* n = 1 (blow-up of CP^(d+1) along a CP^(d-1)):
  C(a+b+d+1, d+1) - C(a+d, d+1).

The n = 1 count also decomposes as big space minus removed chunk plus the
points of the exceptional locus. Two variants of that decomposition are
implemented: the Pascal-consistent one, whose residual is always zero, and an
uncorrected variant whose last term is C(a+d-1, d-1) and which undercounts by
exactly C(a+d, d) - C(a+d-1, d-1); both are reported with exact residuals
rather than booleans so the discrepancy stays visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .combinat import binomial
from .polytope import FibrationParams


class IdentityName(Enum):
    UNTWISTED_PRODUCT = "untwisted_product"
    BLOWUP_BINOMIAL = "blowup_binomial"
    BLOWUP_DECOMPOSITION_CORRECTED = "blowup_decomposition_corrected"
    BLOWUP_DECOMPOSITION_UNCORRECTED = "blowup_decomposition_uncorrected"


@dataclass(frozen=True)
class QuantizationRecord:
    """Exact dimension with its base/fiber breakdown.

    The breakdown is listed from `params` on each access, in O(b) steps.
    """

    params: FibrationParams
    dimension: int

    @property
    def base_term(self) -> int:
        return slice_terms(self.params, 1)[0]

    @property
    def fiber_terms(self) -> tuple[int, ...]:
        return tuple(slice_terms(self.params)[1:])

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "dimension": str(self.dimension),
            "base_term": str(self.base_term),
            "fiber_terms": [str(t) for t in self.fiber_terms],
        }


@dataclass(frozen=True)
class IdentityReport:
    """Both sides of an identity and their exact difference."""

    identity_name: IdentityName
    lhs: int
    rhs: int
    residual: int

    def __post_init__(self):
        if self.residual != self.lhs - self.rhs:
            raise ValueError("residual must equal lhs - rhs")

    @property
    def holds(self) -> bool:
        return self.residual == 0

    def to_json(self) -> dict:
        return {
            "identity_name": self.identity_name.value,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "residual": str(self.residual),
        }


def slice_terms(p: FibrationParams, count: int | None = None) -> list[int]:
    """The terms C(a + d + n*i, d) of Q for i = 0..count-1 (default: all b + 1).

    Term i counts the lattice points of the polytope's slice at height b - i,
    a CP^d simplex at scale a + n*i.
    """
    count = p.b + 1 if count is None else count
    return [binomial(p.a + p.d + p.n * i, p.d) for i in range(count)]


def quantization_dimension(p: FibrationParams) -> QuantizationRecord:
    """Q(d, a, b, n) by Newton's forward-difference series in b.

    With f(i) = C(a + d + n*i, d), a polynomial of degree d in i,
    Q = sum_{k=0}^{d} (Delta^k f)(0) * C(b+1, k+1), since the hockey stick gives
    sum_{i=0}^{b} C(i, k) = C(b+1, k+1). That binomial vanishes for k > b, so
    only k <= min(d, b) contributes, and those differences need f(0..min(d, b)).
    """
    m = min(p.d, p.b)
    diffs = slice_terms(p, m + 1)
    dimension = 0
    for k in range(m + 1):
        # diffs[0] is (Delta^k f)(0); difference the rest in place for k + 1.
        dimension += diffs[0] * binomial(p.b + 1, k + 1)
        for j in range(m - k):
            diffs[j] = diffs[j + 1] - diffs[j]
    return QuantizationRecord(params=p, dimension=dimension)


def hirzebruch_surface_closed_form(a: int, b: int, n: int) -> int:
    """d = 1 closed form (a + 1 + n*b/2) * (b + 1), an integer for all a, b, n >= 0."""
    if min(a, b, n) < 0:
        raise ValueError("parameters must be nonnegative")
    # (2a + 2 + n*b) * (b + 1) is even: if b is odd, b + 1 is even; if b is
    # even, so is 2a + 2 + n*b.
    return (2 * a + 2 + n * b) * (b + 1) // 2


def untwisted_product_formula(p: FibrationParams) -> IdentityReport:
    """n = 0 factorization: Q = C(a+d, d) * (b + 1)."""
    if p.n != 0:
        raise ValueError(f"product formula requires n=0, got n={p.n}")
    lhs = quantization_dimension(p).dimension
    rhs = binomial(p.a + p.d, p.d) * (p.b + 1)
    return IdentityReport(IdentityName.UNTWISTED_PRODUCT, lhs, rhs, lhs - rhs)


def blowup_count_formula(p: FibrationParams) -> IdentityReport:
    """n = 1 closed form: Q = C(a+b+d+1, d+1) - C(a+d, d+1)."""
    if p.n != 1:
        raise ValueError(f"blow-up formula requires n=1, got n={p.n}")
    lhs = quantization_dimension(p).dimension
    rhs = binomial(p.a + p.b + p.d + 1, p.d + 1) - binomial(p.a + p.d, p.d + 1)
    return IdentityReport(IdentityName.BLOWUP_BINOMIAL, lhs, rhs, lhs - rhs)


def blowup_decomposition(p: FibrationParams, corrected: bool = True) -> IdentityReport:
    """n = 1 decomposition into big space minus chunk plus exceptional locus.

    corrected=True uses C(a+d, d) as the last term, which Pascal's rule forces:
      C(a+d+1, d+1) - C(a+d, d+1) = C(a+d, d);
    that variant has residual 0 identically. corrected=False evaluates the
    variant ending in C(a+d-1, d-1) instead (the count for a CP^(d-1) factor
    at scale a; a point contributing one dimension when d = 1), whose residual
    is exactly C(a+d, d) - C(a+d-1, d-1), nonzero whenever a >= 1.
    """
    if p.n != 1:
        raise ValueError(f"blow-up decomposition requires n=1, got n={p.n}")
    lhs = quantization_dimension(p).dimension
    head = binomial(p.a + p.b + p.d + 1, p.d + 1) - binomial(p.a + p.d + 1, p.d + 1)
    if corrected:
        name = IdentityName.BLOWUP_DECOMPOSITION_CORRECTED
        rhs = head + binomial(p.a + p.d, p.d)
    else:
        name = IdentityName.BLOWUP_DECOMPOSITION_UNCORRECTED
        rhs = head + binomial(p.a + p.d - 1, p.d - 1)
    return IdentityReport(name, lhs, rhs, lhs - rhs)
