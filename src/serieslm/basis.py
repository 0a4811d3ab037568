"""Univariate series bases and restricted tensor-product interactions.

Two families are supported: raw power series ``(1, v, v^2, ...)`` and
truncated-power splines ``(1, v, ..., v^s, (v - t_1)_+^s, ...)`` with knots
placed at empirical quantiles.  The basis size ``a`` always counts the
constant, so a spline of order ``s`` needs ``a >= s + 1`` and carries
``a - s - 1`` knots; with zero knots the two families coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DesignError

__all__ = [
    "BasisSpec",
    "BasisMatrix",
    "power_basis",
    "quantile_knots",
    "spline_basis",
    "build_basis",
    "restricted_interaction_order",
    "tensor_interactions",
]

FAMILIES = ("power", "spline")


@dataclass(frozen=True)
class BasisSpec:
    """Recipe for a univariate series basis.

    Parameters
    ----------
    family : str
        "power" or "spline".
    a : int
        Number of basis terms, including the constant.
    spline_order : int
        Order s of the truncated-power spline (cubic by default); ignored
        for the power family.  A spline carries ``a - s - 1`` knots at the
        empirical quantile levels k / (a - s), k = 1, ...
    """

    family: str
    a: int
    spline_order: int = 3

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}")
        if self.a < 1:
            raise ValueError("basis size a must be >= 1")
        if self.family == "spline":
            if self.spline_order < 1:
                raise ValueError("spline order must be >= 1")
            if self.a < self.spline_order + 1:
                raise ValueError(
                    f"spline basis needs a >= s + 1 (got a={self.a}, s={self.spline_order})"
                )

    @property
    def n_knots(self) -> int:
        if self.family == "power":
            return 0
        return self.a - self.spline_order - 1


@dataclass(frozen=True)
class BasisMatrix:
    """Evaluated basis: an n-by-a matrix whose first column is the constant."""

    values: np.ndarray
    column_labels: tuple = field(default=())

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError("basis values must be a 2-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("basis contains non-finite entries")
        if vals.shape[1] >= 1 and not np.all(vals[:, 0] == 1.0):
            raise ValueError("first basis column must be the constant")
        if len(self.column_labels) != vals.shape[1]:
            raise ValueError("one label per column required")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "column_labels", tuple(self.column_labels))


def _as_vector(v, what="input"):
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size < 1:
        raise ValueError(f"{what} must contain at least one observation")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


def _power_label(name: str, j: int) -> str:
    if j == 0:
        return "const"
    if j == 1:
        return name
    return f"{name}^{j}"


def power_basis(v, a: int, name: str = "v") -> BasisMatrix:
    """Raw powers 1, v, ..., v^(a-1) evaluated at the sample points."""
    arr = _as_vector(v)
    if a < 1:
        raise ValueError("basis size a must be >= 1")
    vals = np.vander(arr, a, increasing=True)
    # a list, not a generator (see design.AlternativeSpec)
    labels = tuple([_power_label(name, j) for j in range(a)])
    return BasisMatrix(vals, labels)


def quantile_knots(v, q: int) -> np.ndarray:
    """Empirical quantiles of v at levels k/(q+1), k = 1..q.

    Linear interpolation between order statistics; returns a nondecreasing
    vector inside the sample range.
    """
    if q < 0:
        raise ValueError("knot count must be nonnegative")
    arr = _as_vector(v)
    if q == 0:
        return np.empty(0)
    if arr.size <= q:
        raise ValueError(f"need more than {q} observations to place {q} knots")
    if arr.min() == arr.max():
        raise ValueError("cannot place knots on a degenerate (constant) sample")
    levels = np.arange(1, q + 1) / (q + 1.0)
    return np.quantile(arr, levels)


def spline_basis(v, a: int, s: int = 3, knots=None, name: str = "v") -> BasisMatrix:
    """Truncated-power spline basis 1, v, ..., v^s, (v - t_k)_+^s.

    ``knots`` must have exactly ``a - s - 1`` nondecreasing entries; pass an
    empty sequence (or None with a == s + 1) for the knot-free case, which
    coincides with ``power_basis(v, a)``.  The knot columns form one block.
    """
    arr = _as_vector(v)
    if s < 1:
        raise ValueError("spline order must be >= 1")
    if a < s + 1:
        raise ValueError(f"spline basis needs a >= s + 1 (got a={a}, s={s})")
    knots = np.empty(0) if knots is None else np.asarray(knots, dtype=float).ravel()
    if knots.size != a - s - 1:
        raise ValueError(
            f"expected {a - s - 1} knots for a={a}, s={s}; got {knots.size}"
        )
    if knots.size and np.any(np.diff(knots) < 0):
        raise ValueError("knots must be nondecreasing")

    # each knot's column is bitwise np.where(arr > t, (arr - t) ** s, 0.0): the
    # same pow on the same positive bases and +0.0 ** s = +0.0 elsewhere, but
    # pow never sees a negative base, which takes libm's slow path
    v = arr[:, None]
    vals = np.hstack([np.vander(arr, s + 1, increasing=True),
                      np.where(v > knots, v - knots, 0.0) ** s])
    return BasisMatrix(vals, tuple([_power_label(name, j) for j in range(s + 1)]
                                   + [f"{name}_tp{t!r}" for t in knots]))


def build_basis(v, spec: BasisSpec, name: str = "v") -> BasisMatrix:
    """Evaluate a BasisSpec on a sample, placing knots from the sample itself."""
    if spec.family == "power":
        return power_basis(v, spec.a, name=name)
    knots = quantile_knots(v, spec.n_knots)
    return spline_basis(v, spec.a, spec.spline_order, knots, name=name)


def restricted_interaction_order(a: int) -> int:
    """Reduced basis size used when forming interaction terms.

    Equals a itself up to 5, then caps at 5 until a = 7, then grows like
    floor(a^0.9).  Keeps the interaction block from exploding while the
    univariate expansions grow.
    """
    if a < 1:
        raise ValueError("basis size a must be >= 1")
    return max(min(a, 5), math.floor(a ** 0.9))


def tensor_interactions(b1: BasisMatrix, b2: BasisMatrix) -> np.ndarray:
    """All products of non-constant columns of two bases.

    Returns an ``n x (p-1)(q-1)`` array whose columns run over the terms of
    ``b2`` fastest; the constant columns are dropped before multiplying so
    plain univariate terms never reappear here.
    """
    m1, m2 = b1.values, b2.values
    if m1.shape[0] != m2.shape[0]:
        raise DesignError("interaction inputs must have equal row counts")
    left = m1[:, 1:]
    right = m2[:, 1:]
    prods = left[:, :, None] * right[:, None, :]
    return prods.reshape(m1.shape[0], -1)

