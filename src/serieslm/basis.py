"""Univariate series bases and restricted tensor-product interactions.

Two families are supported: raw power series ``v, v^2, ..., v^(a-1)`` and
truncated-power splines ``v, ..., v^s, (v - t_1)_+^s, ...`` with knots placed
at empirical quantiles.  A basis is a constant-free ``(labels, block)`` pair:
the design's W supplies the one constant, so no basis carries its own.  The
basis size ``a`` still counts that constant, so a spline of order ``s`` needs
``a >= s + 1`` and carries ``a - s - 1`` knots, and a power basis of size
``a`` is the knot-free spline of order ``a - 1``: both go through
``spline_basis``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DesignError

__all__ = [
    "BasisSpec",
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
        Number of basis terms, counting the constant that W supplies; the
        evaluated block has ``a - 1`` columns.
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


def _as_vector(v, what="input"):
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size < 1:
        raise ValueError(f"{what} must contain at least one observation")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} contains non-finite values")
    return arr


def _power_label(name: str, j: int) -> str:
    return name if j == 1 else f"{name}^{j}"


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


def spline_basis(v, a: int, s: int = 3, knots=None, name: str = "v") -> tuple:
    """Truncated-power spline basis v, ..., v^s, (v - t_k)_+^s, without its constant.

    Returns ``(labels, block)`` with an ``n x (a - 1)`` block.  ``knots``
    must have exactly ``a - s - 1`` nondecreasing entries; pass an empty
    sequence (or None with a == s + 1) for the knot-free case, which is the
    power basis of size ``a`` (order s = 0 is allowed there, giving the
    empty block of ``a = 1``).  The knot columns form one block.
    """
    arr = _as_vector(v)
    if s < (1 if a > s + 1 else 0):
        raise ValueError("spline order must be >= 1, or >= 0 without knots")
    if a < s + 1:
        raise ValueError(f"spline basis needs a >= s + 1 (got a={a}, s={s})")
    knots = np.empty(0) if knots is None else np.asarray(knots, dtype=float).ravel()
    if knots.size != a - s - 1:
        raise ValueError(
            f"expected {a - s - 1} knots for a={a}, s={s}; got {knots.size}"
        )
    if knots.size and np.any(np.diff(knots) < 0):
        raise ValueError("knots must be nondecreasing")

    labels = tuple([_power_label(name, j) for j in range(1, s + 1)]
                   + [f"{name}_tp{float(t)!r}" for t in knots])
    powers = np.vander(arr, s + 1, increasing=True)[:, 1:]
    if not knots.size:
        return labels, powers
    # each knot's column is bitwise np.where(arr > t, (arr - t) ** s, 0.0): the
    # same pow on the same positive bases and +0.0 ** s = +0.0 elsewhere, but
    # pow never sees a negative base, which takes libm's slow path
    v = arr[:, None]
    return labels, np.hstack([powers, np.where(v > knots, v - knots, 0.0) ** s])


def build_basis(v, spec: BasisSpec, name: str = "v") -> tuple:
    """``(labels, block)`` of a BasisSpec on a sample, knots placed from the sample.

    A power basis is the knot-free spline of order ``a - 1``.  Quantile knots
    that coincide (tied data) or reach the sample maximum would give repeated
    or all-zero columns, so they are a DesignError naming the variable.
    """
    if spec.family == "power":
        return spline_basis(v, spec.a, spec.a - 1, name=name)
    knots = quantile_knots(v, spec.n_knots)
    if knots.size and (np.any(np.diff(knots) <= 0) or knots[-1] >= np.max(v)):
        raise DesignError(
            f"variable {name!r} has {np.unique(v).size} distinct values, too few "
            f"for {knots.size} distinct spline knots below its maximum")
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


def tensor_interactions(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """All products of the columns of two constant-free basis blocks.

    Returns an ``n x p q`` array whose columns run over the columns of
    ``right`` fastest; neither block holds a constant, so plain univariate
    terms never reappear here.
    """
    if left.shape[0] != right.shape[0]:
        raise DesignError("interaction inputs must have equal row counts")
    prods = left[:, :, None] * right[:, None, :]
    return prods.reshape(left.shape[0], -1)
