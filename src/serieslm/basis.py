"""Univariate series bases and restricted tensor-product interactions.

Two families are supported: raw power series ``v, v^2, ..., v^(a-1)`` and
truncated-power splines ``v, ..., v^s, (v - t_1)_+^s, ...`` with knots placed
at empirical quantiles.  A basis is constant-free: the design's W supplies the
one constant, so no basis carries its own.  The basis size ``a`` still counts
that constant, so a spline of order ``s`` needs ``a >= s + 1`` and carries
``a - s - 1`` knots, and a power basis of size ``a`` is the knot-free spline
of order ``a - 1``.

One function of each kind serves every basis: ``_place_knots`` places the
knots of several counts on a sample with one ``np.quantile`` call,
``knot_problem`` checks them, and ``series_rows`` evaluates the powers and
knot columns of a variable into rows of a caller's buffer.  A
``design.ColumnTable`` calls them once per variable and sample for all its
specs; ``build_basis`` gives one basis as a ``(labels, block)`` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DesignError

__all__ = [
    "BasisSpec",
    "build_basis",
    "knot_level",
    "knot_problem",
    "series_rows",
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
    def order(self) -> int:
        """Highest power: a power basis of size ``a`` is the knot-free spline of order a - 1."""
        return self.a - 1 if self.family == "power" else self.spline_order

    @property
    def n_knots(self) -> int:
        if self.family == "power":
            return 0
        return self.a - self.spline_order - 1


def _power_label(name: str, j: int) -> str:
    return name if j == 1 else f"{name}^{j}"


def _knot_label(name: str, t: float) -> str:
    return f"{name}_tp{t!r}"


def knot_level(q: int, k: int) -> float:
    """The quantile level k / (q + 1) of the k-th of q knots."""
    return k / (q + 1.0)


def _place_knots(v: np.ndarray, counts) -> dict:
    """{q: list of q knots} for each count q, from one ``np.quantile`` over all the levels.

    The knots of a count sit at the empirical quantiles of ``v`` (linear
    interpolation between order statistics) at their ``knot_level``.  Each
    quantile depends on its own level only, so the knots of a count equal
    those of a call for that count alone, and ``+ 0.0`` makes a zero knot
    +0.0 whichever signed zero the partition left there.
    """
    counts = sorted(set(counts))
    values = (np.quantile(v, [knot_level(q, k) for q in counts
                              for k in range(1, q + 1)]) + 0.0).tolist()
    ends = np.cumsum(counts).tolist()
    return {q: values[end - q:end] for q, end in zip(counts, ends)}


def knot_problem(v: np.ndarray, knots: list, name: str):
    """The error that ``knots`` placed on the sample ``v`` of ``name`` raise, or None.

    Placing as many knots as observations, or more, is a ValueError.  Quantile
    knots that coincide (tied data, a constant sample) or reach the sample
    maximum would give repeated or all-zero columns, so they are a
    DesignError naming the variable.
    """
    q = len(knots)
    if not q:
        return None
    if v.size <= q:
        return ValueError(f"need more than {q} observations to place {q} knots")
    if knots[-1] >= np.max(v) or any(b <= a for a, b in zip(knots, knots[1:])):
        return DesignError(
            f"variable {name!r} has {np.unique(v).size} distinct values, "
            f"too few for {q} distinct spline knots below its maximum")
    return None


def _power_rows(arr: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the rows of ``out`` with v, v^2, ...: each the one before times v.

    These are bitwise the columns of ``np.vander(v, increasing=True)``, which
    multiplies the same way, so a lower power's rows are a prefix of a higher's.
    """
    if len(out):
        out[0] = arr
    for j in range(1, len(out)):
        np.multiply(out[j - 1], arr, out=out[j])
    return out


def _knot_rows(arr: np.ndarray, knots: np.ndarray, s: int) -> np.ndarray:
    """One row (v - t)_+^s per knot t.

    Each row is bitwise np.where(arr > t, (arr - t) ** s, 0.0): the same pow
    on the same positive bases and +0.0 ** s = +0.0 elsewhere, but pow never
    sees a negative base, which takes libm's slow path.
    """
    t = knots[:, None]
    return np.where(arr > t, arr - t, 0.0) ** s


def series_rows(v: np.ndarray, top: int, blocks, out: np.ndarray) -> np.ndarray:
    """Write series columns of the sample ``v`` into the first rows of ``out``.

    The powers v, ..., v^top come first, in one pass; then each ``(s,
    knots)`` of ``blocks`` gives one row (v - t)_+^s per knot t, in order.
    Returns the rows written.
    """
    _power_rows(v, out[:top])
    i = top
    for s, knots in blocks:
        out[i:i + len(knots)] = _knot_rows(v, np.array(knots), s)
        i += len(knots)
    return out[:i]


def build_basis(v, spec: BasisSpec, name: str = "v") -> tuple:
    """``(labels, block)`` of a BasisSpec on a sample, knots placed from the sample.

    The block is n x (a - 1).  Labels, checks and bits are those of a
    ``design.ColumnTable``'s columns: both place knots with ``_place_knots``,
    check them with ``knot_problem`` and evaluate with ``series_rows``.
    """
    arr = np.asarray(v, dtype=float).ravel()
    if arr.size < 1:
        raise ValueError("input must contain at least one observation")
    if not np.all(np.isfinite(arr)):
        raise ValueError("input contains non-finite values")
    s, q = spec.order, spec.n_knots
    knots = _place_knots(arr, (q,))[q] if q else []
    problem = knot_problem(arr, knots, name)
    if problem is not None:
        raise problem
    labels = tuple([_power_label(name, j) for j in range(1, s + 1)]
                   + [_knot_label(name, t) for t in knots])
    return labels, series_rows(arr, s, [(s, knots)], np.empty((s + q, arr.size))).T


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
