"""Univariate series bases and restricted tensor-product interactions.

Two families are supported: raw power series ``v, v^2, ..., v^(a-1)`` and
truncated-power splines ``v, ..., v^s, (v - t_1)_+^s, ...`` with knots placed
at empirical quantiles.  A basis is constant-free: the design's W supplies the
one constant, so no basis carries its own.  The basis size ``a`` still counts
that constant, so a spline of order ``s`` needs ``a >= s + 1`` and carries
``a - s - 1`` knots, and a power basis of size ``a`` is the knot-free spline
of order ``a - 1``.

``SeriesColumns`` serves every basis of one variable on one sample: its powers
come from one pass at the highest power asked for, the knots of every size
from one ``np.quantile`` call, and each distinct knot column is computed once.
``build_basis`` and ``spline_basis`` give one basis as a ``(labels, block)``
pair with the same labels, checks and bits.
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
    "SeriesColumns",
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


def _knot_label(name: str, t: float) -> str:
    return f"{name}_tp{t!r}"


def _levels(q: int) -> np.ndarray:
    return np.arange(1, q + 1) / (q + 1.0)


def _place_knots(arr: np.ndarray, counts) -> dict:
    """{q: list of knots} for each count q, from one ``np.quantile`` over all the levels.

    Each quantile depends on its own level only, so the knots of a count are
    bitwise those of a call for that count alone.
    """
    counts = sorted(set(counts))
    values = np.quantile(arr, np.concatenate([_levels(q) for q in counts])).tolist()
    ends = np.cumsum(counts).tolist()
    return {q: values[end - q:end] for q, end in zip(counts, ends)}


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
    return np.array(_place_knots(arr, (q,))[q])


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
                   + [_knot_label(name, t) for t in knots.tolist()])
    powers = _power_rows(arr, np.empty((s, arr.size))).T
    if not knots.size:
        return labels, powers
    return labels, np.hstack([powers, _knot_rows(arr, knots, s).T])


class SeriesColumns:
    """The basis columns of one variable for any of several BasisSpecs.

    ``specs`` lists every spec whose basis may be asked for; the knots of
    all their knot counts come from one ``np.quantile`` call, made here.
    ``terms(spec)`` gives the labels and column keys of one of those specs'
    bases and runs its knot checks; ``evaluate(keys)`` computes distinct
    keys, each once.  A key is ``j`` for the power v^j and ``(s, t)`` for the
    knot column (v - t)_+^s.
    """

    def __init__(self, v, specs, name: str = "v"):
        self.v = _as_vector(v)
        self.name = name
        counts = {spec.n_knots for spec in specs} - {0}
        self._knots = _place_knots(self.v, counts) if counts else {}
        self._max = float(np.max(self.v))

    def terms(self, spec: BasisSpec) -> tuple:
        """``(labels, keys)`` of ``spec``'s basis, its knots placed from the sample.

        A power basis is the knot-free spline of order ``a - 1``.  Quantile
        knots that coincide (tied data, a constant sample) or reach the sample
        maximum would give repeated or all-zero columns, so they are a
        DesignError naming the variable.
        """
        s, q = (spec.a - 1, 0) if spec.family == "power" else (spec.spline_order,
                                                               spec.n_knots)
        knots = []
        if q:
            if self.v.size <= q:
                raise ValueError(f"need more than {q} observations to place {q} knots")
            knots = self._knots[q]
            if knots[-1] >= self._max or any(b <= a for a, b in zip(knots, knots[1:])):
                raise DesignError(
                    f"variable {self.name!r} has {np.unique(self.v).size} distinct values, "
                    f"too few for {q} distinct spline knots below its maximum")
        powers = list(range(1, s + 1))
        return ([_power_label(self.name, j) for j in powers]
                + [_knot_label(self.name, t) for t in knots],
                powers + [(s, t) for t in knots])

    def evaluate(self, keys) -> tuple:
        """``(keys, rows)``: the distinct ``keys`` of ``terms``, one row of values each.

        The powers v, ..., v^p are one pass at the highest, and the knot
        columns of each order one block.
        """
        top, knots = 0, {}
        for key in keys:
            if isinstance(key, tuple):
                knots.setdefault(key[0], {})[key[1]] = None
            else:
                top = max(top, key)
        order = list(range(1, top + 1)) + [(s, t) for s, ts in knots.items() for t in ts]
        rows = np.empty((len(order), self.v.size))
        _power_rows(self.v, rows[:top])
        i = top
        for s, ts in knots.items():
            rows[i:i + len(ts)] = _knot_rows(self.v, np.array(list(ts)), s)
            i += len(ts)
        return order, rows


def build_basis(v, spec: BasisSpec, name: str = "v") -> tuple:
    """``(labels, block)`` of a BasisSpec on a sample, knots placed from the sample.

    The checks and labels are those of ``SeriesColumns.terms``.
    """
    series = SeriesColumns(v, (spec,), name)
    labels, keys = series.terms(spec)
    s = spec.a - 1 if spec.family == "power" else spec.spline_order
    return spline_basis(series.v, spec.a, s, [t for _, t in keys[s:]], name=name)


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
