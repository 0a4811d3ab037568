"""Assembly of the null design W and the alternative-only design Z.

The null model is linear in parameters: a single shared constant, the plain
linear regressors, and the series expansions of the nonparametric components.
Every basis is a constant-free ``(labels, block)`` pair, so W's one constant
column is the only one.  The alternative block Z collects the extra series
terms that can only enter when the null is false: higher own powers, tensor
interactions, or a custom term list.  Both are stacked from whole blocks
whose canonical labels alone decide the Z columns kept, so nothing already in
W is duplicated in Z, and ``screen_collinear`` removes Z columns that are
numerically inside the span of what came before them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .basis import (
    BasisSpec,
    _power_label,
    build_basis,
    restricted_interaction_order,
    tensor_interactions,
)
from .errors import DesignError
from .regress import ols_fit

__all__ = [
    "AlternativeSpec",
    "ModelSpec",
    "DesignPair",
    "build_partially_linear",
    "simulation_design",
    "screen_collinear",
]

RECIPES = ("full_tensor", "restricted_tensor", "additive_only", "custom")
# Fewest univariate terms a_n the simulation design accepts; the data-driven
# tuning grids, which build that design for every candidate, share it.
SIMULATION_A_MIN = 4

REQUIRED = object()  # the default of a key that a JSON object must give
_JSON_TYPE = {dict: "an object", list: "an array", str: "a string", int: "an integer",
              float: "a number", bool: "a boolean", type(None): "null"}
# The JSON model object of ``ModelSpec.from_dict``, as ``check_json`` reads it.
_BASIS = {"var": (str, REQUIRED), "family": (str, "power"), "a": (int, REQUIRED),
          "spline_order": (int, 3)}
MODEL = {"linear_vars": ([str], []), "series_vars": ([_BASIS], []),
         "alternative": ({"recipe": (str, "restricted_tensor"), "basis": ([_BASIS], []),
                          "custom_terms": ([str], [])}, {})}


def _where(path: str):
    """(section, key): ``"model.series_vars[0].a"`` -> ``("model", "series_vars[0].a")``."""
    section, dot, key = path.partition(".")
    return (section, key) if dot else ("config", path)


def check_json(value, kind, path: str = ""):
    """``value`` held to ``kind``, with each key it leaves out set to its default.

    A kind is a JSON type (a float also takes an integer; a boolean is never a
    number), a table ``{key: (kind, default)}`` or ``[kind]`` for an array of
    it.  A None default leaves the key None; ``REQUIRED`` makes it mandatory.
    Errors name the key by its ``path``, e.g. ``model key 'series_vars[0].a'``.
    """
    json_type = dict if isinstance(kind, dict) else list if isinstance(kind, list) else kind
    if value is REQUIRED or isinstance(value, bool) != (json_type is bool) or not isinstance(
            value, (int, float) if json_type is float else json_type):
        section, key = _where(path)
        name = f"{section} key {key!r}" if key else section
        if value is REQUIRED:
            raise ValueError(f"missing {name}")
        raise ValueError(f"{name} must be {_JSON_TYPE[json_type]}, not "
                         f"{_JSON_TYPE.get(type(value), type(value).__name__)}")
    if json_type is list:
        return [check_json(item, kind[0], f"{path}[{i}]") for i, item in enumerate(value)]
    if json_type is not dict:
        return float(value) if kind is float else value
    prefix = f"{path}." if path else ""
    unknown = [_where(prefix + key) for key in value if key not in kind]
    if unknown:
        raise ValueError(f"unknown {unknown[0][0]} key(s): "
                         + ", ".join(repr(key) for _, key in unknown))
    return {key: None if key not in value and default is None
            else check_json(value.get(key, default), sub, prefix + key)
            for key, (sub, default) in kind.items()}


@dataclass(frozen=True)
class AlternativeSpec:
    """How to populate Z.

    For the tensor/additive recipes, ``basis`` lists the univariate series
    used under the alternative, one entry per variable (linear null
    regressors included, since they too get expanded under the alternative).
    The custom recipe takes explicit product terms like ``"price^2*age"``.
    """

    recipe: str
    basis: tuple = field(default=())  # tuple of (var, BasisSpec)
    custom_terms: tuple = field(default=())

    def __post_init__(self):
        if self.recipe not in RECIPES:
            raise ValueError(f"unknown alternative recipe {self.recipe!r}")
        # tuple() of a list, not of a generator, here and in ModelSpec: a
        # tuple grown from a generator ends in CPython's tuple free list when
        # it dies, so a long Monte Carlo run's memory would creep up
        object.__setattr__(self, "basis", tuple([(v, s) for v, s in self.basis]))
        object.__setattr__(self, "custom_terms", tuple(self.custom_terms))
        if not all(isinstance(t, str) for t in self.custom_terms):
            raise ValueError("custom terms must be strings")
        if self.recipe == "custom":
            if not self.custom_terms:
                raise ValueError("custom recipe needs a nonempty term list")
        elif not self.basis:
            raise ValueError(f"recipe {self.recipe!r} needs alternative bases")


@dataclass(frozen=True)
class ModelSpec:
    """Semiparametric null model plus the alternative recipe."""

    linear_vars: tuple
    series_vars: tuple  # tuple of (var, BasisSpec)
    alternative: AlternativeSpec

    def __post_init__(self):
        object.__setattr__(self, "linear_vars", tuple(self.linear_vars))
        object.__setattr__(self, "series_vars",
                           tuple([(v, s) for v, s in self.series_vars]))
        series_names = [v for v, _ in self.series_vars]
        overlap = set(self.linear_vars) & set(series_names)
        if overlap:
            raise ValueError(f"variables both linear and series: {sorted(overlap)}")
        if len(set(self.linear_vars)) != len(self.linear_vars):
            raise ValueError("duplicate linear variable")
        if len(set(series_names)) != len(series_names):
            raise ValueError("duplicate series variable")
        if not self.linear_vars and not self.series_vars:
            raise ValueError("model has no variables")

    @property
    def variables(self) -> tuple:
        """Every data column the model reads, null variables first."""
        alt = self.alternative
        names = [*self.linear_vars, *(v for v, _ in self.series_vars),
                 *(v for v, _ in alt.basis),
                 *(v for term in alt.custom_terms for v, _ in parse_term(term))]
        return tuple(dict.fromkeys(names))

    def to_dict(self) -> dict:
        def entries(bases):
            return [{"var": v, "family": s.family, "a": s.a, "spline_order": s.spline_order}
                    for v, s in bases]

        alt = self.alternative
        return {"linear_vars": list(self.linear_vars),
                "series_vars": entries(self.series_vars),
                "alternative": {"recipe": alt.recipe, "basis": entries(alt.basis),
                                "custom_terms": list(alt.custom_terms)}}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        """The spec of a JSON ``model`` object, held to ``MODEL`` first."""
        d = check_json(d, MODEL, "model")
        alt = d["alternative"]

        def named(key, make, *args):
            try:
                return make(*args)
            except ValueError as exc:
                raise ValueError(f"model key {key!r}: {exc}") from None

        def specs(key, entries):
            return [(e["var"], named(f"{key}[{i}]", BasisSpec, e["family"], e["a"],
                                     e["spline_order"]))
                    for i, e in enumerate(entries)]

        return cls(d["linear_vars"], specs("series_vars", d["series_vars"]),
                   named("alternative", AlternativeSpec, alt["recipe"],
                         specs("alternative.basis", alt["basis"]), alt["custom_terms"]))


@dataclass(frozen=True)
class DesignPair:
    """Null regressors W (n x m) and alternative-only regressors Z (n x r)."""

    w: np.ndarray
    z: np.ndarray
    w_labels: tuple
    z_labels: tuple

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        z = np.asarray(self.z, dtype=float)
        if z.size == 0:
            z = z.reshape(w.shape[0], 0)
        if w.ndim != 2 or z.ndim != 2 or w.shape[0] != z.shape[0]:
            raise ValueError("W and Z must be 2-d with equal row counts")
        if len(self.w_labels) != w.shape[1] or len(self.z_labels) != z.shape[1]:
            raise ValueError("label counts must match column counts")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "w_labels", tuple(self.w_labels))
        object.__setattr__(self, "z_labels", tuple(self.z_labels))

    @property
    def n_obs(self) -> int:
        return self.w.shape[0]

    @property
    def m_n(self) -> int:
        return self.w.shape[1]

    @property
    def r_n(self) -> int:
        return self.z.shape[1]

    @property
    def k_n(self) -> int:
        return self.m_n + self.r_n


_TERM_FACTOR = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s*(?:\^\s*(\d+))?\s*$")


def parse_term(term: str):
    """Parse a product term like ``"price^2*age"`` into ((var, power), ...)."""
    factors = {}
    for piece in term.split("*"):
        m = _TERM_FACTOR.match(piece)
        if m is None:
            raise DesignError(f"cannot parse term factor {piece!r} in {term!r}")
        var, power = m.group(1), int(m.group(2) or 1)
        if power < 1:
            raise DesignError(f"zero power in term {term!r}")
        factors[var] = factors.get(var, 0) + power
    return tuple(sorted(factors.items()))


def _term_label(factors) -> str:
    return "*".join(_power_label(v, p) for v, p in factors)


def build_partially_linear(data, spec: ModelSpec, bases=None) -> DesignPair:
    """Build (W, Z) for a partially linear null against the chosen alternative.

    ``data`` maps variable names to equal-length numeric vectors.  W stacks
    the blocks of a single constant, the linear regressors and each
    constant-free series expansion (a repeated label is an error); Z stacks
    the alternative blocks less each column whose label is already in W or
    earlier in Z.  ``bases``, a dict keyed by (variable, BasisSpec), holds
    the bases already built on this same ``data`` and gains the ones built
    here, so the designs of one sample can share it.
    """
    n = None

    def column(var: str) -> np.ndarray:
        try:
            arr = np.asarray(data[var], dtype=float).ravel()
        except KeyError:
            raise DesignError(f"variable {var!r} not found in data") from None
        if not np.all(np.isfinite(arr)):
            raise DesignError(f"variable {var!r} contains non-finite values")
        if n is not None and arr.shape[0] != n:
            raise DesignError(f"variable {var!r} has inconsistent length")
        return arr

    n = column(spec.variables[0]).shape[0]
    bases = {} if bases is None else bases

    def basis(var: str, bspec: BasisSpec) -> tuple:
        if (var, bspec) not in bases:
            bases[var, bspec] = build_basis(column(var), bspec, name=var)
        return bases[var, bspec]

    null = [(("const",), np.ones((n, 1))),
            *(((var,), column(var)[:, None]) for var in spec.linear_vars),
            *(basis(var, bspec) for var, bspec in spec.series_vars)]
    w_labels = [label for labels, _ in null for label in labels]
    seen = set(w_labels)
    if len(seen) < len(w_labels):
        label = next(label for i, label in enumerate(w_labels) if label in w_labels[:i])
        raise DesignError(f"duplicate column {label!r} in null design")

    alt = spec.alternative
    if alt.recipe == "custom":
        terms = [parse_term(term) for term in alt.custom_terms]
        extra = [([_term_label(t) for t in terms], np.column_stack(
            [math.prod(column(v) ** p for v, p in t) for t in terms]))]
    else:
        extra = [basis(var, bspec) for var, bspec in alt.basis]
    shrink = alt.recipe == "restricted_tensor"
    inter = [basis(v, replace(s, a=restricted_interaction_order(s.a)) if shrink else s)
             for v, s in alt.basis] if alt.recipe.endswith("_tensor") else []
    for (labels1, b1), (labels2, b2) in combinations(inter, 2):
        labels = ["*".join(sorted((l1, l2))) for l1 in labels1 for l2 in labels2]
        extra.append((labels, tensor_interactions(b1, b2)))

    # a Z label already in W or earlier in Z is dropped, with its column; take()
    # leaves a sliced block C-ordered, like the others, so products see one layout
    z_labels, z_blocks = [], [np.empty((n, 0))]
    for labels, block in extra:
        keep = []
        for j, label in enumerate(labels):
            if label not in seen:
                seen.add(label)
                keep.append(j)
        z_labels += [labels[j] for j in keep]
        z_blocks.append(block if len(keep) == len(labels) else block.take(keep, 1))

    k_n = len(w_labels) + len(z_labels)
    if n <= k_n:
        raise DesignError(f"need n > k_n (got n={n}, k_n={k_n})")
    return DesignPair(np.hstack([block for _, block in null]), np.hstack(z_blocks),
                      w_labels, z_labels)


def simulation_design(x1, x2, a_n: int, family: str = "power",
                      bases=None) -> DesignPair:
    """The two-regressor partially linear design used in the simulation study.

    Null: [1, x1, a_n-term series in x2].  Alternative adds the higher own
    terms of x1 and all pairwise interactions of the constant-free restricted
    bases, so k_n = 2 a_n - 1 + (a_bar - 1)^2.  ``bases`` is that of
    ``build_partially_linear``; one table serves every a_n of a sample (x1, x2).
    """
    if a_n < SIMULATION_A_MIN:
        raise ValueError(f"simulation design needs a_n >= {SIMULATION_A_MIN}")
    bspec = BasisSpec(family, a_n)
    spec = ModelSpec(
        linear_vars=("x1",),
        series_vars=(("x2", bspec),),
        alternative=AlternativeSpec(
            recipe="restricted_tensor",
            basis=(("x1", bspec), ("x2", bspec)),
        ),
    )
    return build_partially_linear({"x1": x1, "x2": x2}, spec, bases)


def screen_collinear(pair: DesignPair, tol: float = 1e-10):
    """Drop Z columns numerically inside the span of W and the kept Z columns.

    Greedy left-to-right: a column is dropped when the squared norm of its
    residual (after projecting on W and previously kept columns) falls below
    ``tol`` times its own squared norm.  W is never touched: it is factored
    by ``ols_fit``, so a W that is rank deficient at ``regress.RANK_RTOL``
    raises an error naming its offending columns.

    Returns
    -------
    (DesignPair, list of str)
        The screened pair and the labels of dropped columns.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    # orthonormal basis of W, grown as Z columns are accepted
    basis = ols_fit(pair.w, np.zeros(pair.n_obs), column_labels=pair.w_labels).ortho
    kept, dropped = [], []
    for j, (label, col) in enumerate(zip(pair.z_labels, pair.z.T)):
        norm2 = float(col @ col)
        resid = col - basis @ (basis.T @ col)
        resid -= basis @ (basis.T @ resid)  # second pass for orthogonality
        r2 = float(resid @ resid)
        if norm2 == 0.0 or r2 < tol * norm2:
            dropped.append(label)
            continue
        kept.append(j)
        basis = np.column_stack([basis, resid / np.sqrt(r2)])

    return DesignPair(pair.w, pair.z.take(kept, 1), pair.w_labels,
                      [pair.z_labels[j] for j in kept]), dropped
