"""Assembly of the null design W and the alternative-only design Z.

The null model is linear in parameters: a single shared constant, the plain
linear regressors, and the series expansions of the nonparametric components.
Every basis is constant-free, so W's one constant column is the only one.  The
alternative block Z collects the extra series terms that can only enter when
the null is false: higher own powers, tensor interactions, or a custom term
list.  Canonical labels alone decide the Z columns kept, so nothing already in
W is duplicated in Z, and ``screen_collinear`` removes Z columns that are
numerically inside the span of what came before them.

Every design is a gather from a ``ColumnTable``: the columns that a set of
specs needs on one sample, each computed once into one array.  A lone build
is a table of one spec; the data-driven test plans one table for all its
grid candidates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .basis import BasisSpec, SeriesColumns, _power_label, restricted_interaction_order
from .errors import DesignError, SeriesLMError
from .regress import ols_fit

__all__ = [
    "AlternativeSpec",
    "ModelSpec",
    "DesignPair",
    "ColumnTable",
    "build_partially_linear",
    "simulation_spec",
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


def _restricted(bspec: BasisSpec) -> BasisSpec:
    return replace(bspec, a=restricted_interaction_order(bspec.a))


class ColumnTable:
    """Every column that a set of model specs needs on one sample, each computed once.

    ``data`` maps variable names to equal-length numeric vectors.  The table
    plans each spec in turn, in the order and with the checks of a lone
    ``build_partially_linear``.  Each distinct column gets one id: the
    constant, a column of one variable's ``SeriesColumns`` (a linear
    regressor is its first power), a custom term, or a product of two series
    columns.  The table then computes each id once into one C-ordered n x K
    ``array``, and ``design`` gathers a spec's W and Z from it with one
    ``take`` apiece, so they come out C-ordered.  A spec whose plan fails
    keeps its error, which ``design`` raises for that spec alone, so designs
    asked for in turn fail where lone builds would.
    """

    def __init__(self, data, specs):
        self._data = data
        self._specs = list(specs)
        self._n, self._vectors, self._series, self._sources = None, {}, {}, {}
        # column ids: 0 is the constant; then (variable, key) of a series
        # column, the factors of a custom term, or the ids of a product's factors
        self._series_ids, self._term_ids, self._product_ids = {}, {}, {}
        self._count = 1
        self._wanted = {}  # variable -> every BasisSpec a spec may ask of it
        for spec in self._specs:
            alt = spec.alternative
            for var, bspec in (*spec.series_vars, *alt.basis):
                self._wanted.setdefault(var, []).append(bspec)
            for var, bspec in alt.basis if alt.recipe == "restricted_tensor" else ():
                try:
                    self._wanted[var].append(_restricted(bspec))
                except ValueError:
                    pass  # too small for its spline order: the spec's plan raises it
        plans = []
        for spec in self._specs:
            try:
                plans.append(self._plan(spec))
            except (SeriesLMError, ValueError) as exc:
                plans.append(exc)
        at = self._fill()
        self._plans = [plan if isinstance(plan, Exception)
                       else (at[plan[0]], at[plan[1]], *plan[2:]) for plan in plans]

    def design(self, spec: ModelSpec) -> DesignPair:
        plan = self._plans[self._specs.index(spec)]
        if isinstance(plan, Exception):
            raise plan
        w_at, z_at, w_labels, z_labels = plan
        return DesignPair(self.array.take(w_at, 1), self.array.take(z_at, 1),
                          w_labels, z_labels)

    def _id(self, ids: dict, key) -> int:
        """The column id of ``key`` in ``ids``, a new one the first time."""
        if key not in ids:
            ids[key] = self._count
            self._count += 1
        return ids[key]

    def _vector(self, var: str) -> np.ndarray:
        if var not in self._vectors:
            try:
                arr = np.asarray(self._data[var], dtype=float).ravel()
            except KeyError:
                raise DesignError(f"variable {var!r} not found in data") from None
            if not np.all(np.isfinite(arr)):
                raise DesignError(f"variable {var!r} contains non-finite values")
            if self._n is None:
                self._n = arr.shape[0]
            elif arr.shape[0] != self._n:
                raise DesignError(f"variable {var!r} has inconsistent length")
            self._vectors[var] = arr
        return self._vectors[var]

    def _basis(self, var: str, bspec=None) -> tuple:
        """(labels, ids) of a series basis of ``var``, or of ``var`` itself without one."""
        if (var, bspec) not in self._sources:
            if var not in self._series:
                self._series[var] = SeriesColumns(self._vector(var),
                                                  self._wanted.get(var, ()), var)
            labels, keys = ([var], [1]) if bspec is None else self._series[var].terms(bspec)
            self._sources[var, bspec] = labels, [self._id(self._series_ids, (var, key))
                                                 for key in keys]
        return self._sources[var, bspec]

    def _products(self, basis1, basis2) -> tuple:
        """(labels, ids) of the products of two bases' columns."""
        if (basis1, basis2) not in self._sources:
            (labels1, ids1), (labels2, ids2) = self._basis(*basis1), self._basis(*basis2)
            self._sources[basis1, basis2] = (
                ["*".join(sorted((l1, l2))) for l1 in labels1 for l2 in labels2],
                [self._id(self._product_ids, (i1, i2)) for i1 in ids1 for i2 in ids2])
        return self._sources[basis1, basis2]

    def _plan(self, spec: ModelSpec) -> tuple:
        """(W ids, Z ids, W labels, Z labels) of one spec, with its checks."""
        self._vector(spec.variables[0])
        null = [(["const"], [0]), *(self._basis(var) for var in spec.linear_vars),
                *(self._basis(var, bspec) for var, bspec in spec.series_vars)]
        w_labels = [label for labels, _ in null for label in labels]
        seen = set(w_labels)
        if len(seen) < len(w_labels):
            label = next(label for i, label in enumerate(w_labels) if label in w_labels[:i])
            raise DesignError(f"duplicate column {label!r} in null design")

        alt = spec.alternative
        if alt.recipe == "custom":
            terms = [parse_term(term) for term in alt.custom_terms]
            for term in terms:
                for var, _ in term:
                    self._vector(var)
            extra = [([_term_label(t) for t in terms],
                      [self._id(self._term_ids, t) for t in terms])]
        else:
            extra = [self._basis(var, bspec) for var, bspec in alt.basis]
        inter = []
        if alt.recipe.endswith("_tensor"):
            # each basis is resized and checked in turn, partner or not
            for var, bspec in alt.basis:
                inter.append((var, _restricted(bspec) if alt.recipe == "restricted_tensor"
                              else bspec))
                self._basis(*inter[-1])
        extra += [self._products(*pair) for pair in combinations(inter, 2)]

        # a Z label already in W or earlier in Z is dropped, with its column
        z_labels, z_ids = [], []
        for labels, ids in extra:
            for label, i in zip(labels, ids):
                if label not in seen:
                    seen.add(label)
                    z_labels.append(label)
                    z_ids.append(i)
        k_n = len(w_labels) + len(z_labels)
        if self._n <= k_n:
            raise DesignError(f"need n > k_n (got n={self._n}, k_n={k_n})")
        return ([i for _, ids in null for i in ids], z_ids, tuple(w_labels),
                tuple(z_labels))

    def _fill(self) -> np.ndarray:
        """Compute every column id into ``self.array``; returns id -> table column.

        Values are computed a row per column, in blocks, and written into the
        table transposed; the products are one block.
        """
        series = {}
        for (var, key), i in self._series_ids.items():
            series.setdefault(var, {})[key] = i
        table = self.array = np.empty((self._n or 0, self._count))
        at = np.empty(self._count, dtype=np.intp)  # id -> table column
        rows = {}  # series id -> its row of values
        table[:, 0], at[0] = 1.0, 0
        j = 1
        for var, ids in series.items():
            order, values = self._series[var].evaluate(ids)
            order = [ids[key] for key in order]
            rows.update(zip(order, values))
            table[:, j:j + len(order)] = values.T
            at[order] = range(j, j + len(order))
            j += len(order)
        for term, i in self._term_ids.items():
            table[:, j] = math.prod(self._vectors[v] ** p for v, p in term)
            at[i], j = j, j + 1
        if self._product_ids:
            factors = list(self._product_ids)
            table[:, j:] = (np.array([rows[i1] for i1, _ in factors])
                            * np.array([rows[i2] for _, i2 in factors])).T
            at[list(self._product_ids.values())] = range(j, self._count)
        return at


def build_partially_linear(data, spec: ModelSpec, table=None) -> DesignPair:
    """Build (W, Z) for a partially linear null against the chosen alternative.

    ``data`` maps variable names to equal-length numeric vectors.  W holds a
    single constant, the linear regressors and each constant-free series
    expansion (a repeated label is an error); Z holds the alternative
    columns less each one whose label is already in W or earlier in Z.  Both
    are gathered from a ``ColumnTable``: ``table``, one planned on this same
    ``data`` for a set of specs that includes ``spec``, or else a table of
    ``spec`` alone.
    """
    return (ColumnTable(data, (spec,)) if table is None else table).design(spec)


def simulation_spec(a_n: int, family: str = "power") -> ModelSpec:
    """The spec of ``simulation_design`` over the variables x1 and x2."""
    if a_n < SIMULATION_A_MIN:
        raise ValueError(f"simulation design needs a_n >= {SIMULATION_A_MIN}")
    bspec = BasisSpec(family, a_n)
    return ModelSpec(
        linear_vars=("x1",),
        series_vars=(("x2", bspec),),
        alternative=AlternativeSpec(
            recipe="restricted_tensor",
            basis=(("x1", bspec), ("x2", bspec)),
        ),
    )


def simulation_design(x1, x2, a_n: int, family: str = "power",
                      table=None) -> DesignPair:
    """The two-regressor partially linear design used in the simulation study.

    Null: [1, x1, a_n-term series in x2].  Alternative adds the higher own
    terms of x1 and all pairwise interactions of the constant-free restricted
    bases, so k_n = 2 a_n - 1 + (a_bar - 1)^2.  ``table`` is that of
    ``build_partially_linear``: a ``ColumnTable`` of (x1, x2) planned for the
    ``simulation_spec`` of every a_n wanted serves each of them.
    """
    return build_partially_linear({"x1": x1, "x2": x2}, simulation_spec(a_n, family), table)


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
