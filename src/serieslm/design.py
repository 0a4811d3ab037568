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
specs needs on one sample, each computed once into one array.  What depends
only on the specs is planned once per tuple of specs for the process; each
sample fills it.  A lone build is a table of one spec; the data-driven test
fills one table for all its grid candidates.
"""

from __future__ import annotations

import copy
import functools
import math
import re
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .basis import (BasisSpec, _knot_label, _place_knots, _power_label, knot_level,
                    knot_problem, restricted_interaction_order, series_rows)
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


def _first_repeat(labels):
    """The first label that occurs earlier in ``labels``, or None."""
    seen = set()
    for label in labels:
        if label in seen:
            return label
        seen.add(label)
    return None


def _label_rule(w_labels, extra, label_of) -> tuple:
    """(ids, labels) of the Z columns kept: each of the ``extra`` ids whose label
    is neither in W nor taken by an earlier kept column."""
    seen, ids, labels = set(w_labels), [], []
    for i in extra:
        label = label_of(i)
        if label not in seen:
            seen.add(label)
            ids.append(i)
            labels.append(label)
    return ids, tuple(labels)


@dataclass(frozen=True, eq=False)
class _SpecPlan:
    """One spec's part of a ``_Layout``.

    ``steps`` are the data checks of a lone build, in its order: ``("vector",
    var)`` reads a variable, ``("basis", var)`` also needs it nonempty,
    ``("knots", var, q)`` places and checks q knots, ``("labels",)`` looks for
    a repeated W label once knot labels are rendered, and ``("raise", type,
    args)`` is an error that no data can avoid.  ``w`` and ``extra`` are
    column ids of W and of the alternative columns before the label rule;
    ``labels`` is ``(z ids, W labels, Z labels)`` when every label is known
    without data, else None and ``templated`` lists, in id order, the ids
    whose labels the sample's knots render.  ``cols`` is every column id a
    design needs.
    """

    steps: tuple
    w: np.ndarray
    extra: tuple = ()
    labels: tuple = None
    templated: tuple = ()
    cols: frozenset = frozenset()


class _Layout:
    """The data-free part of a ``ColumnTable``, planned once per tuple of specs.

    A column id stands for the constant (id 0), a power v^j of a variable (a
    linear regressor is its first power), a knot column (v - t)_+^s at a
    quantile level of the variable, a custom term, or a product of two series
    columns.  Its label is a string, or a template rendered from the sample's
    knots: ``("tp", var, q, k)`` for a knot column, whose knot is the k-th of
    the variable's q knots, ``("*", id1, id2)`` for a product with one.
    """

    def __init__(self, specs: tuple):
        self.specs = specs
        self.keys, self.labels, self._ids = [None], ["const"], {None: 0}
        self.counts = {}  # variable -> knot counts of its bases, for one quantile call
        self.plans = [self._plan(spec) for spec in specs]
        self._fills = {}

    def _id(self, key, label) -> int:
        if key not in self._ids:
            self._ids[key] = len(self.keys)
            self.keys.append(key)
            self.labels.append(label)
        return self._ids[key]

    def _basis(self, steps: list, var: str, bspec=None) -> list:
        """Ids of a series basis of ``var``, or of ``var`` itself without one."""
        steps.append(("basis", var))
        counts = self.counts.setdefault(var, set())
        if bspec is None:
            return [self._id(("pow", var, 1), var)]
        s, q = bspec.order, bspec.n_knots
        ids = [self._id(("pow", var, j), _power_label(var, j)) for j in range(1, s + 1)]
        if q:
            steps.append(("knots", var, q))
            counts.add(q)
            ids += [self._id(("knot", var, s, knot_level(q, k)), ("tp", var, q, k))
                    for k in range(1, q + 1)]
        return ids

    def _product(self, i1: int, i2: int) -> int:
        if self.keys[i2][1:] < self.keys[i1][1:]:  # by variable, as a custom term's factors
            i1, i2 = i2, i1
        l1, l2 = self.labels[i1], self.labels[i2]
        label = f"{l1}*{l2}" if isinstance(l1, str) and isinstance(l2, str) else ("*", i1, i2)
        return self._id(("prod", i1, i2), label)

    def _plan(self, spec: ModelSpec) -> _SpecPlan:
        steps, w = [], []
        try:
            steps.append(("vector", spec.variables[0]))
            null = [[0], *(self._basis(steps, var) for var in spec.linear_vars),
                    *(self._basis(steps, var, bspec) for var, bspec in spec.series_vars)]
            w = [i for ids in null for i in ids]
            if all(isinstance(self.labels[i], str) for i in w):
                label = _first_repeat([self.labels[i] for i in w])
                if label is not None:
                    raise DesignError(f"duplicate column {label!r} in null design")
            else:
                steps.append(("labels",))

            alt = spec.alternative
            if alt.recipe == "custom":
                terms = [parse_term(term) for term in alt.custom_terms]
                steps += [("vector", var) for term in terms for var, _ in term]
                extra = [self._id(("term", term), _term_label(term)) for term in terms]
            else:
                extra = [i for var, bspec in alt.basis for i in self._basis(steps, var, bspec)]
            inter = []
            if alt.recipe.endswith("_tensor"):
                # each basis is resized and checked in turn, partner or not
                for var, bspec in alt.basis:
                    inter.append(self._basis(steps, var, _restricted(bspec)
                                             if alt.recipe == "restricted_tensor" else bspec))
            for ids1, ids2 in combinations(inter, 2):
                extra += [self._product(i1, i2) for i1 in ids1 for i2 in ids2]
        except (SeriesLMError, ValueError) as exc:
            steps.append(("raise", type(exc), exc.args))
            return _SpecPlan(tuple(dict.fromkeys(steps)), np.array(w, dtype=np.intp))

        labels, kept = None, extra
        if all(isinstance(self.labels[i], str) for i in extra) and ("labels",) not in steps:
            w_labels = tuple([self.labels[i] for i in w])
            z, z_labels = _label_rule(w_labels, extra, self.labels.__getitem__)
            labels, kept = (np.array(z, dtype=np.intp), w_labels, z_labels), z
        cols = {*w, *kept}
        cols.update(i for key in [self.keys[i] for i in kept] if key[0] == "prod"
                    for i in key[1:])
        templated = tuple(sorted(i for i in cols if not isinstance(self.labels[i], str)))
        return _SpecPlan(tuple(dict.fromkeys(steps)), np.array(w, dtype=np.intp),
                         tuple(extra), labels, templated, frozenset(cols))

    def fill(self, ok: tuple) -> tuple:
        """The row layout of a table of the designs of the specs at ``ok``.

        Returns ``(series, terms, products, at, height)``.  Row 0 is the
        constant; ``series`` is ``(var, row, top, blocks)`` per variable,
        whose rows from ``row`` on are its powers v, ..., v^top and then, per
        ``(s, [(q, k), ...])`` of ``blocks``, the knot columns of order s at
        the k-th of its q knots; ``terms`` is ``(row, factors)`` per custom
        term and ``products`` is ``(row, factor row, factor row)`` per
        product.  ``at`` maps each column id to its row, and ``height``
        counts the rows.
        """
        if ok not in self._fills:
            keys = self.keys
            cols = sorted(frozenset().union(*[self.plans[i].cols for i in ok]) - {0})
            at = np.zeros(len(keys), dtype=np.intp)
            bases, row, series, terms, products = {}, 1, [], [], []
            for i in cols:
                if keys[i][0] in ("pow", "knot"):
                    bases.setdefault(keys[i][1], []).append(i)
            for var, ids in bases.items():
                top = max([keys[i][2] for i in ids if keys[i][0] == "pow"], default=0)
                blocks = {}  # order s -> ids of its knot columns
                for i in ids:
                    if keys[i][0] == "pow":
                        at[i] = row + keys[i][2] - 1
                    else:
                        blocks.setdefault(keys[i][2], []).append(i)
                series.append((var, row, top, [(s, [self.labels[i][2:] for i in knots])
                                               for s, knots in blocks.items()]))
                row += top
                for knots in blocks.values():
                    at[knots] = range(row, row + len(knots))
                    row += len(knots)
            for i in cols:
                if keys[i][0] == "term":
                    terms.append((row, keys[i][1]))
                elif keys[i][0] == "prod":
                    products.append((row, at[keys[i][1]], at[keys[i][2]]))
                else:
                    continue
                at[i], row = row, row + 1
            at.flags.writeable = False
            self._fills[ok] = (series, terms, products, at, row)
        return self._fills[ok]


@functools.lru_cache(maxsize=64)
def _layout(specs: tuple) -> _Layout:
    return _Layout(specs)


class ColumnTable:
    """Every column that a set of model specs needs on one sample, each computed once.

    ``data`` maps variable names to equal-length numeric vectors.  What
    depends only on the specs (column ids, gather indices, label templates,
    the label rule, and each column's row for a tuple of passing specs) is
    a ``_Layout``, planned once per tuple of specs for the process.  The
    table fills it on the sample: it runs each spec's data checks in the
    order of a lone ``build_partially_linear``, places each variable's knots
    with one ``np.quantile`` call, renders knot labels from them, and
    computes only values, one ``series_rows`` call per variable and one row
    per custom term and product, into one C-ordered n x K ``array``.  Two
    knot levels that place one knot on tied data fill two equal columns.
    ``design`` gathers a spec's W and Z from it with one ``take`` apiece,
    so they come out C-ordered.  A spec that fails keeps its error, which
    ``design`` raises for that spec alone, so designs asked for in turn
    fail where lone builds would.  The specs of one table read their
    variables at one length.
    """

    def __init__(self, data, specs):
        self._data = data
        self._layout = layout = _layout(tuple(specs))
        self._vectors, self._placed, self._knots = {}, {}, {}
        self._labels = list(layout.labels)  # id -> label, templates rendered on first use
        outcomes = self._outcomes = [self._check(plan) for plan in layout.plans]
        ok = [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]
        n = outcomes[ok[0]][0] if ok else 0
        for i in ok:
            if outcomes[i][0] != n:
                outcomes[i] = DesignError(
                    f"variable {layout.plans[i].steps[0][1]!r} has inconsistent length")
        ok = [i for i in ok if not isinstance(outcomes[i], Exception)]
        self._fill(layout.fill(tuple(ok)), n)

    def design(self, spec: ModelSpec) -> DesignPair:
        i = self._layout.specs.index(spec)
        outcome = self._outcomes[i]
        if isinstance(outcome, Exception):
            # a copy: raising the stored error would tie its traceback, and
            # with it this table, into a reference cycle
            raise copy.copy(outcome)
        _, z, w_labels, z_labels = outcome
        return DesignPair(self._gather(self._layout.plans[i].w), self._gather(z),
                          w_labels, z_labels)

    def _gather(self, ids: np.ndarray) -> np.ndarray:
        return self.array.take(self._at[ids], 1, mode="clip")  # every id is in range

    def _vector(self, var: str):
        """The sample's values of ``var``, or the error reading them raises."""
        if var not in self._vectors:
            try:
                arr = np.asarray(self._data[var], dtype=float).ravel()
            except KeyError:
                arr = DesignError(f"variable {var!r} not found in data")
            else:
                if not np.all(np.isfinite(arr)):
                    arr = DesignError(f"variable {var!r} contains non-finite values")
            self._vectors[var] = arr
        return self._vectors[var]

    def _knot_check(self, var: str, q: int):
        """The error of ``var``'s q knots, or None; its knots of every count placed once."""
        if (var, q) not in self._knots:
            if var not in self._placed:
                self._placed[var] = _place_knots(self._vectors[var], self._layout.counts[var])
            self._knots[var, q] = knot_problem(self._vectors[var], self._placed[var][q], var)
        return self._knots[var, q]

    def _render(self, ids):
        """Render the knot and product labels among ``ids``, factors before products."""
        labels = self._labels
        for i in ids:
            label = labels[i]
            if isinstance(label, str):
                continue
            if label[0] == "tp":
                _, var, q, k = label
                labels[i] = _knot_label(var, self._placed[var][q][k - 1])
            else:
                labels[i] = f"{labels[label[1]]}*{labels[label[2]]}"

    def _check(self, plan: _SpecPlan):
        """(n, z ids, W labels, Z labels) of one spec, or the error a lone build raises."""
        n = None
        for kind, *args in plan.steps:
            if kind == "raise":
                return args[0](*args[1])
            if kind == "labels":
                self._render(plan.w)
                label = _first_repeat([self._labels[i] for i in plan.w])
                if label is not None:
                    return DesignError(f"duplicate column {label!r} in null design")
                continue
            var = args[0]
            arr = self._vector(var)
            if isinstance(arr, Exception):
                return arr
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                return DesignError(f"variable {var!r} has inconsistent length")
            if kind == "basis" and not n:
                return ValueError("input must contain at least one observation")
            if kind == "knots" and (problem := self._knot_check(var, args[1])):
                return problem
        if plan.labels is None:
            self._render(plan.templated)
            w_labels = tuple([self._labels[i] for i in plan.w])
            z, z_labels = _label_rule(w_labels, plan.extra, self._labels.__getitem__)
            z = np.array(z, dtype=np.intp)
        else:
            z, w_labels, z_labels = plan.labels
        k_n = len(w_labels) + len(z_labels)
        if n <= k_n:
            return DesignError(f"need n > k_n (got n={n}, k_n={k_n})")
        return n, z, w_labels, z_labels

    def _fill(self, fill: tuple, n: int):
        """Compute the rows ``fill`` lays out into ``self.array``; ``self._at`` maps ids to them.

        The rows form a K x n array, which is transposed into the table once.
        Each power of a variable that custom terms share is computed once, and
        each product is one elementwise product of two rows, written in place.
        """
        series, terms, products, self._at, height = fill
        rows = np.empty((height, n))
        rows[0] = 1.0
        for var, j, top, blocks in series:
            placed = self._placed.get(var)
            series_rows(self._vectors[var], top,
                        [(s, [placed[q][k - 1] for q, k in knots]) for s, knots in blocks],
                        rows[j:])
        powers = {}  # (variable, power) -> its values, for the custom terms
        for j, term in terms:
            for factor in term:
                if factor not in powers:
                    powers[factor] = self._vectors[factor[0]] ** factor[1]
            rows[j] = math.prod([powers[factor] for factor in term])
        for j, first, second in products:
            np.multiply(rows[first], rows[second], out=rows[j])
        self.array = np.ascontiguousarray(rows.T)


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


@functools.lru_cache(maxsize=128)
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


# a factor of a column label: a variable, a power of it or a knot term of it
_LABEL_FACTOR = re.compile(r"(.+?)(?:\^\d+|_tp\S+)?")


def _overflow_error(label: str) -> DesignError:
    """The error for a design column whose sum of squares overflows, naming
    the column and the variables of its label."""
    names = dict.fromkeys(_LABEL_FACTOR.fullmatch(factor).group(1)
                          for factor in label.split("*"))
    return DesignError(f"column {label!r} overflows: its sum of squares is not finite "
                       f"in double precision; rescale its variable{'s' * (len(names) > 1)} "
                       + ", ".join(repr(name) for name in names))


def screen_collinear(pair: DesignPair, tol: float = 1e-10):
    """Drop Z columns numerically inside the span of W and the kept Z columns.

    Greedy left-to-right: a column is dropped when the squared norm of its
    residual (after projecting on W and previously kept columns) falls below
    ``tol`` times its own squared norm; a squared norm that overflows raises
    ``_overflow_error``.  W is never touched: it is factored by ``ols_fit``,
    so a W that is rank deficient at ``regress.RANK_RTOL`` or not finite
    raises an error naming its offending columns.

    Returns
    -------
    (DesignPair, list of str)
        The screened pair and the labels of dropped columns.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    ortho = ols_fit(pair.w, np.zeros(pair.n_obs), column_labels=pair.w_labels).ortho
    # orthonormal basis of W, grown in place as Z columns are accepted; in
    # Fortran order each width is one contiguous block, whose products round
    # as those of a fresh copy (a C-ordered buffer moves r2 in its last bits)
    grown = np.empty((pair.n_obs, ortho.shape[1] + pair.r_n), order="F")
    grown[:, :ortho.shape[1]] = ortho
    width = ortho.shape[1]
    kept, dropped = [], []
    for j, (label, col) in enumerate(zip(pair.z_labels, pair.z.T)):
        basis = grown[:, :width]
        norm2 = float(col @ col)
        if not math.isfinite(norm2):
            raise _overflow_error(label)
        resid = col - basis @ (basis.T @ col)
        resid -= basis @ (basis.T @ resid)  # second pass for orthogonality
        r2 = float(resid @ resid)
        if norm2 == 0.0 or r2 < tol * norm2:
            dropped.append(label)
            continue
        kept.append(j)
        np.divide(resid, np.sqrt(r2), out=grown[:, width])
        width += 1

    return DesignPair(pair.w, pair.z.take(kept, 1), pair.w_labels,
                      [pair.z_labels[j] for j in kept]), dropped
