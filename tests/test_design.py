"""Design assembly: term-count progressions, recipes, collinearity screening."""

import gc
import re
import traceback
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serieslm import basis
from serieslm.basis import BasisSpec, build_basis, restricted_interaction_order
from serieslm.design import (
    RECIPES,
    AlternativeSpec,
    ColumnTable,
    DesignPair,
    ModelSpec,
    build_partially_linear,
    parse_term,
    screen_collinear,
    simulation_design,
    simulation_spec,
)
from serieslm.errors import DesignError, RankDeficiencyError
from serieslm.mc import DgpSpec, gen_sample

TERM_COUNTS = {4: (5, 16, 11), 5: (6, 25, 19), 6: (7, 27, 20),
               7: (8, 29, 21), 8: (9, 40, 31), 9: (10, 53, 43)}
# restricted interaction order a_bar = max(min(a, 5), floor(a^0.9))
A_BAR = {4: 4, 5: 5, 6: 5, 7: 5, 8: 6, 9: 7}


def _monomial(var, p):
    return var if p == 1 else f"{var}^{p}"


@pytest.fixture(scope="module")
def xy():
    rng = np.random.default_rng(123)
    v1, v2 = rng.random(400), rng.random(400)
    return -2 + 4 * (0.8 * v1 + 0.2 * v2), -2 + 4 * (0.2 * v1 + 0.8 * v2)


class TestSimulationDesign:
    @pytest.mark.parametrize("family", ["power", "spline"])
    @pytest.mark.parametrize("a_n", sorted(TERM_COUNTS))
    def test_term_count_progression(self, xy, family, a_n):
        pair = simulation_design(*xy, a_n, family)
        assert (pair.m_n, pair.k_n, pair.r_n) == TERM_COUNTS[a_n]

    def test_small_a_rejected(self, xy):
        with pytest.raises(ValueError):
            simulation_design(*xy, 3)

    def test_smallest_design_spans_full_tensor(self, xy):
        # at a = 4 the restricted interactions are the full tensor product,
        # so the design must span all bivariate monomials up to degree 3+3
        x1, x2 = xy
        pair = simulation_design(x1, x2, 4)
        full = np.column_stack([
            x1 ** i * x2 ** j for i in range(4) for j in range(4)
        ])
        combined = np.column_stack([pair.w, pair.z])
        assert combined.shape[1] == full.shape[1] == 16
        # same column span: cross-projection leaves no residual
        for target, basis in ((full, combined), (combined, full)):
            coef, *_ = np.linalg.lstsq(basis, target, rcond=None)
            resid = target - basis @ coef
            assert np.max(np.abs(resid)) < 1e-8

    @pytest.mark.parametrize("a_n", sorted(A_BAR))
    def test_power_columns_in_order(self, xy, a_n):
        # oracle built from monomials: W = [1, x1, x2..x2^(a-1)], then
        # Z = [x1^2..x1^(a-1)] + [x1^i x2^j, i outer, j inner, 1 <= i, j < a_bar]
        x1, x2 = xy
        pows = range(2, a_n)
        inter = [(i, j) for i in range(1, A_BAR[a_n]) for j in range(1, A_BAR[a_n])]
        w_labels = ("const", "x1", "x2") + tuple(f"x2^{p}" for p in pows)
        z_labels = (tuple(f"x1^{p}" for p in pows)
                    + tuple(f"{_monomial('x1', i)}*{_monomial('x2', j)}" for i, j in inter))
        w = np.column_stack([np.ones_like(x1), x1] + [x2 ** p for p in range(1, a_n)])
        z = np.column_stack([x1 ** p for p in pows]
                            + [x1 ** i * x2 ** j for i, j in inter])
        pair = simulation_design(x1, x2, a_n, "power")
        assert pair.w_labels == w_labels
        assert pair.z_labels == z_labels
        np.testing.assert_allclose(pair.w, w, rtol=1e-13, atol=0)
        np.testing.assert_allclose(pair.z, z, rtol=1e-13, atol=0)

    def test_deterministic_labels(self, xy):
        p1 = simulation_design(*xy, 5)
        p2 = simulation_design(*xy, 5)
        assert p1.w_labels == p2.w_labels
        assert p1.z_labels == p2.z_labels
        np.testing.assert_array_equal(p1.z, p2.z)

    def test_spline_knots_from_each_variable(self, xy):
        pair = simulation_design(*xy, 6, "spline")
        assert any("x2_tp" in lab for lab in pair.w_labels)
        assert any(lab.startswith("x1_tp") for lab in pair.z_labels)


def same_design(got, want):
    """W/Z bytes (as int64), shapes, C order and labels all equal."""
    for a, b in ((got.w, want.w), (got.z, want.z)):
        assert a.shape == b.shape and a.flags.c_contiguous and b.flags.c_contiguous
        assert np.array_equal(a.view(np.int64), b.view(np.int64))
    assert (got.w_labels, got.z_labels) == (want.w_labels, want.z_labels)


class TestSharedBasisTable:
    """One sample's designs gathered from one column table equal lone builds, bit for bit."""

    @pytest.mark.parametrize("family", ["power", "spline"])
    @pytest.mark.parametrize("hyp,seed", [("null", 0), ("null", 5), ("alternative", 1),
                                          ("alternative", 9)])
    def test_every_candidate_equals_a_fresh_design(self, monkeypatch, family, hyp, seed):
        _, x1, x2 = gen_sample(DgpSpec(300, hyp, seed=seed))
        real_powers, real_quantile = basis._power_rows, np.quantile
        powers, quantiles = [], []

        def counting_powers(v, out):
            powers.append(("x1" if np.array_equal(v, x1) else "x2", len(out)))
            return real_powers(v, out)

        def counting_quantile(v, *args, **kwargs):
            quantiles.append("x1" if np.array_equal(v, x1) else "x2")
            return real_quantile(v, *args, **kwargs)

        for grid in (range(4, 10), range(4, 13)):
            fresh = {a: simulation_design(x1, x2, a, family) for a in grid}
            for order in (grid, grid[::-1]):
                monkeypatch.setattr(basis, "_power_rows", counting_powers)
                monkeypatch.setattr(np, "quantile", counting_quantile)
                powers.clear()
                quantiles.clear()
                table = ColumnTable({"x1": x1, "x2": x2},
                                    [simulation_spec(a, family) for a in order])
                for a in order:
                    same_design(simulation_design(x1, x2, a, family, table), fresh[a])
                monkeypatch.undo()
                # one pass of powers per variable, up to the highest one asked
                # for; one quantile call per spline variable; no column twice
                top = grid[-1] - 1 if family == "power" else 3
                assert sorted(powers) == [("x1", top), ("x2", top)]
                assert sorted(quantiles) == ([] if family == "power" else ["x1", "x2"])
                columns = table.array.T.view(np.int64)
                assert len(np.unique(columns, axis=0)) == len(columns)

    def test_each_spec_fails_alone_and_in_order(self):
        # a >= 7 places tied knots on a 4-valued x2, with a message per size;
        # a < 7 builds, and each error is raised for its own spec alone
        rng = np.random.default_rng(3)
        x1, x2 = rng.normal(size=200), rng.integers(0, 4, 200).astype(float)
        specs = [simulation_spec(a, "spline") for a in range(4, 10)]
        table = ColumnTable({"x1": x1, "x2": x2}, specs)
        failed = []
        for a, spec in zip(range(4, 10), specs):
            try:
                want = build_partially_linear({"x1": x1, "x2": x2}, spec)
            except DesignError as exc:
                failed.append(a)
                with pytest.raises(DesignError, match=re.escape(str(exc))):
                    table.design(spec)
                continue
            same_design(table.design(spec), want)
        assert failed and len(failed) < len(specs)

    def test_a_failed_design_leaves_no_reference_cycle(self):
        rng = np.random.default_rng(3)
        data = {"x1": rng.normal(size=200), "x2": rng.integers(0, 4, 200).astype(float)}
        specs = [simulation_spec(a, "spline") for a in (4, 9)]
        gc.collect()
        gc.disable()
        try:
            table = ColumnTable(data, specs)
            for _ in range(2):
                with pytest.raises(DesignError, match="too few for 5 distinct") as info:
                    table.design(specs[1])
                assert len(traceback.extract_tb(info.value.__traceback__)) <= 3
            del table, info
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_high_order_spline_fails_only_where_its_restricted_size_is_too_small(self):
        # restricted_interaction_order(6) = 5 leaves no room for a spline of
        # order 5, which only the restricted recipe asks for
        rng = np.random.default_rng(4)
        data = {"x1": rng.normal(size=200), "x2": rng.uniform(-2.0, 2.0, 200)}
        bspec = BasisSpec("spline", 6, spline_order=5)
        specs = [ModelSpec(("x1",), (("x2", bspec),),
                           AlternativeSpec(recipe, (("x1", bspec), ("x2", bspec))))
                 for recipe in ("full_tensor", "restricted_tensor", "additive_only")]
        table = ColumnTable(data, specs)
        for spec in specs:
            if spec.alternative.recipe == "restricted_tensor":
                for build in (lambda: build_partially_linear(data, spec),
                              lambda: table.design(spec)):
                    with pytest.raises(ValueError, match=re.escape("(got a=5, s=5)")):
                        build()
                continue
            got = build_partially_linear(data, spec)
            want = per_column_design(data, spec)
            assert (got.w_labels, got.z_labels) == want[2:]
            assert np.array_equal(got.w.view(np.int64), want[0].view(np.int64))
            assert np.array_equal(got.z.view(np.int64), want[1].view(np.int64))
            same_design(table.design(spec), got)


    def test_rendered_knot_labels_decide_a_repeat(self):
        # a linear variable named like a knot label repeats it only on a
        # sample whose median places that knot: the cached layout must check
        # the rendered labels of each sample, in the order of a lone build
        spec = ModelSpec(("x_tp0.0",), (("x", BasisSpec("spline", 5)),),
                         AlternativeSpec("additive_only", (("x", BasisSpec("power", 6)),)))
        rng = np.random.default_rng(5)
        u = rng.normal(size=81)
        for x, repeats in ((np.r_[-np.abs(u[:40]), 0.0, np.abs(u[41:])], True),
                           (u, False)):
            data = {"x": x, "x_tp0.0": rng.normal(size=81)}
            table = ColumnTable(data, [spec, simulation_spec(4)])
            if not repeats:
                same_design(table.design(spec), build_partially_linear(data, spec))
                continue
            for build in (lambda: build_partially_linear(data, spec),
                          lambda: table.design(spec)):
                with pytest.raises(DesignError, match=re.escape(
                        "duplicate column 'x_tp0.0' in null design")):
                    build()


    def test_specs_of_one_table_read_one_length(self):
        # each spec alone builds; in one table the first one's length holds
        rng = np.random.default_rng(6)
        data = {"x1": rng.normal(size=100), "x2": rng.normal(size=100),
                "u": rng.normal(size=90)}
        other = ModelSpec(("u",), (), AlternativeSpec("additive_only",
                                                      (("u", BasisSpec("power", 4)),)))
        table = ColumnTable(data, [simulation_spec(4), other])
        same_design(table.design(simulation_spec(4)),
                    build_partially_linear(data, simulation_spec(4)))
        assert build_partially_linear(data, other).n_obs == 90
        with pytest.raises(DesignError, match="variable 'u' has inconsistent length"):
            table.design(other)


class TestBuildPartiallyLinear:
    def test_additive_only_higher_powers(self):
        # one linear regressor; the alternative expands the same variable, so
        # Z keeps exactly the powers that are not already in the null
        rng = np.random.default_rng(5)
        x = rng.normal(size=60)
        spec = ModelSpec(
            linear_vars=("x",),
            series_vars=(),
            alternative=AlternativeSpec(
                recipe="additive_only", basis=(("x", BasisSpec("power", 4)),)),
        )
        pair = build_partially_linear({"x": x}, spec)
        assert pair.w_labels == ("const", "x")
        assert pair.z_labels == ("x^2", "x^3")
        np.testing.assert_allclose(pair.z, np.column_stack([x ** 2, x ** 3]))

    @pytest.mark.parametrize("a_n,expected", [(4, (5, 16, 11)), (8, (9, 40, 31))])
    def test_restricted_tensor_counts(self, xy, a_n, expected):
        x1, x2 = xy
        bspec = BasisSpec("power", a_n)
        spec = ModelSpec(
            linear_vars=("x1",),
            series_vars=(("x2", bspec),),
            alternative=AlternativeSpec(
                recipe="restricted_tensor",
                basis=(("x1", bspec), ("x2", bspec))),
        )
        pair = build_partially_linear({"x1": x1, "x2": x2}, spec)
        assert (pair.m_n, pair.k_n, pair.r_n) == expected

    def test_full_tensor_counts(self, xy):
        x1, x2 = xy
        bspec = BasisSpec("power", 4)
        spec = ModelSpec(
            linear_vars=("x1",),
            series_vars=(("x2", bspec),),
            alternative=AlternativeSpec(
                recipe="full_tensor", basis=(("x1", bspec), ("x2", bspec))),
        )
        pair = build_partially_linear({"x1": x1, "x2": x2}, spec)
        assert pair.k_n == 16  # a^2 columns when every interaction is kept

    def test_custom_terms(self, xy):
        x1, x2 = xy
        spec = ModelSpec(
            linear_vars=("x1", "x2"),
            series_vars=(),
            alternative=AlternativeSpec(
                recipe="custom",
                custom_terms=("x1^2", "x2 * x1", "x1*x2")),  # dedups
        )
        pair = build_partially_linear({"x1": x1, "x2": x2}, spec)
        assert pair.z_labels == ("x1^2", "x1*x2")
        np.testing.assert_allclose(pair.z[:, 1], x1 * x2)

    def test_custom_terms_dedup_against_series_columns(self, xy):
        # "x2^2" is a column of the null's series; the last two terms are one
        # product written in two factor orders
        x1, x2 = xy
        spec = ModelSpec(
            linear_vars=("x1",),
            series_vars=(("x2", BasisSpec("power", 4)),),
            alternative=AlternativeSpec(
                recipe="custom", custom_terms=("x2^2", "x2^3*x1", "x1*x2^3")),
        )
        pair = build_partially_linear({"x1": x1, "x2": x2}, spec)
        assert pair.z_labels == ("x1*x2^3",)
        np.testing.assert_allclose(pair.z[:, 0], x1 * x2 ** 3)

    def test_missing_variable(self, xy):
        spec = ModelSpec(
            linear_vars=("nope",), series_vars=(),
            alternative=AlternativeSpec(
                recipe="additive_only", basis=(("nope", BasisSpec("power", 3)),)))
        with pytest.raises(DesignError):
            build_partially_linear({"x1": xy[0]}, spec)

    def test_too_many_terms_for_sample(self):
        rng = np.random.default_rng(6)
        data = {"x1": rng.normal(size=12), "x2": rng.normal(size=12)}
        bspec = BasisSpec("power", 6)
        spec = ModelSpec(
            linear_vars=("x1",), series_vars=(("x2", bspec),),
            alternative=AlternativeSpec(
                recipe="restricted_tensor",
                basis=(("x1", bspec), ("x2", bspec))),
        )
        with pytest.raises(DesignError):
            build_partially_linear(data, spec)

    @pytest.mark.parametrize("placement", ["null", "alternative"])
    def test_coinciding_knots_name_the_variable(self, placement):
        # x takes 3 values, so the 5 knots of a size-9 cubic spline coincide
        # and the last one is the maximum: repeated and all-zero knot columns
        rng = np.random.default_rng(8)
        data = {"x": rng.integers(0, 3, 200).astype(float), "u": rng.normal(size=200)}
        bspec = BasisSpec("spline", 9)
        series = (("x", bspec),) if placement == "null" else ()
        spec = ModelSpec(linear_vars=("u",), series_vars=series,
                         alternative=AlternativeSpec("additive_only", (("x", bspec),)))
        with pytest.raises(DesignError, match=re.escape(
                "variable 'x' has 3 distinct values, too few for 5 distinct spline "
                "knots below its maximum")):
            build_partially_linear(data, spec)

    def test_duplicate_variable_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(linear_vars=("x", "x"), series_vars=(),
                      alternative=AlternativeSpec(
                          recipe="custom", custom_terms=("x^2",)))
        with pytest.raises(ValueError):
            ModelSpec(linear_vars=("x",),
                      series_vars=(("x", BasisSpec("power", 3)),),
                      alternative=AlternativeSpec(
                          recipe="custom", custom_terms=("x^2",)))

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec(linear_vars=(), series_vars=(),
                      alternative=AlternativeSpec(
                          recipe="custom", custom_terms=("x^2",)))

    def test_round_trip_serialization(self):
        spec = ModelSpec(
            linear_vars=("p",),
            series_vars=(("q", BasisSpec("spline", 6)),),
            alternative=AlternativeSpec(
                recipe="restricted_tensor",
                basis=(("p", BasisSpec("power", 5)), ("q", BasisSpec("spline", 6)))),
        )
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("edit,name", [
        (lambda d: d.update(linear_var=d.pop("linear_vars")), "'linear_var'"),
        (lambda d: d["series_vars"][0].update(famly="spline"), "'series_vars[0].famly'"),
        (lambda d: d["alternative"].update(recipie="custom"), "'alternative.recipie'"),
        (lambda d: d["alternative"]["basis"][1].update(order=3),
         "'alternative.basis[1].order'"),
    ], ids=["model", "series-entry", "alternative", "basis-entry"])
    def test_from_dict_names_unknown_keys(self, edit, name):
        spec = ModelSpec(
            linear_vars=("p",),
            series_vars=(("q", BasisSpec("power", 5)),),
            alternative=AlternativeSpec(
                recipe="restricted_tensor",
                basis=(("p", BasisSpec("power", 5)), ("q", BasisSpec("power", 5)))),
        )
        d = spec.to_dict()
        edit(d)
        with pytest.raises(ValueError, match=re.escape(f"unknown model key(s): {name}")):
            ModelSpec.from_dict(d)

    @pytest.mark.parametrize("key", ["a", "var"])
    def test_from_dict_names_missing_required_key(self, key):
        d = {"linear_vars": ["p"], "series_vars": [{"var": "q", "a": 5}],
             "alternative": {"recipe": "custom", "custom_terms": ["p*q"]}}
        del d["series_vars"][0][key]
        with pytest.raises(ValueError,
                           match=re.escape(f"missing model key 'series_vars[0].{key}'")):
            ModelSpec.from_dict(d)


def per_column_design(data, spec):
    """(W, Z, W labels, Z labels) assembled one labelled column at a time.

    The oracle of the label rule: W's columns in order, a repeated W label an
    error; then each alternative column, dropped when its label is already in
    W or earlier in Z.
    """
    def col(var):
        return np.asarray(data[var], dtype=float)

    def own(var, bspec, shrink=False):
        if shrink:
            bspec = replace(bspec, a=restricted_interaction_order(bspec.a))
        labels, block = build_basis(col(var), bspec, name=var)
        return list(zip(labels, block.T))

    n = col(spec.variables[0]).shape[0]
    w = {"const": np.ones(n)}
    for label, c in ([(v, col(v)) for v in spec.linear_vars]
                     + [t for v, bspec in spec.series_vars for t in own(v, bspec)]):
        if label in w:
            raise DesignError(f"duplicate column {label!r} in null design")
        w[label] = c
    alt, terms = spec.alternative, []
    if alt.recipe == "custom":
        for term in alt.custom_terms:
            factors, c = parse_term(term), np.ones(n)
            for var, power in factors:
                c = c * col(var) ** power
            terms.append(("*".join(_monomial(v, p) for v, p in factors), c))
    else:
        terms = [t for v, bspec in alt.basis for t in own(v, bspec)]
    if alt.recipe.endswith("_tensor"):
        bases = [own(v, bspec, alt.recipe == "restricted_tensor") for v, bspec in alt.basis]
        for b1, b2 in combinations(bases, 2):
            terms += [("*".join(sorted((l1, l2))), c1 * c2) for l1, c1 in b1 for l2, c2 in b2]
    z = {}
    for label, c in terms:
        if label not in w:
            z.setdefault(label, c)
    if n <= len(w) + len(z):
        raise DesignError(f"need n > k_n (got n={n}, k_n={len(w) + len(z)})")
    return (np.column_stack(list(w.values())),
            np.column_stack(list(z.values())) if z else np.empty((n, 0)), tuple(w), tuple(z))


NAMES = ("x1", "x2", "x3")
KINDS = ("continuous", "tied", "constant")


@st.composite
def models(draw):
    """A model over x1, x2 and x3, whose samples may tie or hold a variable constant."""
    family = draw(st.sampled_from(["power", "spline"]))

    def bspec():
        order = draw(st.integers(1, 6))
        return BasisSpec(family, draw(st.integers(order + 1, 9)), order)

    names = draw(st.permutations(NAMES))
    n_linear = draw(st.integers(0, 2))
    n_series = draw(st.integers(0 if n_linear else 1, 3 - n_linear))
    recipe = draw(st.sampled_from(RECIPES))
    if recipe == "custom":
        # few variables and powers: repeated, reordered and already-in-W terms
        factor = st.tuples(st.sampled_from(NAMES), st.integers(1, 3))
        terms = draw(st.lists(st.lists(factor, min_size=1, max_size=3), min_size=1,
                              max_size=12))
        alt = AlternativeSpec(recipe, custom_terms=[
            "*".join(_monomial(v, p) for v, p in t) for t in terms])
    else:
        # a linear variable expanded again under the alternative is common
        alt_vars = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                                 unique=True))
        alt = AlternativeSpec(recipe, [(v, bspec()) for v in alt_vars])
    return ModelSpec(names[:n_linear],
                     [(v, bspec()) for v in names[n_linear:n_linear + n_series]], alt)


@st.composite
def samples(draw):
    """Values of x1, x2 and x3 on one sample.

    Each variable is continuous, tied (a handful of values, so spline knots
    coincide) or constant; x3 is never continuous.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(30, 160))
    kinds = draw(st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS),
                           st.sampled_from(KINDS[1:])))
    continuous = {"x1": lambda: rng.normal(size=n), "x2": lambda: rng.uniform(-2.0, 2.0, n)}
    return {name: (continuous[name]() if kind == "continuous"
                   else rng.integers(0, draw(st.integers(2, 6)), n).astype(float)
                   if kind == "tied" else np.full(n, draw(st.sampled_from([-1.5, 0.0, 2.0]))))
            for name, kind in zip(NAMES, kinds)}


class TestLabelRule:
    @settings(max_examples=300, deadline=None)
    @given(specs=st.lists(models(), min_size=1, max_size=4),
           data=st.lists(samples(), min_size=2, max_size=2))
    def test_blocks_equal_the_per_column_assembly(self, specs, data):
        # each spec alone against the oracle, then all of them from one table;
        # the tables of both samples are filled from one cached layout
        tables = [ColumnTable(sample, specs) for sample in data]
        assert tables[0]._layout is tables[1]._layout
        for sample, table in zip(data, tables):
            for spec in specs:
                try:
                    want = per_column_design(sample, spec)
                except (DesignError, ValueError) as exc:
                    for build in (lambda: build_partially_linear(sample, spec),
                                  lambda: table.design(spec)):
                        with pytest.raises(type(exc), match=re.escape(str(exc))):
                            build()
                    continue
                got = build_partially_linear(sample, spec)
                assert (got.w_labels, got.z_labels) == want[2:]
                assert got.z.shape == want[1].shape
                assert np.array_equal(got.w.view(np.int64), want[0].view(np.int64))
                assert np.array_equal(got.z.view(np.int64), want[1].view(np.int64))
                same_design(table.design(spec), got)


class TestParseTerm:
    def test_merges_and_sorts_factors(self):
        assert parse_term("b*a^2*b") == (("a", 2), ("b", 2))

    def test_rejects_garbage(self):
        with pytest.raises(DesignError):
            parse_term("a^^2")


class TestScreenCollinear:
    def _pair(self, w, z, wl=None, zl=None):
        wl = wl or tuple(f"w{i}" for i in range(w.shape[1]))
        zl = zl or tuple(f"z{i}" for i in range(z.shape[1]))
        return DesignPair(w, z, wl, zl)

    def test_copy_of_w_column_dropped(self):
        rng = np.random.default_rng(21)
        w = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        z = np.column_stack([w[:, 1], rng.normal(size=50)])
        screened, dropped = screen_collinear(self._pair(w, z))
        assert dropped == ["z0"]
        assert screened.r_n == 1
        assert screened.k_n == screened.m_n + screened.r_n

    def test_duplicate_z_column_single_survivor(self):
        rng = np.random.default_rng(22)
        w = np.ones((40, 1))
        col = rng.normal(size=40)
        z = np.column_stack([col, col])
        screened, dropped = screen_collinear(self._pair(w, z))
        assert screened.r_n == 1 and dropped == ["z1"]

    def test_full_rank_untouched_and_conditioned(self):
        rng = np.random.default_rng(23)
        w = rng.normal(size=(80, 4))
        z = rng.normal(size=(80, 6))
        pair = self._pair(w, z)
        screened, dropped = screen_collinear(pair, tol=1e-10)
        assert not dropped
        assert np.linalg.matrix_rank(np.column_stack([w, z])) == 10
        combined = np.column_stack([screened.w, screened.z])
        combined = combined / np.linalg.norm(combined, axis=0)
        svals = np.linalg.svd(combined, compute_uv=False)
        assert svals[-1] > np.sqrt(1e-10) * svals[0]

    def test_rank_deficient_w_is_an_error(self):
        w = np.ones((30, 2))
        z = np.random.default_rng(24).normal(size=(30, 2))
        with pytest.raises(RankDeficiencyError, match="offending columns: w1"):
            screen_collinear(self._pair(w, z))

    def test_bad_tolerance(self):
        pair = self._pair(np.ones((10, 1)),
                          np.random.default_rng(0).normal(size=(10, 1)))
        with pytest.raises(ValueError):
            screen_collinear(pair, tol=0.0)
