"""Series bases: hand examples, loop oracles, and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from serieslm.basis import (
    BasisSpec,
    _knot_rows,
    _place_knots,
    build_basis,
    knot_level,
    knot_problem,
    restricted_interaction_order,
    series_rows,
    tensor_interactions,
)
from serieslm.errors import DesignError


def power(v, a, name="v"):
    return build_basis(v, BasisSpec("power", a), name=name)


def spline(v, a, s=3, name="v"):
    return build_basis(v, BasisSpec("spline", a, s), name=name)


def knot_block(v, s, knots):
    """The knot columns of order ``s`` at ``knots``, as ``series_rows`` writes them."""
    v = np.asarray(v, dtype=float)
    return series_rows(v, 0, [(s, list(knots))], np.empty((len(knots), v.size))).T


def as_bits(block):
    return np.ascontiguousarray(block).view(np.int64)


class TestPowerBasis:
    def test_tiny(self):
        labels, block = power([2.0], 3)
        assert labels == ("v", "v^2")
        np.testing.assert_array_equal(block, [[2, 4]])

    def test_constant_only(self):
        # a = 1 counts only the constant, which W supplies: an empty block
        labels, block = power([0.0, 1.0, 2.0], 1)
        assert labels == () and block.shape == (3, 0)

    def test_against_repeated_multiplication(self):
        rng = np.random.default_rng(42)
        v = rng.uniform(-2.0, 2.0, 100)
        _, b = power(v, 5)
        acc = v.copy()
        for j in range(4):
            np.testing.assert_allclose(b[:, j], acc, rtol=1e-15)
            acc = acc * v

    def test_validation(self):
        with pytest.raises(ValueError):
            power([1.0, np.nan], 3)
        with pytest.raises(ValueError):
            power([1.0], 0)

    def test_labels(self):
        assert power([1.0, 2.0], 4, name="x2")[0] == ("x2", "x2^2", "x2^3")


class TestIndependentOracle:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(["power", "spline"]),
           s=st.integers(1, 4), extra=st.integers(0, 5), n=st.integers(20, 120))
    def test_bitwise_equal_to_vandermonde_slice_and_where_form(self, seed, family, s,
                                                               extra, n):
        # a power basis of size a is np.vander(v, a)[:, 1:]; a spline adds one
        # np.where(v > t, (v - t) ** s, 0.0) column per knot, the empirical
        # quantile at level k / (extra + 1)
        v = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
        a = s + 1 + extra
        labels, got = build_basis(v, BasisSpec(family, a, s), name="x")
        if family == "power":
            want = np.vander(v, a, increasing=True)[:, 1:]
        else:
            knots = np.quantile(v, np.arange(1, extra + 1) / (extra + 1.0))
            want = np.column_stack([np.vander(v, s + 1, increasing=True)[:, 1:]]
                                   + [np.where(v > t, (v - t) ** s, 0.0) for t in knots])
        assert got.shape == (n, a - 1) and len(labels) == a - 1
        assert np.array_equal(as_bits(got), as_bits(want))


class TestQuantileKnots:
    def test_median(self):
        assert _place_knots(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), (1,)) == {1: [3.0]}
        assert knot_level(1, 1) == 0.5 and knot_level(3, 2) == 0.5

    def test_empty(self):
        # no knots: nothing to check, and a knot-free spline labels only powers
        assert knot_problem(np.ones(4), [], "v") is None
        assert spline([1.0, 2.0, 3.0, 4.0], 4)[0] == ("v", "v^2", "v^3")

    def test_uniform_sample(self):
        rng = np.random.default_rng(3)
        v = rng.random(1000)
        knots = _place_knots(v, (3,))[3]
        # sort-based oracle with linear interpolation at levels k/4
        srt = np.sort(v)
        pos = (len(v) - 1) * np.array([0.25, 0.5, 0.75])
        lo = np.floor(pos).astype(int)
        oracle = srt[lo] + (pos - lo) * (srt[lo + 1] - srt[lo])
        np.testing.assert_allclose(knots, oracle, rtol=1e-12)
        np.testing.assert_allclose(knots, [0.25, 0.5, 0.75], atol=0.05)

    def test_monotone_inside_range(self):
        rng = np.random.default_rng(4)
        v = rng.normal(size=500)
        knots = _place_knots(v, (7,))[7]
        assert np.all(np.diff(knots) >= 0)
        assert min(knots) >= v.min() and max(knots) <= v.max()
        assert knot_problem(v, knots, "v") is None

    def test_several_counts_in_one_call_equal_each_alone(self):
        v = np.random.default_rng(6).normal(size=301)
        together = _place_knots(v, (5, 1, 3, 3))
        assert list(together) == [1, 3, 5]
        for q, knots in together.items():
            assert knots == _place_knots(v, (q,))[q]
            assert knots == np.quantile(v, np.arange(1, q + 1) / (q + 1.0)).tolist()

    def test_errors(self):
        with pytest.raises(ValueError):
            BasisSpec("spline", 3)
        assert isinstance(knot_problem(np.ones(10), _place_knots(np.ones(10), (2,))[2],
                                       "v"), DesignError)
        problem = knot_problem(np.array([1.0, 2.0]), [1.3, 1.6], "v")
        assert isinstance(problem, ValueError)
        assert str(problem) == "need more than 2 observations to place 2 knots"


class TestSplineBasis:
    def test_no_knots_equals_power(self):
        v = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
        labels, block = spline(v, 4)
        assert labels == power(v, 4)[0]
        assert np.array_equal(as_bits(block), as_bits(power(v, 4)[1]))

    def test_truncated_term_by_hand(self):
        # the median of {0, 1, 2} is the one knot
        labels, b = spline([0.0, 1.0, 2.0], 5)
        assert labels == ("v", "v^2", "v^3", "v_tp1.0")
        np.testing.assert_allclose(b, [[0, 0, 0, 0], [1, 1, 1, 0], [2, 4, 8, 1]])

    def test_pointwise_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(-2.0, 2.0, 200)
        knots = np.quantile(v, [1 / 3, 2 / 3])
        _, b = spline(v, 6)
        for i, x in enumerate(v):
            row = [x, x ** 2, x ** 3]
            for t in knots:
                row.append((x - t) ** 3 if x > t else 0.0)
            np.testing.assert_allclose(b[i], row, rtol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), s=st.integers(1, 5), n=st.integers(6, 80),
           n_knots=st.integers(1, 5), shift=st.floats(-1e3, 1e3),
           scale=st.floats(1e-3, 1e3), at_points=st.booleans())
    def test_knot_columns_bitwise_equal_to_where_form(self, seed, s, n, n_knots,
                                                      shift, scale, at_points):
        # the truncated columns are exactly np.where(v > t, (v - t) ** s, 0.0),
        # zeros and their signs included; knots sit at empirical quantiles or
        # on sample points, and a third of the points repeat
        rng = np.random.default_rng(seed)
        v = shift + scale * rng.uniform(-2.0, 2.0, n)
        v[: n // 3] = rng.choice(v, n // 3)
        knots = (np.sort(rng.choice(v, n_knots)).tolist() if at_points
                 else _place_knots(v, (n_knots,))[n_knots])
        want = np.column_stack([np.where(v > t, (v - t) ** s, 0.0) for t in knots])
        for got in (knot_block(v, s, knots), _knot_rows(v, np.array(knots), s).T):
            assert np.array_equal(as_bits(got), as_bits(want))

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("t", [0.0, -0.0])
    def test_knot_column_at_signed_zero(self, s, t):
        v = np.array([-0.0, 0.0, -1.0, 1.0])
        got = knot_block(v, s, [t])[:, 0]
        want = np.where(v > t, (v - t) ** s, 0.0)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got, [0.0, 0.0, 0.0, 1.0])

    def test_knot_count_mismatch(self):
        # as many knots as observations, or more, cannot be placed
        with pytest.raises(ValueError, match="need more than 2 observations"):
            spline([0.0, 1.0], a=6)

    def test_decreasing_knots_rejected(self):
        problem = knot_problem(np.linspace(0, 1, 9), [0.7, 0.3], "x")
        assert isinstance(problem, DesignError) and "'x'" in str(problem)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            spline([1.0, np.inf, 2.0], a=4)

    def test_order_zero_only_without_knots(self):
        # order 0 is the knot-free basis of a = 1, which only the power family gives
        assert power([1.0, 2.0], 1)[1].shape == (2, 0)
        with pytest.raises(ValueError, match="spline order"):
            BasisSpec("spline", 2, spline_order=0)

    def test_rows_written_in_place_of_a_larger_buffer(self):
        # powers up to v^top, then each order's knot block, into the rows
        # asked for, bitwise the lone basis; the other rows keep their values
        v = np.random.default_rng(8).uniform(-2.0, 2.0, 50)
        knots = _place_knots(v, (2, 3))
        out = np.full((12, v.size), 7.0)
        rows = series_rows(v, 5, [(3, knots[2]), (2, knots[3])], out[2:])
        assert rows.base is out and rows.shape == (10, v.size)
        assert np.array_equal(out[[0, 1]], np.full((2, v.size), 7.0))
        assert np.array_equal(as_bits(out[2:7].T), as_bits(power(v, 6)[1]))
        assert np.array_equal(as_bits(out[[2, 3, 4, 7, 8]].T), as_bits(spline(v, 6)[1]))
        assert np.array_equal(as_bits(out[9:].T), as_bits(knot_block(v, 2, knots[3])))

    def test_knot_labels_are_plain_floats(self):
        # numpy 2 prints a float64 scalar as np.float64(1.0); a label must not
        labels, _ = build_basis(np.arange(7.0), BasisSpec("spline", 9), name="x")
        assert labels == ("x", "x^2", "x^3", "x_tp1.0", "x_tp2.0", "x_tp3.0",
                          "x_tp4.0", "x_tp5.0")

    def test_coinciding_knots_name_the_variable(self):
        # x in {0, 1, 2}: the 5 quantile knots are 0, 1/3, 1, 1, 2
        x = np.tile([0.0, 1.0, 2.0], 67)[:200]
        with pytest.raises(DesignError, match=r"^variable 'x' has 3 distinct values, "
                           r"too few for 5 distinct spline knots below its maximum$"):
            build_basis(x, BasisSpec("spline", 9), name="x")

    def test_knot_at_the_maximum_names_the_variable(self):
        # one knot, the median, at the sample maximum: its column is all zeros
        x = np.concatenate([np.arange(50.0), np.full(60, 100.0)])
        with pytest.raises(DesignError, match="variable 'age' has 51 distinct values"):
            build_basis(x, BasisSpec("spline", 5), name="age")


class TestBasisSpec:
    def test_spline_needs_room_for_order(self):
        with pytest.raises(ValueError):
            BasisSpec("spline", 3, spline_order=3)
        assert BasisSpec("spline", 4).n_knots == 0
        assert BasisSpec("spline", 9).n_knots == 5

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            BasisSpec("fourier", 4)


class TestRestrictedInteractionOrder:
    @pytest.mark.parametrize("a,expected", [(4, 4), (6, 5), (9, 7)])
    def test_reference_values(self, a, expected):
        assert restricted_interaction_order(a) == expected

    @given(st.integers(min_value=1, max_value=80))
    def test_never_exceeds_input(self, a):
        assert 1 <= restricted_interaction_order(a) <= a

    def test_nondecreasing(self):
        vals = [restricted_interaction_order(a) for a in range(1, 80)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))


class TestTensorInteractions:
    def test_single_product(self):
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([4.0, 5.0, 6.0])
        out = tensor_interactions(power(x, 2)[1], power(y, 2)[1])
        np.testing.assert_allclose(out, (x * y)[:, None])

    def test_restricted_count_for_table_row(self):
        # two 5-term bases give the 16 interaction columns implied by the
        # k_n = 2 a - 1 + (a_bar - 1)^2 progression at a = 6
        rng = np.random.default_rng(0)
        out = tensor_interactions(power(rng.random(30), 5)[1], power(rng.random(30), 5)[1])
        assert out.shape == (30, 16)

    def test_nested_loop_oracle(self):
        rng = np.random.default_rng(5)
        b1 = rng.random((20, 2))
        b2 = rng.random((20, 3))
        out = tensor_interactions(b1, b2)
        assert out.shape == (20, 6)
        k = 0
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(out[:, k], b1[:, i] * b2[:, j])
                k += 1

    def test_row_mismatch(self):
        with pytest.raises(DesignError):
            tensor_interactions(np.ones((2, 1)), np.ones((3, 1)))
