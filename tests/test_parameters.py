"""Unit and property tests for the parameter-space layer."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parameters import (
    CategoricalParameter,
    FloatParameter,
    IntParameter,
    ParameterSpace,
    parameter_from_dict,
)


class TestFloatParameter:
    def test_bounds_map_to_unit_interval(self):
        p = FloatParameter("x", 2.0, 10.0)
        assert p.to_unit(2.0) == 0.0
        assert p.to_unit(10.0) == 1.0
        assert p.from_unit(0.0) == 2.0
        assert p.from_unit(1.0) == 10.0

    def test_midpoint(self):
        p = FloatParameter("x", 0.0, 4.0)
        assert p.from_unit(0.5) == pytest.approx(2.0)

    def test_log_scale(self):
        p = FloatParameter("x", 1.0, 100.0, log=True)
        assert p.from_unit(0.5) == pytest.approx(10.0)
        assert p.to_unit(10.0) == pytest.approx(0.5)

    def test_log_requires_positive_low(self):
        with pytest.raises(ValueError):
            FloatParameter("x", 0.0, 1.0, log=True)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            FloatParameter("x", 1.0, 1.0)

    def test_contains(self):
        p = FloatParameter("x", 0.0, 1.0)
        assert p.contains(0.5)
        assert not p.contains(1.5)
        assert not p.contains("abc")

    def test_out_of_range_unit_clips(self):
        p = FloatParameter("x", 0.0, 1.0)
        assert p.from_unit(2.0) == 1.0
        assert p.from_unit(-1.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_from_unit_stays_in_domain(self, u):
        p = FloatParameter("x", -3.0, 7.0)
        v = p.from_unit(u)
        assert -3.0 <= v <= 7.0

    @given(st.floats(min_value=-3.0, max_value=7.0, allow_nan=False))
    def test_roundtrip(self, v):
        p = FloatParameter("x", -3.0, 7.0)
        assert p.from_unit(p.to_unit(v)) == pytest.approx(v, abs=1e-9)


class TestIntParameter:
    def test_extremes(self):
        p = IntParameter("n", 1, 10)
        assert p.from_unit(0.0) == 1
        assert p.from_unit(1.0 - 1e-12) == 10
        assert p.from_unit(1.0) == 10

    def test_every_value_reachable(self):
        p = IntParameter("n", 3, 9)
        values = {p.from_unit(u) for u in np.linspace(0, 1, 1000)}
        assert values == set(range(3, 10))

    def test_roundtrip_all_values(self):
        p = IntParameter("n", 1, 17)
        for v in range(1, 18):
            assert p.from_unit(p.to_unit(v)) == v

    def test_log_scale_roundtrip(self):
        p = IntParameter("n", 1, 100000, log=True)
        for v in (1, 10, 100, 5000, 100000):
            assert p.from_unit(p.to_unit(v)) == v

    def test_contains_rejects_non_integers(self):
        p = IntParameter("n", 1, 10)
        assert p.contains(5)
        assert not p.contains(5.5)
        assert not p.contains(11)

    def test_sample_in_range(self, rng):
        p = IntParameter("n", 2, 6)
        for _ in range(100):
            assert 2 <= p.sample(rng) <= 6

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50)
    def test_unit_centres_are_unbiased(self, seed):
        """Uniform unit samples decode to a roughly uniform histogram."""
        p = IntParameter("n", 0, 3)
        rng = np.random.default_rng(seed)
        vals = [p.from_unit(rng.random()) for _ in range(40)]
        assert set(vals) <= {0, 1, 2, 3}


class TestCategoricalParameter:
    def test_roundtrip(self):
        p = CategoricalParameter("g", ["shuffle", "fields", "all"])
        for choice in ["shuffle", "fields", "all"]:
            assert p.from_unit(p.to_unit(choice)) == choice

    def test_needs_two_choices(self):
        with pytest.raises(ValueError):
            CategoricalParameter("g", ["only"])

    def test_duplicate_choices_rejected(self):
        with pytest.raises(ValueError):
            CategoricalParameter("g", ["a", "a"])

    def test_contains(self):
        p = CategoricalParameter("g", [1, 2, 3])
        assert p.contains(2)
        assert not p.contains(4)


class TestParameterSpace:
    def make_space(self) -> ParameterSpace:
        return ParameterSpace(
            [
                IntParameter("hint", 1, 8),
                FloatParameter("mult", 0.1, 4.0),
                CategoricalParameter("mode", ["a", "b", "c"]),
            ]
        )

    def test_dim_and_names(self):
        space = self.make_space()
        assert space.dim == 3
        assert space.names == ["hint", "mult", "mode"]
        assert "hint" in space

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace([IntParameter("x", 1, 2), IntParameter("x", 1, 3)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ParameterSpace([])

    def test_encode_decode_roundtrip(self):
        space = self.make_space()
        config = {"hint": 5, "mult": 2.0, "mode": "b"}
        decoded = space.decode(space.encode(config))
        assert decoded["hint"] == 5
        assert decoded["mult"] == pytest.approx(2.0, abs=1e-9)
        assert decoded["mode"] == "b"

    def test_encode_missing_key_raises(self):
        space = self.make_space()
        with pytest.raises(KeyError):
            space.encode({"hint": 5})

    def test_decode_wrong_shape_raises(self):
        space = self.make_space()
        with pytest.raises(ValueError):
            space.decode(np.zeros(2))

    def test_validate(self):
        space = self.make_space()
        space.validate({"hint": 1, "mult": 0.1, "mode": "a"})
        with pytest.raises(ValueError):
            space.validate({"hint": 99, "mult": 0.1, "mode": "a"})
        with pytest.raises(KeyError):
            space.validate({"hint": 1, "mult": 0.1})

    def test_latin_hypercube_stratification(self, rng):
        space = ParameterSpace([FloatParameter("a", 0, 1), FloatParameter("b", 0, 1)])
        n = 20
        pts = space.latin_hypercube(n, rng)
        assert pts.shape == (n, 2)
        # Each axis has exactly one sample per 1/n stratum.
        for d in range(2):
            bins = np.floor(pts[:, d] * n).astype(int)
            bins = np.clip(bins, 0, n - 1)
            assert len(set(bins)) >= n - 1  # rounding may merge one pair

    def test_sample_unit_snaps_to_grid(self, rng):
        space = ParameterSpace([IntParameter("n", 1, 4)])
        pts = space.sample_unit(50, rng)
        decoded = {space.decode(p)["n"] for p in pts}
        assert decoded <= {1, 2, 3, 4}

    def test_round_trip_idempotent(self, rng):
        space = self.make_space()
        for _ in range(20):
            x = rng.random(space.dim)
            snapped = space.round_trip(x)
            assert np.allclose(space.round_trip(snapped), snapped)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_property_encode_decode_identity_on_grid(self, seed):
        space = ParameterSpace(
            [
                IntParameter("a", 1, 13),
                IntParameter("b", 2, 5),
                FloatParameter("c", -1.0, 1.0),
            ]
        )
        rng = np.random.default_rng(seed)
        config = space.sample(rng)
        again = space.decode(space.encode(config))
        assert again["a"] == config["a"]
        assert again["b"] == config["b"]
        assert math.isclose(float(again["c"]), float(config["c"]), abs_tol=1e-9)


#: One of each parameter kind whose batch paths have their own code:
#: linear/log float, linear/log int (Sundog's batch-size range), and
#: numeric/non-numeric categoricals.
BATCH_PARAMETERS = [
    FloatParameter("f", -2.0, 3.0),
    FloatParameter("flog", 0.01, 40.0, log=True),
    IntParameter("i", 1, 37),
    IntParameter("ilog", 1_000, 500_000, log=True),
    CategoricalParameter("c", [1, 5, 2.5, 40]),
    CategoricalParameter("cs", ["a", "b", "c"]),
]


def _unit_rows(dim: int, rng: np.random.Generator, n: int = 400) -> np.ndarray:
    """Random rows plus both cube corners and out-of-cube coordinates."""
    edges = np.array([[0.0], [1.0], [-0.25], [1.5]]).repeat(dim, axis=1)
    return np.vstack([rng.random((n, dim)), edges])


def _log_mismatch_units(param: IntParameter) -> np.ndarray:
    """Unit coordinates of the grid values where ``np.log`` and
    ``math.log`` disagree by an ulp: where a vectorized ``to_unit``
    would part from the scalar one."""
    values = np.arange(param.low, param.high + 1)
    scalar = np.fromiter(map(math.log, values.tolist()), dtype=float)
    odd = values[np.log(values.astype(float)) != scalar]
    return np.array([param.to_unit(int(v)) for v in odd], dtype=float)


def _log_tie_units(param: IntParameter) -> np.ndarray:
    """Unit coordinates whose log-scale decode lands on or a few ulps
    around a .5 rounding tie: a sample of them, plus every one where
    ``np.exp`` and ``math.exp`` round to different integers."""
    log_lo, log_hi = math.log(param.low), math.log(param.high)
    ties = np.arange(param.low, param.high, 10) + 0.5
    centre = (np.log(ties) - log_lo) / (log_hi - log_lo)
    units = (centre[:, None] + np.arange(-4, 5) * np.spacing(centre)[:, None]).ravel()
    arg = log_lo + units * (log_hi - log_lo)
    scalar = np.fromiter(map(math.exp, arg.tolist()), dtype=float)
    apart = np.round(np.exp(arg)) != np.round(scalar)
    return np.concatenate([units[apart], units[::97]])


class TestBatchPaths:
    """round_trip_batch / decode_matrix equal their per-row versions."""

    @pytest.mark.parametrize("param", BATCH_PARAMETERS, ids=lambda p: p.name)
    def test_round_trip_batch_equals_per_row(self, param, rng):
        space = ParameterSpace([param, IntParameter("pad", 0, 3)])
        X = _unit_rows(space.dim, rng)
        expected = np.array([space.round_trip(row) for row in X])
        got = space.round_trip_batch(X)
        if param.is_discrete:
            assert np.array_equal(got, expected)
        else:
            # A float snap is a clip; the per-row to_unit(from_unit(u))
            # returns the same point up to float rounding.
            assert np.array_equal(got[:, 1], expected[:, 1])
            assert np.abs(got - expected).max() <= 1e-12

    def test_log_int_decode_is_bit_identical_at_ties(self):
        param = IntParameter("batch_size", 1_000, 500_000, log=True)
        units = _log_tie_units(param)
        expected = [param.from_unit(u) for u in units.tolist()]
        assert param.from_unit_array(units).tolist() == expected

    def test_log_int_snap_is_bit_identical_where_logs_disagree(self):
        param = IntParameter("batch_size", 1_000, 500_000, log=True)
        units = _log_mismatch_units(param)
        expected = [param.to_unit(param.from_unit(u)) for u in units.tolist()]
        assert param.round_trip_unit(units).tolist() == expected

    @pytest.mark.parametrize(
        "param", [p for p in BATCH_PARAMETERS if p.name != "cs"], ids=lambda p: p.name
    )
    def test_decode_matrix_equals_per_row_decode(self, param, rng):
        space = ParameterSpace([param, IntParameter("pad", 0, 3)])
        U = _unit_rows(space.dim, rng)
        if isinstance(param, IntParameter) and param.log:
            U = np.vstack([U, _log_tie_units(param)[:, None].repeat(2, axis=1)])
        got = space.decode_matrix(U)
        assert got.shape == U.shape and got.dtype == float
        for row, values in zip(U, got.tolist()):
            assert list(space.decode(row).values()) == values

    def test_decode_matrix_rejects_non_numeric_choices(self):
        space = ParameterSpace([CategoricalParameter("cs", ["a", "b"])])
        with pytest.raises(ValueError, match="numeric"):
            space.decode_matrix(np.zeros((2, 1)))

    def test_decode_matrix_checks_shape(self):
        space = ParameterSpace([IntParameter("a", 0, 3), IntParameter("b", 0, 3)])
        with pytest.raises(ValueError, match="expected shape"):
            space.decode_matrix(np.zeros((4, 3)))
        assert space.decode_matrix(np.zeros((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize("param", BATCH_PARAMETERS, ids=lambda p: p.name)
    def test_nan_raises_on_scalar_and_batch_paths(self, param):
        with pytest.raises(ValueError, match="unit coordinate is NaN"):
            param.from_unit(float("nan"))
        with pytest.raises(ValueError, match="unit coordinate is NaN"):
            param.round_trip_unit(np.array([0.5, np.nan]))
        space = ParameterSpace([IntParameter("pad", 0, 3), param])
        row = np.array([0.5, np.nan])
        for call in (space.decode, space.round_trip):
            with pytest.raises(ValueError, match="unit coordinate is NaN"):
                call(row)
        for call in (space.round_trip_batch, space.decode_matrix):
            with pytest.raises(ValueError, match="unit coordinate is NaN"):
                call(np.vstack([np.full(2, 0.5), row]))


class TestSerialization:
    def test_parameter_roundtrip(self):
        params = [
            IntParameter("a", 1, 9, log=False),
            IntParameter("b", 1, 1000, log=True),
            FloatParameter("c", 0.5, 2.5),
            CategoricalParameter("d", ["x", "y"]),
        ]
        for p in params:
            q = parameter_from_dict(p.as_dict())
            assert type(q) is type(p)
            assert q.as_dict() == p.as_dict()

    def test_space_roundtrip(self):
        space = ParameterSpace(
            [IntParameter("a", 1, 9), FloatParameter("c", 0.5, 2.5)]
        )
        again = ParameterSpace.from_dict(space.as_dict())
        assert again.names == space.names
        assert again.dim == space.dim

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            parameter_from_dict({"type": "mystery", "name": "x"})
