import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssmean import (
    RngStream,
    TComponent,
    sample_convolution,
    sample_quantile,
    sample_student_t,
    sample_student_t_each,
)
from ssmean.errors import EmptyInputError, InvalidParameterError

RNG = RngStream(20240817)


def _t_variance(comp):
    """t_df(location, scale_sq) variance, for df > 2."""
    return comp.df / (comp.df - 2.0) * comp.scale_sq


class TestStudentT:
    def test_zero_scale_is_point_mass(self):
        draws = sample_student_t(TComponent(df=5, location=2, scale_sq=0), 3, RNG)
        assert draws.tolist() == [2, 2, 2]

    def test_mean_at_one_million_draws(self):
        # t mean = location for df > 1; tolerance 4 * sd / sqrt(count)
        comp = TComponent(df=5, location=2, scale_sq=1)
        draws = sample_student_t(comp, 10**6, RNG.substream(1))
        sd = math.sqrt(_t_variance(comp))
        assert abs(draws.mean() - 2.0) <= max(4 * sd / 1000, 0.01)

    def test_variance_at_one_million_draws(self):
        # t variance = df / (df - 2) * scale_sq = 2
        draws = sample_student_t(TComponent(df=4, location=0, scale_sq=1), 10**6, RNG.substream(2))
        assert abs(draws.var() - 2.0) <= 0.05

    @pytest.mark.parametrize("df", [4.0, 8.0, 30.0])
    def test_moment_checks(self, df):
        comp = TComponent(df=df, location=1.25, scale_sq=0.7)
        draws = sample_student_t(comp, 10**6, RNG.substream(int(df)))
        sd = math.sqrt(_t_variance(comp))
        assert abs(draws.mean() - comp.location) <= 4 * sd / 1000
        assert abs(draws.var() - _t_variance(comp)) <= 0.05 * _t_variance(comp)

    def test_location_scale_shift(self):
        base = TComponent(df=7, location=0.5, scale_sq=2.0)
        shifted = TComponent(df=7, location=0.5 + 3.25, scale_sq=2.0)
        stream = RNG.substream(3)
        np.testing.assert_allclose(
            sample_student_t(shifted, 1000, stream),
            sample_student_t(base, 1000, stream) + 3.25,
            rtol=1e-12,
        )

    def test_determinism_bit_for_bit(self):
        comp = TComponent(df=3, location=-1, scale_sq=4)
        a = sample_student_t(comp, 500, RNG.substream(4))
        b = sample_student_t(comp, 500, RNG.substream(4))
        assert np.array_equal(a, b)
        c = sample_student_t(comp, 500, RNG.substream(5))
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("df", [0.3, 1.0])
    def test_heavy_tails_draw_finite_values(self, df):
        # df <= 1: no mean, yet every draw is finite, of the count and shape asked
        draws = sample_student_t(TComponent(df=df, location=2, scale_sq=3), 10**4, RNG)
        assert draws.shape == (10**4,) and np.isfinite(draws).all()
        each = sample_student_t_each(df, np.zeros(5), np.ones(5), RNG.substream(1))
        assert each.shape == (5,) and np.isfinite(each).all()

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            TComponent(df=0, location=0, scale_sq=1)
        with pytest.raises(InvalidParameterError):
            TComponent(df=2, location=math.nan, scale_sq=1)
        with pytest.raises(InvalidParameterError):
            TComponent(df=2, location=0, scale_sq=-1)
        with pytest.raises(InvalidParameterError):
            sample_student_t(TComponent(df=2, location=0, scale_sq=1), 0, RNG)
        for location, scale_sq in (
            (np.zeros(3), np.ones(2)),  # shapes differ
            (np.array([0.0, math.nan]), np.ones(2)),
            (np.zeros(2), np.array([1.0, -0.5])),
        ):
            with pytest.raises(InvalidParameterError):
                TComponent(df=2, location=location, scale_sq=scale_sq)

    @pytest.mark.parametrize("scale", [1.0, 0.0], ids=["t", "point-mass"])
    def test_array_component_must_match_the_count(self, scale):
        scalar = TComponent(df=3, location=0.0, scale_sq=1.0)
        wide = TComponent(df=3, location=np.zeros(4), scale_sq=np.full(4, scale))
        for sample in (lambda: sample_student_t(wide, 5, RNG),
                       lambda: sample_convolution(scalar, wide, 5, RNG),
                       lambda: sample_convolution(wide, scalar, 5, RNG)):
            with pytest.raises(InvalidParameterError, match="shape"):
                sample()
        assert sample_student_t(wide, 4, RNG).shape == (4,)


class TestBatchStudentT:
    def test_matches_point_mass_rows(self):
        locs = np.array([1.0, 2.0, 3.0])
        draws = sample_student_t_each(5.0, locs, np.zeros(3), RNG.substream(6))
        np.testing.assert_array_equal(draws, locs)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameterError):
            sample_student_t_each(5.0, np.zeros(3), np.zeros(2), RNG)

    def test_moments(self):
        draws = sample_student_t_each(
            6.0, np.full(10**6, 2.0), np.full(10**6, 0.25), RNG.substream(7)
        )
        assert abs(draws.mean() - 2.0) <= 4 * math.sqrt(6 / 4 * 0.25) / 1000
        assert abs(draws.var() - 6 / 4 * 0.25) <= 0.05 * 6 / 4 * 0.25


class TestConvolution:
    def test_sum_of_point_masses(self):
        a = TComponent(df=5, location=1, scale_sq=0)
        b = TComponent(df=5, location=2, scale_sq=0)
        assert sample_convolution(a, b, 2, RNG).tolist() == [3, 3]

    def test_variance_adds(self):
        a = TComponent(df=4, location=0, scale_sq=1)
        draws = sample_convolution(a, a, 10**6, RNG.substream(8))
        assert abs(draws.var() - 4.0) <= 0.1

    def test_median_is_sum_of_locations(self):
        a = TComponent(df=10, location=1.5, scale_sq=1 / 3)
        b = TComponent(df=10, location=4.0, scale_sq=4 / 3)
        draws = sample_convolution(a, b, 10**6, RNG.substream(9))
        assert abs(sample_quantile(draws, 0.5) - 5.5) <= 0.01


class TestQuantile:
    def test_constant_samples(self):
        assert sample_quantile([5, 5, 5], 0.025) == 5

    def test_type7_interpolation(self):
        assert sample_quantile([1, 2, 3, 4], 0.5) == 2.5
        assert sample_quantile([0, 10], 0.975) == pytest.approx(9.75)

    def test_errors(self):
        with pytest.raises(EmptyInputError):
            sample_quantile([], 0.5)
        for q in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidParameterError):
                sample_quantile([1.0], q)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_and_bounded(self, samples, q1, q2):
        lo, hi = sorted([q1, q2])
        v_lo, v_hi = sample_quantile(samples, lo), sample_quantile(samples, hi)
        assert v_lo <= v_hi
        assert min(samples) <= v_lo and v_hi <= max(samples)

    def test_sequence_of_levels(self):
        samples = [4.0, 1.0, 3.0, 2.0]
        assert sample_quantile(samples, [0.5, 0.25, 0.5]) == [2.5, 1.75, 2.5]
        assert sample_quantile(samples, np.array([0.5])) == [2.5]
        with pytest.raises(InvalidParameterError):
            sample_quantile(samples, [0.5, 1.0])

    @given(
        size=st.integers(1, 2000),
        values=st.sampled_from(["normal", "ties", "signed_zeros"]),
        levels=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_numpy(self, size, values, levels, seed):
        gen = np.random.default_rng(seed)
        if values == "normal":
            samples = gen.normal(size=size)
        elif values == "ties":
            samples = gen.choice([-2.5, -0.0, 0.0, 1.0, 1e300, -1e-300], size=size)
        else:
            samples = gen.choice([-0.0, 0.0], size=size)
        expected = np.quantile(samples, levels)
        assert np.array(sample_quantile(samples, levels)).tobytes() == expected.tobytes()
        single = np.float64(sample_quantile(samples, levels[0]))
        assert single.tobytes() == np.float64(np.quantile(samples, levels[0])).tobytes()

    def test_grid_limits(self):
        samples = [3.0, 1.0, 2.0]
        assert sample_quantile(samples, 1e-9) == pytest.approx(1.0)
        assert sample_quantile(samples, 1 - 1e-9) == pytest.approx(3.0)


class TestRngStream:
    def test_substreams_differ(self):
        children = {RNG.substream(i).stream_id for i in range(64)}
        assert len(children) == 64

    def test_value_semantics(self):
        s = RngStream(7, 3)
        assert s == RngStream(7, 3)
        assert s.substream(2) == RngStream(7, 3).substream(2)
