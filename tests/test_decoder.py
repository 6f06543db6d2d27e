import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msl.data import PointSet
from msl.decoder import (
    DecoderParams,
    DecoderSpace,
    DecoderVariant,
    decode,
    decode_call_count,
    decode_careful,
    decode_careless,
    decoder_grid,
    reset_decode_call_count,
)
from msl.errors import ConfigError, VariantMismatchError

from oracles import careful_value_reference, careless_reference


def points(*pairs) -> PointSet:
    return PointSet(np.asarray(pairs, dtype=np.float64).reshape(len(pairs), 2))


class TestParams:
    def test_careless_carries_no_parameters(self):
        with pytest.raises(ConfigError):
            DecoderParams(variant=DecoderVariant.CARELESS, sigma=1.0)

    def test_careful_requires_radius_at_least_sigma(self):
        with pytest.raises(ConfigError):
            DecoderParams.careful(2.0, 1.0)

    def test_careful_sigma_and_radius_must_be_finite(self):
        for value in (math.nan, math.inf):
            with pytest.raises(ConfigError):
                DecoderParams.careful(value, value)

    def test_json_round_trip(self):
        for params in (DecoderParams.careless(), DecoderParams.careful(2.0, 6.0)):
            assert DecoderParams.from_json_dict(params.to_json_dict()) == params


class TestCareless:
    def test_empty_truth_gives_all_zero(self):
        out = decode_careless(PointSet.empty(), (5, 5))
        assert not out.values.any()

    def test_single_point_single_pixel(self):
        out = decode_careless(points((2.0, 2.0)), (5, 5))
        assert out.values[2, 2] == 1.0
        assert out.values.sum() == 1.0

    def test_coincident_points_overwrite(self):
        out = decode_careless(points((2.1, 2.1), (1.9, 1.9)), (5, 5))
        assert out.values.sum() == 1.0
        assert out.values[2, 2] == 1.0

    def test_round_half_up(self):
        out = decode_careless(points((1.5, 2.5)), (5, 5))
        assert out.values[3, 2] == 1.0

    def test_random_probes_match_reference(self):
        rng = np.random.default_rng(31)

        def coordinate(size: int) -> float:
            kind = int(rng.integers(5))
            if kind == 0:  # a tie: k + 0.5, the right or bottom edge's included
                return int(rng.integers(size)) + 0.5
            if kind == 1:  # just below a tie
                return float(np.nextafter(int(rng.integers(size)) + 0.5, -np.inf))
            if kind == 2:  # the last half pixel before the right or bottom edge
                return float(rng.uniform(size - 0.5, size))
            if kind == 3:
                return float(np.nextafter(size, 0.0))
            return float(rng.uniform(0.0, size))

        edges = ties = 0
        for _ in range(2000):
            width, height = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            pairs = [(coordinate(width), coordinate(height)) for _ in range(int(rng.integers(0, 5)))]
            out = decode_careless(points(*pairs), (width, height))
            assert out.values.tolist() == careless_reference(pairs, width, height), pairs
            edges += sum(x >= width - 0.5 or y >= height - 0.5 for x, y in pairs)
            ties += sum(x % 1 == 0.5 or y % 1 == 0.5 for x, y in pairs)
        assert edges > 500 and ties > 500


class TestCareful:
    def test_exact_one_at_integer_point(self):
        for sigma in (0.5, 1.0, 3.0):
            out = decode_careful(points((2.0, 2.0)), (5, 5), DecoderParams.careful(sigma, 3 * sigma))
            assert out.values[2, 2] == 1.0

    def test_neighbour_value_closed_form(self):
        out = decode_careful(points((2.0, 2.0)), (5, 5), DecoderParams.careful(1.0, 3.0))
        assert abs(out.values[2, 3] - math.exp(-0.5)) < 1e-12

    def test_two_points_combine_by_max_not_sum(self):
        out = decode_careful(points((1.0, 2.0), (3.0, 2.0)), (5, 5), DecoderParams.careful(1.0, 3.0))
        assert abs(out.values[2, 2] - math.exp(-0.5)) < 1e-12

    def test_variant_mismatch_rejected(self):
        with pytest.raises(VariantMismatchError):
            decode_careful(points((1.0, 1.0)), (4, 4), DecoderParams.careless())

    def test_truncation_beyond_radius(self):
        out = decode_careful(points((0.0, 0.0)), (9, 1), DecoderParams.careful(2.0, 3.0))
        assert out.values[0, 3] > 0.0
        assert out.values[0, 4] == 0.0

    def test_matches_per_point_max_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 5))
            pts = np.column_stack([rng.uniform(0, 8, n), rng.uniform(0, 6, n)])
            sigma = float(rng.uniform(0.5, 2.5))
            radius = float(rng.uniform(1.0, 2.5)) * sigma
            out = decode_careful(PointSet(pts), (8, 6), DecoderParams.careful(sigma, radius))
            for y in range(6):
                for x in range(8):
                    expected = max(
                        careful_value_reference(q, sigma, radius, (x, y)) for q in pts
                    )
                    assert abs(out.values[y, x] - expected) < 1e-12

    def test_monotone_decay_along_rays(self):
        out = decode_careful(points((8.0, 8.0)), (17, 17), DecoderParams.careful(2.0, 7.0))
        for dx, dy in ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1), (1, -1), (-1, 1)):
            ray = [out.values[8 + k * dy, 8 + k * dx] for k in range(8)]
            assert all(a >= b for a, b in zip(ray, ray[1:]))

    def test_careless_limit_at_tiny_sigma(self):
        truth = points((2.0, 3.0), (7.0, 1.0))
        careless = decode_careless(truth, (9, 6))
        careful = decode_careful(truth, (9, 6), DecoderParams.careful(1e-3, 2.0))
        np.testing.assert_allclose(careful.values, careless.values, atol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(
        xs=st.lists(st.floats(0, 9.99), min_size=0, max_size=4),
        sigma=st.floats(0.2, 4.0),
        multiplier=st.floats(1.0, 3.0),
    )
    def test_range_invariant(self, xs, sigma, multiplier):
        pts = PointSet(np.asarray([[x, x * 0.6] for x in xs]).reshape(len(xs), 2))
        careful = decode_careful(pts, (10, 10), DecoderParams.careful(sigma, multiplier * sigma))
        careless = decode_careless(pts, (10, 10))
        for out in (careful, careless):
            assert out.values.min() >= 0.0
            assert out.values.max() <= 1.0


class TestGrid:
    def test_single_sigma(self):
        space = decoder_grid([1.0], 3.0)
        assert len(space) == 1
        assert space.candidates[0] == DecoderParams.careful(1.0, 3.0)

    def test_radius_multiplier(self):
        space = decoder_grid([1.0, 2.0, 3.0], 3.0)
        assert [c.radius for c in space.candidates] == [3.0, 6.0, 9.0]

    def test_careless_prepended(self):
        space = decoder_grid([2.0], 3.0, include_careless=True)
        assert space.candidates == (DecoderParams.careless(), DecoderParams.careful(2.0, 6.0))

    def test_empty_sigmas_rejected(self):
        with pytest.raises(ConfigError):
            decoder_grid([], 3.0)

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ConfigError):
            decoder_grid([1.0, 1.0], 3.0)

    def test_space_requires_candidates(self):
        with pytest.raises(ConfigError):
            DecoderSpace(())


class TestInstrumentation:
    def test_counter_counts_both_variants(self):
        reset_decode_call_count()
        decode(points((1.0, 1.0)), (4, 4), DecoderParams.careless())
        decode(points((1.0, 1.0)), (4, 4), DecoderParams.careful(1.0, 3.0))
        assert decode_call_count() == 2
        reset_decode_call_count()
        assert decode_call_count() == 0
