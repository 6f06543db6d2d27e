import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msl.data
from msl.data import (
    PLACEMENT_ATTEMPTS,
    Dataset,
    ImageLattice,
    PointSet,
    Sample,
    SynthConfig,
    _place_centres,
    generate_dataset,
    generate_sample,
    grid_values,
    split,
    split_sizes,
    stamp_gaussians,
)
from msl.encoder import EncoderParams, encode, encoder_grid, fit_encoder
from msl.errors import ConfigError, PlacementError, ShapeError
from msl.inferrer import Architecture, infer, init_params
from msl.seeds import make_rng

from oracles import blob_field_reference, place_centres_reference, stamp_gaussians_reference


def base_config(**overrides) -> SynthConfig:
    kwargs = dict(
        width=32,
        height=32,
        blob_count_min=2,
        blob_count_max=5,
        blob_amplitude=0.9,
        blob_radius=2.0,
        min_separation=6.0,
        noise_std=0.05,
        seed=1234,
    )
    kwargs.update(overrides)
    return SynthConfig(**kwargs)


class TestTypes:
    def test_lattice_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ImageLattice(np.full((4, 4), 1.5))

    def test_lattice_rejects_non_finite(self):
        values = np.zeros((4, 4))
        values[1, 2] = np.nan
        with pytest.raises(ValueError):
            ImageLattice(values)

    def test_lattice_shape_is_width_height(self):
        lattice = ImageLattice(np.zeros((3, 5)))
        assert lattice.width == 5 and lattice.height == 3
        assert lattice.shape == (5, 3)

    def test_pointset_empty_allowed(self):
        assert len(PointSet.empty()) == 0

    def test_sample_rejects_out_of_bounds_truth(self):
        with pytest.raises(ValueError):
            Sample(lattice=ImageLattice(np.zeros((4, 4))), truth=PointSet(np.array([[5.0, 1.0]])))


# Every reader of a lattice or map checks its shape through grid_values.
GRID_READERS = {
    "grid_values": grid_values,
    "ImageLattice": ImageLattice,
    "infer": lambda grid: infer(grid, init_params(Architecture(context_radius=1, hidden_units=3), 0)),
    "encode": lambda grid: encode(grid, EncoderParams(threshold=0.5, min_separation=2.0)),
    "fit_encoder": lambda grid: fit_encoder([grid], [PointSet.empty()], encoder_grid([0.5], [2.0]), 2.0),
}


@pytest.mark.parametrize("read", GRID_READERS.values(), ids=GRID_READERS.keys())
@pytest.mark.parametrize("bad", [np.ones(5), np.ones((2, 3, 3)), np.ones((0, 4))], ids=["1-D", "3-D", "empty"])
def test_a_grid_that_is_not_non_empty_2d_is_a_shape_error(read, bad):
    with pytest.raises(ShapeError, match="2-D"):
        read(bad)


class TestSynthConfig:
    def test_count_ordering_enforced(self):
        with pytest.raises(ConfigError):
            base_config(blob_count_min=5, blob_count_max=2)

    def test_separation_must_fit_lattice(self):
        with pytest.raises(ConfigError):
            base_config(min_separation=40.0)

    def test_amplitude_range(self):
        with pytest.raises(ConfigError):
            base_config(blob_amplitude=1.5)

    @pytest.mark.parametrize("knob", ["blob_amplitude", "blob_radius", "min_separation", "noise_std"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_float_is_a_config_error(self, knob, value):
        with pytest.raises(ConfigError, match=knob):
            base_config(**{knob: value})


def _ulps(value: float, steps: int) -> float:
    """`value` moved `steps` representable doubles up (or down, if negative)."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


@st.composite
def stamp_cases(draw):
    """A field, a batch size and the kernel's arguments with 0, 1, 40 or any
    count up to 40 of centres: anywhere in and around the field, on or next
    to its borders, or at most two ulps from k + cutoff or k - cutoff for an
    integer k."""
    width = draw(st.integers(1, 20))
    height = draw(st.integers(1, 20))
    cutoff = draw(st.floats(0.0, 0.99) | st.floats(1.0, 12.0))
    sigma = draw(st.floats(0.25, 6.0))
    amplitude = draw(st.floats(0.01, 1.0))
    count = draw(st.sampled_from([0, 1, 40]) | st.integers(0, 40))

    def coordinate(limit: int):
        anywhere = st.floats(-cutoff - 1.0, limit + cutoff + 1.0)
        border = st.sampled_from([0.0, _ulps(0.0, 1), limit - 1.0, _ulps(float(limit), -1), limit / 2.0])
        near_integer = st.builds(
            lambda k, side, steps: _ulps(k + side * cutoff, steps),
            st.integers(-1, limit + 1),
            st.sampled_from([-1.0, 1.0]),
            st.integers(-2, 2),
        )
        return anywhere | border | near_integer

    centres = draw(st.lists(st.tuples(coordinate(width), coordinate(height)), min_size=count, max_size=count))
    if draw(st.booleans()):
        field = np.zeros((height, width))
    else:
        field = np.random.default_rng(draw(st.integers(0, 2**32))).random((height, width))
    batch = draw(st.sampled_from([1, 37, msl.data._STAMP_BATCH_ENTRIES]))
    kernel = {
        "centres": np.array(centres, dtype=np.float64).reshape(-1, 2),
        "sigma": sigma,
        "cutoff": cutoff,
        "amplitude": amplitude,
        "combine": draw(st.sampled_from([np.add, np.maximum])),
    }
    return field, batch, kernel


@settings(max_examples=200, deadline=None)
@given(stamp_cases())
def test_stamp_gaussians_matches_the_per_centre_loop_bit_for_bit(case):
    field, batch, kernel = case
    want = field.copy()
    stamp_gaussians_reference(want, **kernel)
    got = field.copy()
    with mock.patch.object(msl.data, "_STAMP_BATCH_ENTRIES", batch):
        stamp_gaussians(got, **kernel)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 48),
    height=st.integers(1, 48),
    separation=st.floats(0.01, 0.99),
    count=st.integers(0, 30),
    seed=st.integers(0, 2**64 - 1),
    attempts=st.sampled_from([1, 100, PLACEMENT_ATTEMPTS]),
)
def test_place_centres_draws_the_uniform_stream_and_decides_as_numpy(
    width, height, separation, count, seed, attempts
):
    cfg = base_config(width=width, height=height, min_separation=separation * min(width, height))
    ours, reference = make_rng(seed), make_rng(seed)
    with mock.patch.object(msl.data, "PLACEMENT_ATTEMPTS", attempts):
        try:
            want = place_centres_reference(cfg, count, reference, attempts)
        except RuntimeError as failure:
            with pytest.raises(PlacementError) as raised:
                _place_centres(cfg, count, ours)
            assert str(raised.value) == str(failure)
        else:
            got = _place_centres(cfg, count, ours)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
    # The noise drawn after the centres comes from the same generator state.
    assert ours.bit_generator.state == reference.bit_generator.state


class TestGenerateSample:
    def test_zero_blobs_gives_empty_truth_and_noise_only(self):
        cfg = base_config(blob_count_min=0, blob_count_max=0, noise_std=0.02)
        sample = generate_sample(cfg, make_rng(7))
        assert len(sample.truth) == 0
        assert sample.lattice.values.min() >= 0.0
        assert sample.lattice.values.max() <= 1.0
        # Noise-only lattice: nothing should come close to blob amplitude.
        assert sample.lattice.values.max() < 0.5

    def test_identical_seed_gives_bit_identical_sample(self):
        cfg = base_config()
        a = generate_sample(cfg, make_rng(99))
        b = generate_sample(cfg, make_rng(99))
        assert np.array_equal(a.lattice.values, b.lattice.values)
        assert np.array_equal(a.truth.points, b.truth.points)

    def test_noise_free_render_matches_blob_oracle(self):
        # Close, wide blobs overlap, so sums above 1 exercise the clip.
        cfg = base_config(
            width=20,
            height=16,
            blob_count_min=3,
            blob_count_max=6,
            blob_radius=3.0,
            min_separation=2.5,
            noise_std=0.0,
        )
        clipped = False
        for seed in range(8):
            sample = generate_sample(cfg, make_rng(seed))
            expected = np.array(
                blob_field_reference(sample.truth.points, cfg.width, cfg.height, cfg.blob_amplitude, cfg.blob_radius)
            )
            np.testing.assert_allclose(sample.lattice.values, expected, rtol=0.0, atol=1e-12)
            clipped |= bool((expected == 1.0).any())
        assert clipped

    def test_seven_blobs_are_strict_local_maxima(self):
        # Derived check: noise-free render, exhaustive strict-maxima scan
        # at each truth point's nearest pixel.
        cfg = base_config(
            width=48,
            height=48,
            blob_count_min=7,
            blob_count_max=7,
            min_separation=8.0,
            blob_amplitude=0.8,
            noise_std=0.0,
        )
        sample = generate_sample(cfg, make_rng(5))
        assert len(sample.truth) == 7
        values = sample.lattice.values
        for x, y in sample.truth.points:
            px = min(int(math.floor(x + 0.5)), cfg.width - 1)
            py = min(int(math.floor(y + 0.5)), cfg.height - 1)
            centre = values[py, px]
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dx == 0 and dy == 0:
                        continue
                    ny, nx = py + dy, px + dx
                    if 0 <= ny < cfg.height and 0 <= nx < cfg.width:
                        assert centre > values[ny, nx]

    def test_separation_invariant(self):
        cfg = base_config(blob_count_min=5, blob_count_max=5)
        for seed in range(10):
            sample = generate_sample(cfg, make_rng(seed))
            pts = sample.truth.points
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert np.hypot(*(pts[i] - pts[j])) >= cfg.min_separation

    def test_placement_failure_raises(self):
        cfg = base_config(width=10, height=10, min_separation=9.0, blob_count_min=5, blob_count_max=5)
        with pytest.raises(PlacementError):
            generate_sample(cfg, make_rng(0))


class TestGenerateDataset:
    def test_single_sample(self):
        ds = generate_dataset(base_config(), 1)
        assert ds.n == 1

    def test_determinism_across_runs(self):
        cfg = base_config()
        a = generate_dataset(cfg, 5)
        b = generate_dataset(cfg, 5)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.lattice.values, sb.lattice.values)
            assert np.array_equal(sa.truth.points, sb.truth.points)

    def test_mean_blob_count_within_range(self):
        cfg = base_config(
            width=64, height=64, blob_count_min=5, blob_count_max=12, min_separation=6.0
        )
        ds = generate_dataset(cfg, 100)
        counts = [len(s.truth) for s in ds.samples]
        assert all(5 <= c <= 12 for c in counts)
        assert 5.0 <= float(np.mean(counts)) <= 12.0

    def test_size_must_be_positive(self):
        with pytest.raises(ConfigError):
            generate_dataset(base_config(), 0)


class TestSplit:
    def test_floor_allocation_with_remainder_to_train(self):
        ds = generate_dataset(base_config(), 10)
        train, val, test = split(ds, (0.8, 0.1, 0.1), 3)
        assert (train.n, val.n, test.n) == (8, 1, 1)

    def test_partition_property(self):
        ds = generate_dataset(base_config(), 12)
        train, val, test = split(ds, (0.5, 0.25, 0.25), 3)
        ids = sorted(id(s) for part in (train, val, test) for s in part.samples)
        assert ids == sorted(id(s) for s in ds.samples)

    def test_same_seed_identical_partition(self):
        ds = generate_dataset(base_config(), 12)
        a = split(ds, (0.5, 0.25, 0.25), 11)
        b = split(ds, (0.5, 0.25, 0.25), 11)
        for part_a, part_b in zip(a, b):
            assert [id(s) for s in part_a.samples] == [id(s) for s in part_b.samples]

    def test_fraction_validation(self):
        ds = generate_dataset(base_config(), 10)
        with pytest.raises(ConfigError):
            split(ds, (0.7, 0.1, 0.1), 3)
        with pytest.raises(ConfigError):
            split(ds, (0.9, 0.05, 0.05), 3)  # val/test floor to zero

    @pytest.mark.parametrize("fractions", [(0.8, math.nan, 0.1), (math.nan, 0.1, 0.1), (0.8, 0.1, math.inf)])
    def test_non_finite_fraction_is_a_config_error(self, fractions):
        with pytest.raises(ConfigError, match="split fractions"):
            split_sizes(100, fractions)

    def test_exact_sixths_do_not_floor_short(self):
        ds = Dataset(tuple(generate_dataset(base_config(), 12).samples) * 25)  # 300 samples
        train, val, test = split(ds, (2 / 3, 1 / 6, 1 / 6), 0)
        assert (train.n, val.n, test.n) == (200, 50, 50)
