import math

import numpy as np
import pytest

from msl.data import (
    Dataset,
    ImageLattice,
    PointSet,
    Sample,
    SynthConfig,
    generate_dataset,
    generate_sample,
    grid_values,
    split,
)
from msl.encoder import EncoderParams, encode, encoder_grid, fit_encoder
from msl.errors import ConfigError, PlacementError, ShapeError
from msl.inferrer import Architecture, infer, init_params
from msl.seeds import make_rng

from oracles import blob_field_reference


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

    def test_exact_sixths_do_not_floor_short(self):
        ds = Dataset(tuple(generate_dataset(base_config(), 12).samples) * 25)  # 300 samples
        train, val, test = split(ds, (2 / 3, 1 / 6, 1 / 6), 0)
        assert (train.n, val.n, test.n) == (200, 50, 50)
