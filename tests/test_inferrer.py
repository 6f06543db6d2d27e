import math
import sys
import threading

import numpy as np
import pytest

from msl.data import ImageLattice, generate_dataset, SynthConfig
from msl.decoder import DecoderParams, TargetMap, decode_careful
from msl.errors import ConfigError, DivergenceError, ShapeError
from msl.inferrer import (
    Architecture,
    InferrerParams,
    TrainConfig,
    gradient,
    infer,
    init_params,
    load_model,
    loss_i,
    predict_pixel,
    save_model,
    train,
)
from msl.seeds import derive_seed, make_rng

from oracles import fd_gradient, forward_reference, mse_reference


def zero_params(arch: Architecture) -> InferrerParams:
    return InferrerParams(
        w1=np.zeros((arch.hidden_units, arch.input_dim)),
        b1=np.zeros(arch.hidden_units),
        w2=np.zeros(arch.hidden_units),
        b2=0.0,
    )


def random_params(arch: Architecture, rng) -> InferrerParams:
    return InferrerParams(
        w1=rng.uniform(-1, 1, size=(arch.hidden_units, arch.input_dim)),
        b1=rng.uniform(-1, 1, size=arch.hidden_units),
        w2=rng.uniform(-1, 1, size=arch.hidden_units),
        b2=float(rng.uniform(-1, 1)),
    )


class TestInit:
    def test_same_seed_identical(self):
        arch = Architecture(context_radius=2, hidden_units=6)
        a = init_params(arch, 9)
        b = init_params(arch, 9)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_biases_zero_and_weights_bounded(self):
        arch = Architecture(context_radius=3, hidden_units=5)
        params = init_params(arch, 1)
        assert not params.b1.any()
        assert params.b2 == 0.0
        bound1 = math.sqrt(6.0 / (arch.input_dim + arch.hidden_units))
        bound2 = math.sqrt(6.0 / (arch.hidden_units + 1))
        assert np.all(np.abs(params.w1) < bound1)
        assert np.all(np.abs(params.w2) < bound2)

    def test_architecture_validation(self):
        with pytest.raises(ConfigError):
            Architecture(context_radius=-1, hidden_units=4)
        with pytest.raises(ConfigError):
            Architecture(context_radius=1, hidden_units=0)


class TestPredictPixel:
    def test_zero_params_zero_output(self):
        arch = Architecture(context_radius=1, hidden_units=4)
        assert predict_pixel(zero_params(arch), np.ones(9)) == 0.0

    def test_bias_only_output(self):
        arch = Architecture(context_radius=1, hidden_units=4)
        params = InferrerParams(
            w1=np.zeros((4, 9)), b1=np.zeros(4), w2=np.zeros(4), b2=0.7
        )
        assert predict_pixel(params, np.zeros(9)) == 0.7

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            arch = Architecture(
                context_radius=int(rng.integers(0, 3)), hidden_units=int(rng.integers(1, 8))
            )
            params = random_params(arch, rng)
            patch = rng.uniform(-1, 1, size=arch.input_dim)
            expected = forward_reference(params.w1, params.b1, params.w2, params.b2, patch)
            assert abs(predict_pixel(params, patch) - expected) < 1e-12

    def test_shape_mismatch_rejected(self):
        arch = Architecture(context_radius=1, hidden_units=4)
        with pytest.raises(ShapeError):
            predict_pixel(zero_params(arch), np.ones(8))


class TestInfer:
    def test_zero_params_zero_map(self):
        lattice = ImageLattice(np.random.default_rng(0).uniform(0, 1, size=(6, 7)))
        out = infer(lattice, zero_params(Architecture(context_radius=1, hidden_units=3)))
        assert out.shape == (6, 7)
        assert not out.any()

    def test_constant_bias_gives_constant_map(self):
        lattice = ImageLattice(np.random.default_rng(1).uniform(0, 1, size=(5, 5)))
        params = InferrerParams(w1=np.zeros((2, 9)), b1=np.zeros(2), w2=np.zeros(2), b2=0.3)
        out = infer(lattice, params)
        np.testing.assert_array_equal(out, np.full((5, 5), 0.3))

    def test_interior_pixel_matches_manual_patch(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, size=(8, 9))
        arch = Architecture(context_radius=2, hidden_units=5)
        params = random_params(arch, rng)
        out = infer(ImageLattice(values), params)
        patch = values[1:6, 2:7].ravel()  # centred at (x=4, y=3), fully interior
        assert abs(out[3, 4] - predict_pixel(params, patch)) < 1e-12

    def test_border_uses_reflect_padding(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=(4, 4))
        arch = Architecture(context_radius=1, hidden_units=3)
        params = random_params(arch, rng)
        out = infer(ImageLattice(values), params)
        padded = np.pad(values, 1, mode="reflect")
        patch = padded[0:3, 0:3].ravel()  # corner pixel (0, 0)
        assert abs(out[0, 0] - predict_pixel(params, patch)) < 1e-12


class TestLoss:
    def test_identical_maps(self):
        values = np.random.default_rng(0).uniform(0, 1, size=(4, 4))
        assert loss_i(values, values) == 0.0

    def test_constant_offset(self):
        a = np.zeros((4, 4))
        b = np.full((4, 4), 0.5)
        assert loss_i(a, b) == 0.25

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 2, size=(6, 5))
        b = rng.uniform(0, 1, size=(6, 5))
        assert abs(loss_i(a, b) - mse_reference(a, b)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss_i(np.zeros((3, 3)), np.zeros((3, 4)))


class TestGradient:
    def test_zero_everything_gives_zero_gradient(self):
        arch = Architecture(context_radius=1, hidden_units=3)
        g_w1, g_b1, g_w2, g_b2 = gradient(
            zero_params(arch), np.zeros((4, 9)), np.zeros(4)
        )
        assert not g_w1.any() and not g_b1.any() and not g_w2.any()
        assert g_b2 == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(25):
            arch = Architecture(
                context_radius=int(rng.integers(0, 3)), hidden_units=int(rng.integers(1, 6))
            )
            params = random_params(arch, rng)
            batch = int(rng.integers(1, 6))
            patches = rng.uniform(-1, 1, size=(batch, arch.input_dim))
            targets = rng.uniform(0, 1, size=batch)
            analytic = gradient(params, patches, targets)
            numeric = fd_gradient(
                params.w1, params.b1, params.w2, params.b2, patches, targets
            )
            for a, n in zip(analytic, numeric):
                err = np.max(
                    np.abs(np.asarray(a) - np.asarray(n))
                    / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(np.asarray(a, dtype=float), 1e-6)])
                )
                worst = max(worst, float(err))
        assert worst < 1e-4

    def test_duplicating_minibatch_leaves_gradient_unchanged(self):
        rng = np.random.default_rng(7)
        arch = Architecture(context_radius=1, hidden_units=4)
        params = random_params(arch, rng)
        patches = rng.uniform(-1, 1, size=(3, 9))
        targets = rng.uniform(0, 1, size=3)
        once = gradient(params, patches, targets)
        twice = gradient(params, np.vstack([patches, patches]), np.concatenate([targets, targets]))
        for a, b in zip(once, twice):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_empty_minibatch_rejected(self):
        arch = Architecture(context_radius=1, hidden_units=4)
        with pytest.raises(ShapeError):
            gradient(zero_params(arch), np.zeros((0, 9)), np.zeros(0))


def reflect(i: int, n: int) -> int:
    """numpy's "reflect" padding index for a pad narrower than the axis."""
    if i < 0:
        return -i
    if i >= n:
        return 2 * (n - 1) - i
    return i


def small_training_set(n=4, width=16, height=16, seed=11):
    cfg = SynthConfig(
        width=width,
        height=height,
        blob_count_min=1,
        blob_count_max=3,
        blob_amplitude=0.8,
        blob_radius=1.5,
        min_separation=4.0,
        noise_std=0.02,
        seed=seed,
    )
    ds = generate_dataset(cfg, n)
    params = DecoderParams.careful(1.5, 4.5)
    lattices = [s.lattice for s in ds.samples]
    targets = [decode_careful(s.truth, s.lattice.shape, params) for s in ds.samples]
    return lattices, targets


def reflect_minibatch(rng, lattices, targets, arch: Architecture, batch_pixels: int):
    """Draw one minibatch as train() does and gather it with explicit reflect indices."""
    height, width = lattices[0].values.shape
    sample_idx = rng.integers(0, len(lattices), size=batch_pixels)
    flat = rng.integers(0, height * width, size=batch_pixels)
    pixels = list(zip(sample_idx, *np.divmod(flat, width)))
    c, side = arch.context_radius, 2 * arch.context_radius + 1
    patches = np.array(
        [
            [
                lattices[s].values[reflect(y + dy - c, height), reflect(x + dx - c, width)]
                for dy in range(side)
                for dx in range(side)
            ]
            for s, y, x in pixels
        ]
    )
    batch_targets = np.array([targets[s].values[y, x] for s, y, x in pixels])
    return patches, batch_targets


def minibatch_mse_reference(params: InferrerParams, patches, batch_targets) -> float:
    errors = [
        forward_reference(params.w1, params.b1, params.w2, params.b2, patch) - target
        for patch, target in zip(patches, batch_targets)
    ]
    return sum(e * e for e in errors) / len(errors)


class TestTrain:
    def test_zero_learning_rate_returns_initial_params(self):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=1, hidden_units=4)
        cfg = TrainConfig(epochs=2, learning_rate=0.0, batch_pixels=64, seed=21)
        result = train(lattices, targets, arch, cfg)
        initial = init_params(arch, derive_seed(cfg.seed, 0))
        assert np.array_equal(result.params.w1, initial.w1)
        assert np.array_equal(result.params.b1, initial.b1)
        assert np.array_equal(result.params.w2, initial.w2)
        assert result.params.b2 == initial.b2

    def test_bit_identical_across_runs(self):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=2, hidden_units=6)
        cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_pixels=128, seed=22)
        a = train(lattices, targets, arch, cfg)
        b = train(lattices, targets, arch, cfg)
        # Thread switches every microsecond interleave the minibatch gather
        # with the step at many more points than the default 5 ms.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            c = train(lattices, targets, arch, cfg)
        finally:
            sys.setswitchinterval(interval)
        for other in (b, c):
            assert np.array_equal(a.params.w1, other.params.w1)
            assert np.array_equal(a.params.b1, other.params.b1)
            assert np.array_equal(a.params.w2, other.params.w2)
            assert a.params.b2 == other.params.b2
            assert np.array_equal(a.step_losses, other.step_losses)

    def test_constant_target_loss_decreases(self):
        lattices, _ = small_training_set(n=1)
        targets = [TargetMap(np.full(lattices[0].values.shape, 0.5))]
        arch = Architecture(context_radius=1, hidden_units=4)
        cfg = TrainConfig(epochs=200, learning_rate=0.01, batch_pixels=64, seed=23)
        result = train(lattices, targets, arch, cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_divergence_error_names_step(self):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=1, hidden_units=4)
        cfg = TrainConfig(epochs=5, learning_rate=1e8, batch_pixels=64, seed=24)
        with pytest.raises(DivergenceError, match=r"step \d+"):
            train(lattices, targets, arch, cfg)

    def test_trace_shape(self):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=1, hidden_units=4)
        cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_pixels=100, seed=25)
        result = train(lattices, targets, arch, cfg)
        total_pixels = sum(l.values.size for l in lattices)
        steps_per_epoch = math.ceil(total_pixels / cfg.batch_pixels)
        assert result.step_losses.shape == (3 * steps_per_epoch,)
        assert result.epoch_losses.shape == (3,)

    def test_one_step_applies_the_verified_gradient(self):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=2, hidden_units=5)
        height, width = lattices[0].values.shape
        total_pixels = len(lattices) * height * width
        cfg = TrainConfig(epochs=1, learning_rate=0.05, batch_pixels=total_pixels + 3, seed=27)
        result = train(lattices, targets, arch, cfg)
        assert result.step_losses.shape == (1,)

        rng = make_rng(derive_seed(cfg.seed, 1))
        patches, batch_targets = reflect_minibatch(rng, lattices, targets, arch, cfg.batch_pixels)
        init = init_params(arch, derive_seed(cfg.seed, 0))
        g_w1, g_b1, g_w2, g_b2 = gradient(init, patches, batch_targets)
        np.testing.assert_allclose(result.params.w1, init.w1 - cfg.learning_rate * g_w1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.params.b1, init.b1 - cfg.learning_rate * g_b1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.params.w2, init.w2 - cfg.learning_rate * g_w2, rtol=0, atol=1e-12)
        assert abs(result.params.b2 - (init.b2 - cfg.learning_rate * g_b2)) < 1e-12
        assert abs(result.step_losses[0] - minibatch_mse_reference(init, patches, batch_targets)) < 1e-12

    def test_steps_apply_the_verified_gradient_in_draw_order(self):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=2, hidden_units=5)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_pixels=300, seed=28)
        result = train(lattices, targets, arch, cfg)
        n_steps = 2 * math.ceil(sum(l.values.size for l in lattices) / cfg.batch_pixels)
        assert result.step_losses.shape == (n_steps,)

        # Each step draws its minibatch from the one batch stream, in step order.
        rng = make_rng(derive_seed(cfg.seed, 1))
        params = init_params(arch, derive_seed(cfg.seed, 0))
        for step in range(n_steps):
            patches, batch_targets = reflect_minibatch(rng, lattices, targets, arch, cfg.batch_pixels)
            loss = minibatch_mse_reference(params, patches, batch_targets)
            assert abs(result.step_losses[step] - loss) < 1e-12, step
            g_w1, g_b1, g_w2, g_b2 = gradient(params, patches, batch_targets)
            params = InferrerParams(
                w1=params.w1 - cfg.learning_rate * g_w1,
                b1=params.b1 - cfg.learning_rate * g_b1,
                w2=params.w2 - cfg.learning_rate * g_w2,
                b2=params.b2 - cfg.learning_rate * g_b2,
            )
        np.testing.assert_allclose(result.params.w1, params.w1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.params.b1, params.b1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.params.w2, params.w2, rtol=0, atol=1e-12)
        assert abs(result.params.b2 - params.b2) < 1e-12

    def test_no_thread_outlives_train(self):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=1, hidden_units=4)
        before = threading.active_count()
        train(lattices, targets, arch, TrainConfig(epochs=2, learning_rate=0.01, batch_pixels=64, seed=26))
        assert threading.active_count() == before
        with pytest.raises(DivergenceError):
            train(lattices, targets, arch, TrainConfig(epochs=5, learning_rate=1e8, batch_pixels=64, seed=24))
        assert threading.active_count() == before

    def test_mismatched_shapes_rejected(self):
        lattices, targets = small_training_set()
        with pytest.raises(ShapeError):
            train(lattices, targets[:-1], Architecture(1, 4), TrainConfig(1, 0.01, 64, 1))


class TestModelFile:
    def test_round_trip_is_float32_exact(self, tmp_path):
        arch = Architecture(context_radius=2, hidden_units=5)
        cfg = TrainConfig(epochs=2, learning_rate=0.01, batch_pixels=64, seed=31)
        params = random_params(arch, np.random.default_rng(8))
        save_model(tmp_path, arch, cfg, params)
        arch2, cfg2, loaded = load_model(tmp_path)
        assert arch2 == arch and cfg2 == cfg
        np.testing.assert_array_equal(loaded.w1, params.w1.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(loaded.w2, params.w2.astype(np.float32).astype(np.float64))
        assert loaded.b2 == np.float32(params.b2)

    def test_dump_header_counts_parameters(self, tmp_path):
        from msl.storage import read_msl1
        import struct

        arch = Architecture(context_radius=1, hidden_units=3)
        cfg = TrainConfig(epochs=1, learning_rate=0.01, batch_pixels=64, seed=32)
        params = random_params(arch, np.random.default_rng(9))
        save_model(tmp_path, arch, cfg, params)
        raw = (tmp_path / "model.msl1").read_bytes()
        width, height = struct.unpack_from("<II", raw, 4)
        assert width == params.count and height == 1
        assert read_msl1(tmp_path / "model.msl1").size == params.count
