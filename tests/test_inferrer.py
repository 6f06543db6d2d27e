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
    _step,
    gradient,
    infer,
    init_params,
    load_model,
    save_model,
    train,
)
from msl import inferrer
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
    """One pixel's output, read from `infer` at the centre of a patch-sized lattice."""

    def test_zero_params_zero_output(self):
        arch = Architecture(context_radius=1, hidden_units=4)
        assert infer(np.ones((3, 3)), zero_params(arch))[1, 1] == 0.0

    def test_bias_only_output(self):
        params = InferrerParams(
            w1=np.zeros((4, 9)), b1=np.zeros(4), w2=np.zeros(4), b2=0.7
        )
        assert infer(np.zeros((3, 3)), params)[1, 1] == 0.7

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            arch = Architecture(
                context_radius=int(rng.integers(0, 3)), hidden_units=int(rng.integers(1, 8))
            )
            params = random_params(arch, rng)
            patch = rng.uniform(-1, 1, size=arch.input_dim)
            side, c = 2 * arch.context_radius + 1, arch.context_radius
            expected = forward_reference(params.w1, params.b1, params.w2, params.b2, patch)
            assert abs(infer(patch.reshape(side, side), params)[c, c] - expected) < 1e-12

    def test_shape_mismatch_rejected(self):
        # 8 inputs per hidden unit is no square patch.
        params = InferrerParams(w1=np.zeros((4, 8)), b1=np.zeros(4), w2=np.zeros(4), b2=0.0)
        with pytest.raises(ShapeError):
            infer(np.ones((3, 3)), params)


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
        expected = forward_reference(params.w1, params.b1, params.w2, params.b2, patch)
        assert abs(out[3, 4] - expected) < 1e-12

    def test_border_uses_reflect_padding(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 1, size=(4, 4))
        arch = Architecture(context_radius=1, hidden_units=3)
        params = random_params(arch, rng)
        out = infer(ImageLattice(values), params)
        padded = np.pad(values, 1, mode="reflect")
        patch = padded[0:3, 0:3].ravel()  # corner pixel (0, 0)
        expected = forward_reference(params.w1, params.b1, params.w2, params.b2, patch)
        assert abs(out[0, 0] - expected) < 1e-12


def map_loss(params: InferrerParams, values, target) -> float:
    """The training loss (`_step`'s) over every pixel of one lattice."""
    c = int(round(math.sqrt(params.input_dim))) // 2
    height, width = values.shape
    patches = np.array(
        [
            [values[reflect(y + dy, height), reflect(x + dx, width)] for dy in range(-c, c + 1) for dx in range(-c, c + 1)]
            for y in range(height)
            for x in range(width)
        ]
    )
    loss, _ = _step(params.w1, params.b1, params.w2, params.b2, patches, np.asarray(target).ravel())
    return loss


class TestLoss:
    """The training loss is the mean squared error between the predicted
    map and the target map."""

    def test_identical_maps(self):
        values = np.random.default_rng(0).uniform(0, 1, size=(4, 4))
        arch = Architecture(context_radius=1, hidden_units=3)
        assert map_loss(zero_params(arch), values, np.zeros((4, 4))) == 0.0
        constant = InferrerParams(w1=np.zeros((3, 9)), b1=np.zeros(3), w2=np.zeros(3), b2=0.25)
        assert map_loss(constant, values, np.full((4, 4), 0.25)) == 0.0

    def test_constant_offset(self):
        values = np.random.default_rng(1).uniform(0, 1, size=(4, 4))
        arch = Architecture(context_radius=1, hidden_units=3)
        assert map_loss(zero_params(arch), values, np.full((4, 4), 0.5)) == 0.25

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0, 1, size=(6, 5))
        arch = Architecture(context_radius=1, hidden_units=4)
        params = random_params(arch, rng)
        target = rng.uniform(0, 1, size=(6, 5))
        predicted = infer(ImageLattice(values), params)
        assert abs(map_loss(params, values, target) - mse_reference(predicted, target)) < 1e-12

    def test_shape_mismatch(self):
        lattice = ImageLattice(np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            train([lattice], [TargetMap(np.zeros((3, 4)))], Architecture(1, 4), TrainConfig(1, 0.01, 64, 1))
        with pytest.raises(ShapeError):
            gradient(zero_params(Architecture(1, 4)), np.zeros((3, 9)), np.zeros(4))


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


def float32_loss_tolerance(arch: Architecture, batch_pixels: int, loss: float) -> float:
    """How far a float32 step loss may lie from the float64 loss of the
    same float32 inputs and weights.

    Each float32 operation errs by at most u = 2**-24, relative. A
    prediction takes about D + H + 3 roundings (dot products of D and H
    terms, tanh and two bias adds); squaring the difference to the target
    doubles that, and the mean's pairwise sum adds about log2(batch).
    The factor 4 covers cancellation in prediction - target, whose size
    the loss itself does not show.
    """
    roundings = 2 * (arch.input_dim + arch.hidden_units + 3) + math.ceil(math.log2(batch_pixels))
    return 4 * roundings * 2.0**-24 * loss


def float32_update(params: InferrerParams, learning_rate: float, grads) -> InferrerParams:
    """One SGD update with float32 parameters, learning rate and gradients."""
    lr = np.float32(learning_rate)
    g_w1, g_b1, g_w2, g_b2 = grads
    return InferrerParams(
        w1=params.w1 - lr * g_w1,
        b1=params.b1 - lr * g_b1,
        w2=params.w2 - lr * g_w2,
        b2=params.b2 - lr * g_b2,
    )


def assert_params_equal(a: InferrerParams, b: InferrerParams) -> None:
    """Same dtype and the same bits, parameter by parameter."""
    for x, y in ((a.w1, b.w1), (a.b1, b.b1), (a.w2, b.w2)):
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)
    assert type(a.b2) is type(b.b2) and a.b2 == b.b2


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

        # train() rounds lattices and targets to float32 and steps in float32.
        rng = make_rng(derive_seed(cfg.seed, 1))
        patches, batch_targets = reflect_minibatch(rng, lattices, targets, arch, cfg.batch_pixels)
        patches, batch_targets = patches.astype(np.float32), batch_targets.astype(np.float32)
        init = init_params(arch, derive_seed(cfg.seed, 0))
        expected = float32_update(init, cfg.learning_rate, gradient(init, patches, batch_targets))
        assert_params_equal(result.params, expected)
        loss = minibatch_mse_reference(init, patches, batch_targets)
        assert abs(result.step_losses[0] - loss) <= float32_loss_tolerance(arch, cfg.batch_pixels, loss)

    def test_steps_apply_the_verified_gradient_in_draw_order(self):
        self.assert_steps_replay(batch_pixels=300)

    def test_draw_order_holds_across_prefetch_hand_offs(self, monkeypatch):
        # 2 epochs of 11 steps of 100 float32 patches of 25 values and their
        # targets: hand-offs of 8, 8 and 6 minibatches.
        monkeypatch.setattr(inferrer, "_PREFETCH_BYTES", 8 * 100 * 26 * 4 + 1)
        self.assert_steps_replay(batch_pixels=100)

    @staticmethod
    def assert_steps_replay(batch_pixels):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=2, hidden_units=5)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_pixels=batch_pixels, seed=28)
        result = train(lattices, targets, arch, cfg)
        n_steps = 2 * math.ceil(sum(l.values.size for l in lattices) / cfg.batch_pixels)
        assert result.step_losses.shape == (n_steps,)

        # Each step draws its minibatch from the one batch stream, in step order.
        rng = make_rng(derive_seed(cfg.seed, 1))
        params = init_params(arch, derive_seed(cfg.seed, 0))
        for step in range(n_steps):
            patches, batch_targets = reflect_minibatch(rng, lattices, targets, arch, cfg.batch_pixels)
            patches, batch_targets = patches.astype(np.float32), batch_targets.astype(np.float32)
            loss = minibatch_mse_reference(params, patches, batch_targets)
            tolerance = float32_loss_tolerance(arch, cfg.batch_pixels, loss)
            assert abs(result.step_losses[step] - loss) <= tolerance, step
            params = float32_update(params, cfg.learning_rate, gradient(params, patches, batch_targets))
        assert_params_equal(result.params, params)

    def test_trains_in_float32_and_infers_in_float64(self):
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=1, hidden_units=4)
        result = train(lattices, targets, arch, TrainConfig(epochs=1, learning_rate=0.01, batch_pixels=64, seed=29))
        params = result.params
        assert params.w1.dtype == params.b1.dtype == params.w2.dtype == np.float32
        assert type(params.b2) is np.float32
        assert init_params(arch, 1).w1.dtype == np.float32
        assert result.step_losses.dtype == np.float64
        # infer upcasts the float32 weights and keeps the lattice as given.
        wide = InferrerParams(
            w1=params.w1.astype(np.float64),
            b1=params.b1.astype(np.float64),
            w2=params.w2.astype(np.float64),
            b2=float(params.b2),
        )
        out = infer(lattices[0], params)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, infer(lattices[0], wide))

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
