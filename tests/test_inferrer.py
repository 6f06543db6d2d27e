import math
import sys
import threading
import time
import weakref
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from helpers import run_bounded
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

    @pytest.mark.parametrize("learning_rate", [-0.01, math.nan, math.inf])
    def test_negative_or_non_finite_learning_rate_is_a_config_error(self, learning_rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(epochs=1, learning_rate=learning_rate, batch_pixels=64, seed=1)


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


def lattices_of(values: np.ndarray) -> list[np.ndarray]:
    """The lattices of one `_predict` call: the lattice, or each of a stack's."""
    return list(values.reshape((-1,) + values.shape[-2:]))


class TestInferMaps:
    @staticmethod
    def lattices(n, rng):
        # Shapes differ from lattice to lattice, so that a map out of order
        # could not pass for the right one.
        return [ImageLattice(rng.uniform(0, 1, size=(5 + k, 7 + 2 * k))) for k in range(n)]

    @staticmethod
    def use_layout(monkeypatch, layout, n, rng):
        """n lattices cut as `layout` says: "single", one lattice of its own
        shape a piece, or "stacked", lattices of one 6x8 shape in pieces of
        four, each two stacks of two. Returns the lattices."""
        if layout == "single":
            monkeypatch.setattr(inferrer, "_PIECE_PIXELS", 1)
            return TestInferMaps.lattices(n, rng)
        monkeypatch.setattr(inferrer, "_PIECE_PIXELS", 4 * 48)
        monkeypatch.setattr(inferrer, "_STACK_PIXELS", 2 * 48)
        return [ImageLattice(rng.uniform(0, 1, size=(6, 8))) for _ in range(n)]

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_infer_in_input_order(self, n, dtype):
        rng = np.random.default_rng(40 + n)
        wide = random_params(Architecture(context_radius=2, hidden_units=6), rng)
        params = InferrerParams(w1=wide.w1.astype(dtype), b1=wide.b1.astype(dtype), w2=wide.w2.astype(dtype), b2=wide.b2)
        lattices = self.lattices(n, rng)
        for given in (lattices, [l.values.tolist() for l in lattices]):
            maps = inferrer.infer_maps(given, params)
            expected = [infer(l, params) for l in given]
            assert len(maps) == n
            for got, want in zip(maps, expected):
                assert got.dtype == want.dtype == np.float64
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_bad_lattice_raises_before_any_thread_starts(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a worker thread was started")

        monkeypatch.setattr(inferrer, "ThreadPoolExecutor", no_thread)
        rng = np.random.default_rng(44)
        params = random_params(Architecture(context_radius=1, hidden_units=3), rng)
        good = [l.values for l in self.lattices(4, rng)]
        for bad in (np.ones(5), np.ones((2, 3, 3)), np.ones((0, 4))):
            with pytest.raises(ShapeError, match="2-D"):
                inferrer.infer_maps(good + [bad], params)
        not_square = InferrerParams(w1=np.zeros((4, 8)), b1=np.zeros(4), w2=np.zeros(4), b2=0.0)
        with pytest.raises(ShapeError, match="square"):
            inferrer.infer_maps(good, not_square)

    def test_no_thread_outlives_infer_maps(self, monkeypatch):
        rng = np.random.default_rng(45)
        params = random_params(Architecture(context_radius=1, hidden_units=3), rng)
        lattices = self.lattices(6, rng)

        def body():
            before = threading.active_count()
            # One lattice at the default piece size is one piece, which the
            # worker is started for too.
            inferrer.infer_maps(lattices[:1], params)
            assert threading.active_count() == before
            # One lattice a piece, so that the worker thread takes part.
            monkeypatch.setattr(inferrer, "_PIECE_PIXELS", 1)
            inferrer.infer_maps(lattices, params)
            assert threading.active_count() == before
            with pytest.raises(ShapeError):
                inferrer.infer_maps(lattices + [np.ones(3)], params)
            assert threading.active_count() == before

            def failing_then(m):
                raise ValueError("then failed")

            with pytest.raises(ValueError, match="then failed"):
                inferrer.infer_maps(lattices, params, then=failing_then)
            assert threading.active_count() == before

            # A failure on either thread reaches the caller once the worker
            # has exited, from a lattice alone or from a stack.
            predict = inferrer._predict

            def failing(values, c, weights, ws):
                if any(v.tobytes() == last.tobytes() for v in lattices_of(values)):
                    raise MemoryError("out of memory on the last lattice")
                return predict(values, c, weights, ws)

            monkeypatch.setattr(inferrer, "_predict", failing)
            for layout in ("single", "stacked"):
                given = self.use_layout(monkeypatch, layout, 12, rng)
                last = given[-1].values
                with pytest.raises(MemoryError, match="last lattice"):
                    inferrer.infer_maps(given, params)
                assert threading.active_count() == before

        run_bounded(body)

    @pytest.mark.parametrize("layout", ["single", "stacked"])
    def test_worker_failure_on_its_first_piece_reaches_the_caller(self, monkeypatch, layout):
        rng = np.random.default_rng(46)
        params = random_params(Architecture(context_radius=1, hidden_units=3), rng)
        lattices = self.use_layout(monkeypatch, layout, 12, rng)
        predict = inferrer._predict
        worker_failed = threading.Event()

        def body():
            caller = threading.current_thread()

            def failing(values, c, weights, ws):
                if threading.current_thread() is caller:
                    # Hold the caller's first piece until the worker has
                    # failed on one of its own.
                    worker_failed.wait(5.0)
                    return predict(values, c, weights, ws)
                worker_failed.set()
                raise MemoryError("out of memory on the worker's first piece")

            monkeypatch.setattr(inferrer, "_predict", failing)
            before = threading.active_count()
            with pytest.raises(MemoryError, match="worker's first piece"):
                inferrer.infer_maps(lattices, params, then=lambda m: m.sum())
            assert worker_failed.is_set()
            assert threading.active_count() == before

        run_bounded(body)

    @pytest.mark.parametrize("layout", ["single", "stacked"])
    def test_caller_failure_stops_the_worker(self, monkeypatch, layout):
        # `then` fails on the first map while every `_predict` call takes
        # 5 ms. The worker starts no further piece after that, so a handful
        # of the 40 pieces are started (3 to 5 in 40 tries with one lattice
        # a piece), not all 40: fewer than a quarter of the calls.
        rng = np.random.default_rng(50)
        params = random_params(Architecture(context_radius=1, hidden_units=3), rng)
        lattices = self.use_layout(monkeypatch, layout, 40 if layout == "single" else 160, rng)
        calls = len(lattices) if layout == "single" else len(lattices) // 2
        predict = inferrer._predict
        started = []

        def slow(values, c, weights, ws):
            started.append(values.shape)
            time.sleep(0.005)
            return predict(values, c, weights, ws)

        def failing_then(m):
            raise ValueError("then failed")

        def body():
            with pytest.raises(ValueError, match="then failed"):
                inferrer.infer_maps(lattices, params, then=failing_then)

        monkeypatch.setattr(inferrer, "_predict", slow)
        run_bounded(body)
        assert len(started) < calls / 4

    @pytest.mark.parametrize("switch_interval", [None, 1e-6])
    @pytest.mark.parametrize("layout", ["single", "stacked"])
    def test_every_lattice_is_inferred_exactly_once(self, monkeypatch, layout, switch_interval):
        # Small pieces and a slow worker, so that the caller claims several
        # pieces ahead of the worker while it waits. A claimed piece's
        # future is cancelled, and cancelling it again succeeds again: no
        # piece may run twice, and no lattice be inferred twice or skipped
        # in a stack.
        rng = np.random.default_rng(51)
        params = random_params(Architecture(context_radius=1, hidden_units=3), rng)
        lattices = self.use_layout(monkeypatch, layout, 40, rng)
        expected = [infer(l, params).tobytes() for l in lattices]
        predict = inferrer._predict
        callers, calls = [], []

        def counted(values, c, weights, ws):
            calls.extend(v.tobytes() for v in lattices_of(values))
            if threading.current_thread() not in callers:
                time.sleep(0.001)
            return predict(values, c, weights, ws)

        def body():
            callers.append(threading.current_thread())
            return inferrer.infer_maps(lattices, params)

        monkeypatch.setattr(inferrer, "_predict", counted)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(switch_interval or interval)
        try:
            maps = run_bounded(body)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == sorted(l.values.tobytes() for l in lattices)
        assert [m.tobytes() for m in maps] == expected

    @pytest.mark.parametrize("switch_interval", [None, 1e-6])
    @pytest.mark.parametrize("piece_pixels", [None, 1, 150])
    @pytest.mark.parametrize("n", [1, 3, 9])
    def test_then_runs_once_per_map_in_input_order_on_the_calling_thread(
        self, monkeypatch, piece_pixels, n, switch_interval
    ):
        # The default piece holds all n lattices; 1 and 150 pixels make
        # pieces of one and of about two lattices. Thread switches every
        # microsecond interleave the two threads' claims at many more points
        # than the default 5 ms.
        if piece_pixels is not None:
            monkeypatch.setattr(inferrer, "_PIECE_PIXELS", piece_pixels)
        rng = np.random.default_rng(47 + n)
        params = random_params(Architecture(context_radius=2, hidden_units=5), rng)
        lattices = self.lattices(n, rng)
        expected = [infer(l, params) for l in lattices]

        def body():
            caller = threading.current_thread()
            seen = []

            def then(m):
                assert threading.current_thread() is caller
                seen.append(m)
                return len(seen) - 1

            assert inferrer.infer_maps(lattices, params, then=then) == list(range(n))
            assert len(seen) == n
            for got, want in zip(seen, expected):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
            maps = inferrer.infer_maps(lattices, params)
            assert [m.tobytes() for m in maps] == [m.tobytes() for m in expected]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(switch_interval or interval)
        try:
            run_bounded(body)
        finally:
            sys.setswitchinterval(interval)

    def test_raw_maps_die_once_then_has_consumed_their_piece(self, monkeypatch):
        # Pieces of about two lattices. When `then` first sees a map of
        # piece k + 1, no raw map of pieces 0..k may still be held.
        monkeypatch.setattr(inferrer, "_PIECE_PIXELS", 150)
        rng = np.random.default_rng(49)
        params = random_params(Architecture(context_radius=1, hidden_units=3), rng)
        lattices = self.lattices(9, rng)
        pieces = inferrer._pieces([l.values for l in lattices])
        assert len(pieces) > 2
        piece_of = {i: k for k, piece in enumerate(pieces) for i in piece}
        seen = []

        def then(m):
            k = piece_of[len(seen)]
            if seen and piece_of[len(seen) - 1] != k:
                assert [ref() for ref, j in seen if j < k] == [None] * pieces[k].start
            seen.append((weakref.ref(m), k))
            return m.shape

        shapes = run_bounded(lambda: inferrer.infer_maps(lattices, params, then=then))
        assert shapes == [l.values.shape for l in lattices]
        assert len(seen) == len(lattices)

    def test_pieces_hold_about_a_fixed_number_of_pixels(self, monkeypatch):
        monkeypatch.setattr(inferrer, "_PIECE_PIXELS", 100)
        values = [np.zeros(shape) for shape in [(5, 5)] * 5 + [(20, 20), (3, 3), (1, 1)]]
        assert inferrer._pieces(values) == [range(0, 4), range(4, 6), range(6, 8)]
        assert inferrer._pieces([]) == []

    def test_stacks_are_runs_of_one_shape_within_the_bound(self):
        assert inferrer._STACK_PIXELS == 4096
        shapes = [(32, 32)] * 5 + [(24, 40)] + [(32, 32)] * 3 + [(16, 16)] * 17 + [(64, 64)] * 2 + [(65, 70)]
        values = [np.zeros(shape) for shape in shapes]
        # Four 32x32 lattices are exactly 4096 pixels, and a fifth would be
        # over; sixteen 16x16 likewise. A lattice of 4096 pixels or more is
        # a stack of its own.
        assert inferrer._stacks(values, range(len(values))) == [
            range(0, 4), range(4, 5), range(5, 6), range(6, 9), range(9, 25), range(25, 26),
            range(26, 27), range(27, 28), range(28, 29),
        ]
        # Stacks never cross a piece's ends.
        assert inferrer._stacks(values, range(2, 12)) == [range(2, 5), range(5, 6), range(6, 9), range(9, 12)]
        assert inferrer._stacks(values, range(3, 3)) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_maps_equal_infer_bit_for_bit_in_order(self, monkeypatch, dtype):
        # The default bounds: mixed shapes in one piece, stacks of exactly
        # 4096 pixels and just over, lattices of 4096 pixels and more, and
        # shapes whose pixel counts are no multiple of BLAS's row blocks,
        # whose rounding a single matrix of every stacked row would change.
        rng = np.random.default_rng(52)
        wide = random_params(Architecture(context_radius=2, hidden_units=8), rng)
        params = InferrerParams(w1=wide.w1.astype(dtype), b1=wide.b1.astype(dtype), w2=wide.w2.astype(dtype), b2=wide.b2)
        shapes = (
            [(32, 32)] * 5 + [(24, 40)] + [(32, 32)] * 3 + [(16, 16)] * 17 + [(64, 64)] * 2 + [(65, 70)]
            + [(5, 7)] * 9 + [(1, 1)] * 3 + [(13, 11)] * 4
        )
        lattices = [ImageLattice(rng.uniform(0, 1, size=shape)) for shape in shapes]
        expected = [infer(l, params).tobytes() for l in lattices]
        predict = inferrer._predict
        calls = []

        def recorded(values, c, weights, ws):
            calls.append(values.shape)
            return predict(values, c, weights, ws)

        monkeypatch.setattr(inferrer, "_predict", recorded)
        maps = run_bounded(lambda: inferrer.infer_maps(lattices, params))
        assert [m.tobytes() for m in maps] == expected
        assert [m.shape for m in maps] == shapes
        # Each stack was one call; the calls of the two threads may interleave.
        assert sorted(calls) == sorted(
            [(4, 32, 32), (32, 32), (24, 40), (3, 32, 32), (16, 16, 16), (16, 16), (64, 64), (64, 64), (65, 70)]
            + [(9, 5, 7), (3, 1, 1), (4, 13, 11)]
        )

    @settings(max_examples=25, deadline=None)
    @given(
        runs=st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=6
        ),
        radius=st.integers(0, 3),
        stack_pixels=st.sampled_from([1, 40, 200, 4096]),
        piece_pixels=st.sampled_from([1, 100, 1 << 15]),
    )
    def test_any_stacking_equals_infer_bit_for_bit(self, runs, radius, stack_pixels, piece_pixels):
        # Runs of (count, height, width), with any stack and piece bound.
        rng = np.random.default_rng(53)
        params = random_params(Architecture(context_radius=radius, hidden_units=7), rng)
        lattices = [rng.uniform(0, 1, size=(h, w)) for count, h, w in runs for _ in range(count)]
        saved = inferrer._STACK_PIXELS, inferrer._PIECE_PIXELS
        inferrer._STACK_PIXELS, inferrer._PIECE_PIXELS = stack_pixels, piece_pixels
        try:
            maps = run_bounded(lambda: inferrer.infer_maps(lattices, params))
        finally:
            inferrer._STACK_PIXELS, inferrer._PIECE_PIXELS = saved
        assert [m.tobytes() for m in maps] == [infer(l, params).tobytes() for l in lattices]


def expression_step(w1, b1, w2, b2, patches, targets):
    """The step as fresh-array expressions: what `_step` computes, in the
    same order of operations."""
    hidden = np.tanh(patches @ w1.T + b1)
    pred = hidden @ w2 + b2
    diff = pred - targets
    loss = float(np.mean(diff * diff))
    residual = (2.0 / targets.shape[0]) * diff
    d_hidden = np.outer(residual, w2) * (1.0 - hidden * hidden)
    return loss, (d_hidden.T @ patches, d_hidden.sum(axis=0), hidden.T @ residual, residual.sum())


class TestStepWorkspace:
    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        batch=st.sampled_from([1, 4096]),
        units=st.sampled_from([1, 32]),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=3),
        zero_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    )
    def test_reused_workspace_equals_a_fresh_one(self, dtype, batch, units, seeds, zero_fraction):
        dim = 9
        ws = inferrer._Workspace()
        for seed in seeds:
            rng = np.random.default_rng(seed)
            w1 = rng.uniform(-1, 1, size=(units, dim)).astype(dtype)
            b1 = rng.uniform(-1, 1, size=units).astype(dtype)
            w2 = rng.uniform(-1, 1, size=units).astype(dtype)
            b2 = dtype(rng.uniform(-1, 1))
            patches = rng.uniform(0, 1, size=(batch, dim)).astype(dtype)
            # Zeroed patches and weights make exact zeros (signed ones too)
            # in the hidden layer, the residual and the gradient.
            patches[rng.uniform(size=batch) < zero_fraction] = 0.0
            if zero_fraction == 1.0:
                w1[:] = 0.0
                b1[:] = 0.0
            targets = rng.uniform(0, 1, size=batch).astype(dtype)
            if zero_fraction == 1.0:
                targets[:] = np.tanh(b1) @ w2 + b2
            reused = _step(w1, b1, w2, b2, patches, targets, ws)
            fresh = _step(w1, b1, w2, b2, patches, targets, inferrer._Workspace())
            expected = expression_step(w1, b1, w2, b2, patches, targets)
            for got in (reused, fresh):
                assert got[0] == expected[0] or (math.isnan(got[0]) and math.isnan(expected[0]))
                for g, e in zip(got[1], expected[1]):
                    assert np.asarray(g).dtype == np.asarray(e).dtype == dtype
                    assert np.asarray(g).tobytes() == np.asarray(e).tobytes()


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
    loss, _ = _step(params.w1, params.b1, params.w2, params.b2, patches, np.asarray(target).ravel(), inferrer._Workspace())
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

    def test_draw_order_holds_as_the_in_flight_window_refills(self, monkeypatch):
        # 2 epochs of 11 steps of 100 float32 patches of 25 values and their
        # targets, two minibatches' bytes: at most 3 gathers are in flight,
        # so the window is refilled after each of the 22 steps.
        monkeypatch.setattr(inferrer, "_PREFETCH_BYTES", 2 * 100 * 26 * 4)
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

        def body():
            before = threading.active_count()
            train(lattices, targets, arch, TrainConfig(epochs=2, learning_rate=0.01, batch_pixels=64, seed=26))
            assert threading.active_count() == before
            with pytest.raises(DivergenceError):
                train(lattices, targets, arch, TrainConfig(epochs=5, learning_rate=1e8, batch_pixels=64, seed=24))
            assert threading.active_count() == before

        run_bounded(body)

    @staticmethod
    def counted_gathers(monkeypatch, gathered, slow):
        """Wrap every gather job that `train` hands to `_in_order`: record
        its step and thread in `gathered`, and first call `slow()` there."""
        in_order = inferrer._in_order

        def wrapped(jobs, window):
            def job(step, gather, ws):
                gathered.append((step, threading.current_thread()))
                slow()
                return gather(ws)

            return in_order((partial(job, step, gather) for step, gather in enumerate(jobs)), window)

        monkeypatch.setattr(inferrer, "_in_order", wrapped)

    @pytest.mark.parametrize("switch_interval", [None, 1e-6])
    def test_every_minibatch_is_gathered_exactly_once(self, monkeypatch, switch_interval):
        # A slow worker, so that the caller claims gathers ahead of it while
        # it waits, within a window of 3. A claimed gather's future is
        # cancelled, and cancelling it again succeeds again: no gather may
        # run twice, and the run must equal one without a second thread.
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=2, hidden_units=5)
        cfg = TrainConfig(epochs=2, learning_rate=0.05, batch_pixels=64, seed=30)
        n_steps = 2 * math.ceil(sum(l.values.size for l in lattices) / cfg.batch_pixels)
        monkeypatch.setattr(inferrer, "_PREFETCH_BYTES", 2 * 64 * 26 * 4)
        in_order = inferrer._in_order
        monkeypatch.setattr(inferrer, "_in_order", lambda jobs, window: (job(inferrer._Workspace()) for job in jobs))
        serial = train(lattices, targets, arch, cfg)
        monkeypatch.setattr(inferrer, "_in_order", in_order)

        callers, gathered = [], []

        def slow():
            if threading.current_thread() not in callers:
                time.sleep(0.001)

        def body():
            callers.append(threading.current_thread())
            return train(lattices, targets, arch, cfg)

        self.counted_gathers(monkeypatch, gathered, slow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(switch_interval or interval)
        try:
            result = run_bounded(body)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(step for step, _ in gathered) == list(range(n_steps))
        assert any(thread in callers for _, thread in gathered)
        assert result.step_losses.tobytes() == serial.step_losses.tobytes()
        for got, want in zip(astuple(result.params), astuple(serial.params)):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_no_gather_runs_after_divergence_is_raised(self, monkeypatch):
        # Every gather takes 2 ms on either thread, so that most of the 80
        # steps' gathers are not yet started when a step diverges. They are
        # cancelled: none starts once train has raised.
        lattices, targets = small_training_set()
        arch = Architecture(context_radius=1, hidden_units=4)
        cfg = TrainConfig(epochs=5, learning_rate=1e8, batch_pixels=64, seed=24)
        gathered, raised = [], threading.Event()
        late = []

        def slow():
            if raised.is_set():
                late.append(len(gathered))
            time.sleep(0.002)

        def body():
            # Holding the error holds train's frame, and so whatever train
            # left open: the gathers must be cancelled all the same.
            with pytest.raises(DivergenceError, match=r"step \d+") as error:
                train(lattices, targets, arch, cfg)
            raised.set()
            count = len(gathered)
            time.sleep(0.05)
            return count, error

        self.counted_gathers(monkeypatch, gathered, slow)
        count, _ = run_bounded(body)
        assert late == []
        assert len(gathered) == count < 5 * 16

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
