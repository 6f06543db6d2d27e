"""Patch-wise regressor mapping a lattice to a predicted target map.

One hidden tanh layer shared across pixels: each pixel's prediction is
computed from the (2c+1)x(2c+1) patch centred on it, with reflect
padding at the borders. Inference and training take their patches from
one reflect-padded window view. Training is plain SGD on mean squared
error, and every step goes through `_step`, the same exact gradient
that `gradient` returns and that is checked against finite differences.

Training runs in float32 end to end: lattices, targets, weights, the
learning rate and every step. That halves the memory the minibatch
gather moves and runs the matmuls and tanh at single precision, and
the trained weights are exactly the float32 values that model.msl1
stores, so a reloaded model is the trained one, bit for bit. `gradient`
computes in the dtype that numpy promotes its inputs to, so the
gradient check still runs the same code in float64. Inference stays
float64: `infer` upcasts the float32 weights and computes on the
lattice as given, so a predicted map carries no rounding beyond the
weights' own.

The kernels write their intermediates into a workspace (`_Workspace`)
instead of fresh arrays. `train` owns one for the whole run; `gradient`
and `infer` make one per call, so they run the same code.

`infer_maps` infers a list of lattices on two threads, the caller and
one worker. It hands the lattices out in pieces of about
`_PIECE_PIXELS` pixels, taken in order from a shared counter under a
lock; each thread runs `infer`'s kernel in a workspace of its own, so
each map is `infer`'s bit for bit. Each piece's maps land in a future
of their own, which the caller reads in input order, applying `then` to
them, and whenever the next future is not done the caller infers the
next unclaimed piece itself: `pipeline.test` encodes that way while the
worker still infers. A worker failure is set on its piece's future and
the worker exits, so the caller raises it on reaching that piece; a
failure on the caller's thread cancels the futures not yet started, so
the worker stops too. `then`, like every msl name, runs on the calling
thread only: the worker runs numpy alone, since a tracer may rebind msl
names to single-threaded span recorders. Each thread is meant to use one
BLAS thread: importing msl sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS to 1 unless they are set, which takes effect only
if msl is imported before numpy.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import ImageLattice, grid_values
from .decoder import TargetMap
from .errors import ConfigError, DivergenceError, FormatError, ShapeError
from .seeds import derive_seed, make_rng
from .storage import read_json, read_msl1, reading, write_json, write_msl1

# Bytes of minibatches that `train`'s worker thread draws and gathers per
# hand-off. One minibatch per hand-off cost two thread wake-ups a step,
# and on a shared two-core machine their latency made training time swing
# from run to run. At most two hand-offs' minibatches are held at once.
_PREFETCH_BYTES = 4 << 20

# Pixels of lattices that `infer_maps` hands to a thread at a time. Each
# piece costs a hand-off (a lock, a future, a thread wake-up), which small
# maps feel: `pipeline.test` ran 100 maps of 32x32 at 2267 image/s with one
# lattice a piece and at 2613 with pieces of this size, while on 100 dense
# maps of 64x64 (8 a piece) the two were even (962 and 977). Medians of 36
# chunks each, in-process on a shared two-core x86-64 machine.
_PIECE_PIXELS = 1 << 15


@dataclass(frozen=True)
class Architecture:
    """Patch context radius and hidden width; input dim is (2c+1)^2."""

    context_radius: int
    hidden_units: int

    def __post_init__(self) -> None:
        if self.context_radius < 0:
            raise ConfigError("context_radius must be >= 0")
        if self.hidden_units < 1:
            raise ConfigError("hidden_units must be >= 1")

    @property
    def input_dim(self) -> int:
        return (2 * self.context_radius + 1) ** 2


@dataclass(frozen=True, eq=False)
class InferrerParams:
    """Weights of one dtype, the inputs' promoted with float32: float32 as
    trained and stored, float64 from float64 input. b2 is a numpy scalar
    of that dtype.
    """

    w1: np.ndarray  # (hidden, input_dim)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden,)
    b2: float

    def __post_init__(self) -> None:
        arrays = [np.asarray(a) for a in (self.w1, self.b1, self.w2)]
        dtype = np.result_type(*arrays, np.float32)
        w1, b1, w2 = (a.astype(dtype, copy=False) for a in arrays)
        if w1.ndim != 2 or b1.ndim != 1 or w2.ndim != 1:
            raise ShapeError("w1 must be 2-D, b1 and w2 1-D")
        if not (w1.shape[0] == b1.shape[0] == w2.shape[0]):
            raise ShapeError("hidden dimensions of w1, b1, w2 must agree")
        if not (
            np.all(np.isfinite(w1))
            and np.all(np.isfinite(b1))
            and np.all(np.isfinite(w2))
            and math.isfinite(self.b2)
        ):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", dtype.type(self.b2))

    @property
    def hidden_units(self) -> int:
        return self.w1.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def count(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + 1


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float
    batch_pixels: int
    seed: int

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        # 0 is allowed so a degenerate run returns its initial parameters.
        if self.learning_rate < 0.0:
            raise ConfigError("learning_rate must be >= 0")
        if self.batch_pixels < 1:
            raise ConfigError("batch_pixels must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True, eq=False)
class TrainResult:
    params: InferrerParams
    step_losses: np.ndarray  # minibatch loss before each update
    epoch_losses: np.ndarray  # per-epoch mean of step losses


def init_params(arch: Architecture, seed: int) -> InferrerParams:
    """Uniform(-b, b) weights with b = sqrt(6/(fan_in+fan_out)); zero biases.

    The weights are drawn in float64 and rounded to float32.
    """
    rng = make_rng(seed)
    bound1 = math.sqrt(6.0 / (arch.input_dim + arch.hidden_units))
    bound2 = math.sqrt(6.0 / (arch.hidden_units + 1))
    w1 = rng.uniform(-bound1, bound1, size=(arch.hidden_units, arch.input_dim))
    w2 = rng.uniform(-bound2, bound2, size=arch.hidden_units)
    return InferrerParams(
        w1=w1.astype(np.float32),
        b1=np.zeros(arch.hidden_units, dtype=np.float32),
        w2=w2.astype(np.float32),
        b2=0.0,
    )


class _Workspace:
    """Arrays that one thread's kernels write into instead of fresh ones.

    `array(name, shape, dtype)` returns the array last made under `name`
    when its shape and dtype match, and makes a new one otherwise, so a
    thread that runs one shape over and over allocates once. A workspace
    belongs to one thread.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, np.ndarray] = {}

    def array(self, name: str, shape: tuple, dtype) -> np.ndarray:
        array = self._arrays.get(name)
        if array is None or array.shape != shape or array.dtype != dtype:
            array = self._arrays[name] = np.empty(shape, dtype)
        return array


def _forward(w1, b1, w2, b2, patches: np.ndarray, pred: np.ndarray, ws: _Workspace) -> np.ndarray:
    """pred = tanh(patches @ w1.T + b1) @ w2 + b2, written into `pred`; the
    hidden layer is written into ws's "hidden" array and returned. Every
    operand is of w1's dtype."""
    hidden = ws.array("hidden", (patches.shape[0], w1.shape[0]), w1.dtype)
    np.matmul(patches, w1.T, out=hidden)
    hidden += b1
    np.tanh(hidden, out=hidden)
    np.matmul(hidden, w2, out=pred)
    pred += b2
    return hidden


def _step(w1, b1, w2, b2, patches: np.ndarray, targets: np.ndarray, ws: _Workspace):
    """Minibatch mean squared error and its exact gradient, computed in
    the one dtype of every input, with the intermediates written into ws.

    Returns (loss, (g_w1, g_b1, g_w2, g_b2)) with the shapes of the
    parameters, as fresh arrays; g_b2 is a numpy scalar.
    """
    batch, units, dtype = patches.shape[0], w1.shape[0], w1.dtype
    pred = ws.array("pred", (batch,), dtype)
    hidden = _forward(w1, b1, w2, b2, patches, pred, ws)
    diff = np.subtract(pred, targets, out=ws.array("diff", (batch,), dtype))
    # pred is not read again: it takes the squared errors.
    loss = float(np.mean(np.multiply(diff, diff, out=pred)))
    residual = np.multiply(2.0 / batch, diff, out=diff)
    g_w2 = hidden.T @ residual
    # hidden is not read again: it takes the slope 1 - hidden**2.
    slope = np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, slope, out=slope)
    d_hidden = np.outer(residual, w2, out=ws.array("d_hidden", (batch, units), dtype))
    d_hidden *= slope
    g_w1 = d_hidden.T @ patches
    g_b1 = d_hidden.sum(axis=0)
    g_b2 = residual.sum()
    return loss, (g_w1, g_b1, g_w2, g_b2)


def _windows(values: np.ndarray, c: int) -> np.ndarray:
    """Every (2c+1)x(2c+1) patch of the last two axes, reflect-padded at
    the borders, as a view indexed [..., y, x, dy, dx]."""
    side = 2 * c + 1
    pad = [(0, 0)] * (values.ndim - 2) + [(c, c), (c, c)]
    return sliding_window_view(np.pad(values, pad, mode="reflect"), (side, side), axis=(-2, -1))


def _weights(params: InferrerParams) -> tuple[int, tuple]:
    """The context radius and the float64 weights that inference runs on."""
    side = int(round(math.sqrt(params.input_dim)))
    if side * side != params.input_dim:
        raise ShapeError("parameter input dimension is not a square patch")
    w1, b1, w2 = (a.astype(np.float64) for a in (params.w1, params.b1, params.w2))
    return (side - 1) // 2, (w1, b1, w2, np.float64(params.b2))


def _predict(values: np.ndarray, c: int, weights: tuple, ws: _Workspace) -> np.ndarray:
    """One lattice's map, with the patch matrix and hidden layer written
    into ws. numpy only: it also runs on `infer_maps`' worker thread,
    where no msl name may be called, since a tracer may rebind those to
    single-threaded span recorders."""
    w1, b1, w2, b2 = weights
    side = 2 * c + 1
    patches = ws.array("patches", (values.size, w1.shape[1]), w1.dtype)
    np.copyto(patches.reshape(values.shape + (side, side)), _windows(values, c))
    pred = np.empty(values.shape, w1.dtype)
    _forward(w1, b1, w2, b2, patches, pred.reshape(values.size), ws)
    return pred


def infer(lattice, params: InferrerParams) -> np.ndarray:
    """Predicted float64 target map for a lattice; raw values may exit [0, 1]."""
    c, weights = _weights(params)
    return _predict(grid_values(lattice), c, weights, _Workspace())


def _pieces(values: list[np.ndarray]) -> list[range]:
    """Consecutive runs of lattice indices, each closed once it holds at
    least `_PIECE_PIXELS` pixels."""
    pieces, start, pixels = [], 0, 0
    for i, v in enumerate(values):
        pixels += v.size
        if pixels >= _PIECE_PIXELS:
            pieces.append(range(start, i + 1))
            start, pixels = i + 1, 0
    if start < len(values):
        pieces.append(range(start, len(values)))
    return pieces


def infer_maps(lattices, params: InferrerParams, then=None) -> list:
    """`infer` of every lattice, bit for bit, on two threads; with `then`,
    `then(map)` of every map instead. Both come in input order.

    Every lattice's shape is checked (`grid_values`) and the weights
    upcast on the calling thread first. The lattices are then handed out
    in pieces (`_pieces`), taken in order from a shared counter by the
    caller and by one worker thread, and each piece's maps land in a
    future of its own. The caller reads the futures in order, applying
    `then` to each piece's maps, and infers the next unclaimed piece
    itself whenever the next future is not done. A worker failure is set
    on the future of the piece where it happened, and the worker then
    exits; reading that future raises it. A failure on the caller's thread
    cancels the futures of the pieces not yet started, and the worker
    exits at the first of them. The worker has exited when this returns or
    raises.
    """
    c, weights = _weights(params)
    values = [grid_values(lattice) for lattice in lattices]
    pieces = _pieces(values)
    done = [Future() for _ in pieces]
    lock = threading.Lock()
    claimed = 0

    def claim() -> int | None:
        # The next unclaimed piece, or None once every piece is claimed.
        nonlocal claimed
        with lock:
            if claimed == len(pieces):
                return None
            claimed += 1
            return claimed - 1

    def run(piece: int, ws: _Workspace) -> None:
        done[piece].set_result([_predict(values[i], c, weights, ws) for i in pieces[piece]])

    def work() -> None:
        # The worker thread: numpy and threading only, no msl name.
        ws = _Workspace()
        while (piece := claim()) is not None and done[piece].set_running_or_notify_cancel():
            try:
                run(piece, ws)
            except BaseException as exc:  # raised on the caller by result()
                done[piece].set_exception(exc)
                return

    ws = _Workspace()
    maps = []
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(work)
        try:
            for k in range(len(pieces)):
                while not done[k].done() and (piece := claim()) is not None:
                    run(piece, ws)
                piece_maps = done[k].result()
                # Drop the future, so that raw maps die once `then` has consumed them.
                done[k] = None
                maps.extend(piece_maps if then is None else map(then, piece_maps))
        finally:
            # After a failure here, the worker starts no further piece.
            for future in filter(None, done):
                future.cancel()
    return maps


def gradient(
    params: InferrerParams, patches: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.floating]:
    """Exact gradient of the minibatch mean squared error, in the dtype
    that numpy promotes the parameters, patches and targets to.

    Returns (g_w1, g_b1, g_w2, g_b2) with the shapes of the parameters.
    """
    patches = np.asarray(patches)
    targets = np.asarray(targets).ravel()
    if patches.ndim != 2 or patches.shape[0] != targets.shape[0]:
        raise ShapeError("patches must be (batch, dim) aligned with targets")
    if patches.shape[0] == 0:
        raise ShapeError("minibatch must be non-empty")
    if patches.shape[1] != params.input_dim:
        raise ShapeError(f"patch dim {patches.shape[1]} does not match architecture {params.input_dim}")
    dtype = np.result_type(params.w1, patches, targets)
    arrays = (params.w1, params.b1, params.w2, patches, targets)
    w1, b1, w2, patches, targets = (a.astype(dtype, copy=False) for a in arrays)
    _, grads = _step(w1, b1, w2, dtype.type(params.b2), patches, targets, _Workspace())
    return grads


def train(
    train_lattices: list[ImageLattice],
    train_target_maps: list[TargetMap],
    arch: Architecture,
    cfg: TrainConfig,
) -> TrainResult:
    """SGD on randomly sampled (lattice, pixel) minibatches, in float32.

    An epoch is ceil(total_pixels / batch_pixels) steps. The whole run is
    a pure function of (inputs, arch, cfg): initialization and batch
    sampling use sub-seeds of cfg.seed. One worker thread draws and
    gathers the next few minibatches (about `_PREFETCH_BYTES` of them)
    while the current ones compute; it has exited when this returns or
    raises. Every step writes into one workspace that lasts the run.
    Lattices and targets are rounded to float32 once; the returned
    parameters are float32.
    """
    if not train_lattices:
        raise ConfigError("training requires at least one lattice")
    if len(train_lattices) != len(train_target_maps):
        raise ShapeError(f"{len(train_lattices)} lattices vs {len(train_target_maps)} target maps")
    shape = train_lattices[0].values.shape
    for lattice, target in zip(train_lattices, train_target_maps):
        if lattice.values.shape != target.values.shape:
            raise ShapeError("each target map must match its lattice's shape")
        if lattice.values.shape != shape:
            raise ShapeError("all training lattices must share one shape")

    height, width = shape
    windows = _windows(np.stack([l.values for l in train_lattices], dtype=np.float32), arch.context_radius)
    targets = np.stack([t.values for t in train_target_maps], dtype=np.float32)

    params = init_params(arch, derive_seed(cfg.seed, 0))
    rng = make_rng(derive_seed(cfg.seed, 1))
    n_samples = len(train_lattices)
    pixels_per_lattice = height * width
    steps_per_epoch = max(1, math.ceil(n_samples * pixels_per_lattice / cfg.batch_pixels))
    n_steps = cfg.epochs * steps_per_epoch
    batch_bytes = cfg.batch_pixels * (arch.input_dim + 1) * windows.itemsize
    per_hand_off = max(1, _PREFETCH_BYTES // batch_bytes)

    def draw(count: int) -> list[tuple[np.ndarray, np.ndarray]]:
        # Runs on the worker thread. numpy releases the GIL while it
        # gathers; no msl function is called, since a tracer may rebind
        # those to single-threaded span recorders.
        batches = []
        for _ in range(count):
            sample_idx = rng.integers(0, n_samples, size=cfg.batch_pixels)
            flat = rng.integers(0, pixels_per_lattice, size=cfg.batch_pixels)
            py, px = np.divmod(flat, width)
            batches.append((windows[sample_idx, py, px], targets[sample_idx, py, px]))
        return batches

    w1, b1, w2, b2 = params.w1.copy(), params.b1.copy(), params.w2.copy(), params.b2
    ws = _Workspace()
    learning_rate = np.float32(cfg.learning_rate)
    step_losses = np.empty(n_steps)
    # The next per_hand_off minibatches are drawn and gathered while the
    # current ones compute. A draw is submitted only after the previous
    # one's result is read, so the rng is consumed in step order and the
    # run stays a pure function of its inputs. Divergence is detected via
    # the finiteness check, so numpy's overflow warnings on the way there
    # are just noise.
    with ThreadPoolExecutor(max_workers=1) as pool, np.errstate(over="ignore", invalid="ignore"):
        pending = pool.submit(draw, min(per_hand_off, n_steps))
        step = 0
        while step < n_steps:
            batches = pending.result()
            drawn = step + len(batches)
            if drawn < n_steps:
                pending = pool.submit(draw, min(per_hand_off, n_steps - drawn))
            for patches, batch_targets in batches:
                patches = patches.reshape(cfg.batch_pixels, arch.input_dim)
                loss, (g_w1, g_b1, g_w2, g_b2) = _step(w1, b1, w2, b2, patches, batch_targets, ws)
                if not math.isfinite(loss):
                    raise DivergenceError(f"non-finite training loss at step {step}")
                step_losses[step] = loss
                w1 -= learning_rate * g_w1
                b1 -= learning_rate * g_b1
                w2 -= learning_rate * g_w2
                b2 -= learning_rate * g_b2
                step += 1

    epoch_losses = step_losses.reshape(cfg.epochs, steps_per_epoch).mean(axis=1)
    return TrainResult(
        params=InferrerParams(w1=w1, b1=b1, w2=w2, b2=b2),
        step_losses=step_losses,
        epoch_losses=epoch_losses,
    )


def save_model(directory: Path, arch: Architecture, cfg: TrainConfig, params: InferrerParams) -> None:
    """Write model.json (metadata) and model.msl1 (flat float32 weights).

    The weight dump concatenates w1, b1, w2, b2 in that order; its header
    carries the total parameter count as width and 1 as height.
    """
    directory = Path(directory)
    write_json(directory / "model.json", {"architecture": asdict(arch), "train_config": asdict(cfg)})
    flat = np.concatenate([params.w1.ravel(), params.b1, params.w2, [params.b2]])
    write_msl1(directory / "model.msl1", flat[None, :])


def load_model(directory: Path) -> tuple[Architecture, TrainConfig, InferrerParams]:
    """Read a model directory back; the parameters are float32, as stored.
    A missing key or a bad value is a FormatError naming its file."""
    directory = Path(directory)
    meta_path, dump_path = directory / "model.json", directory / "model.msl1"
    with reading(meta_path):
        meta = read_json(meta_path)
        arch = Architecture(
            context_radius=int(meta["architecture"]["context_radius"]),
            hidden_units=int(meta["architecture"]["hidden_units"]),
        )
        tc = meta["train_config"]
        cfg = TrainConfig(
            epochs=int(tc["epochs"]),
            learning_rate=float(tc["learning_rate"]),
            batch_pixels=int(tc["batch_pixels"]),
            seed=int(tc["seed"]),
        )
    flat = read_msl1(dump_path).ravel().astype(np.float32)
    expected = arch.hidden_units * arch.input_dim + 2 * arch.hidden_units + 1
    if flat.shape[0] != expected:
        raise FormatError(f"{dump_path}: {flat.shape[0]} values, architecture expects {expected}")
    n1 = arch.hidden_units * arch.input_dim
    w1 = flat[:n1].reshape(arch.hidden_units, arch.input_dim)
    b1 = flat[n1 : n1 + arch.hidden_units]
    w2 = flat[n1 + arch.hidden_units : n1 + 2 * arch.hidden_units]
    with reading(dump_path):
        return arch, cfg, InferrerParams(w1=w1, b1=b1, w2=w2, b2=flat[-1])
