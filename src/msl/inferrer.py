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

`infer_maps` and `train` run on two threads, the caller and one worker,
through one scheduler, `_in_order`: the caller reads the jobs' results in
order, and runs the next job the worker has not started whenever it
would wait. `infer_maps`' jobs are pieces of lattices, so `pipeline.test`
encodes while the worker infers; `train`'s are minibatch gathers, so on
a small model, whose step is quicker than its gather, the caller gathers
too. Within a piece, consecutive small lattices of one shape are
inferred as one stack (`_stacks`), with one pad, one patch copy and one
`_forward` for the stack, so a small map does not pay a dozen numpy
calls of its own. Each thread infers in a workspace of its own, and
`_forward` multiplies each stacked lattice's rows as a matrix of their
own, so each map is `infer`'s bit for bit. Jobs run numpy alone, since
a tracer may rebind msl names to single-threaded span recorders. Each
thread is meant to use one BLAS thread: importing msl sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1 unless
they are set, which takes effect only if msl is imported before numpy.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import ImageLattice, grid_values
from .decoder import TargetMap
from .errors import ConfigError, DivergenceError, FormatError, ShapeError
from .seeds import derive_seed, make_rng
from .storage import finite, integer, read_json, read_msl1, reading, section, write_json, write_msl1

# Bytes of minibatch gathers that `train` keeps in flight ahead of its
# step, each one job of `_in_order`. At most twice as many minibatches,
# the step's own included, are held at once.
_PREFETCH_BYTES = 4 << 20

# Pixels of lattices that `infer_maps` hands out at a time, each piece
# one job of `_in_order` and a few stacks (`_STACK_PIXELS`). Each piece
# costs a submit and the worker's queue get, which small maps feel: with
# one lattice a piece, `pipeline.test` on 100 maps of 32x32 ran about 10%
# slower (1763 against 1967 image/s, and faster in only 19 of 168
# alternating pairs), in one process on a shared two-core x86-64 machine.
_PIECE_PIXELS = 1 << 15

# Pixels of consecutive same-shape lattices that `infer_maps` infers as
# one stack; a lattice of this many pixels or more, such as a 64x64 map,
# is inferred alone. With stacks of four, `pipeline.test` on 100 maps of
# 32x32 took a median of 34.5 ms against 55.3 ms with every map alone
# (faster in 40 of 40 alternating pairs), in one process on a shared
# two-core x86-64 machine. Bounds of 8192 and 16384 pixels took 31.1 and
# 30.7 ms, but would stack 64x64 maps too.
_STACK_PIXELS = 1 << 12


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
        if not 0.0 <= self.learning_rate < math.inf:
            raise ConfigError("learning_rate must be finite and >= 0")
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
    operand is of w1's dtype. `patches` is (rows, dim), or a stack of such
    matrices along leading axes: numpy's matmul runs BLAS on each matrix of
    a stack alone, so each matrix's rows come out as they would alone. (A
    single matrix of all the stacked rows would not: OpenBLAS picks a row's
    kernel, and so its rounding, by the row count.)"""
    hidden = ws.array("hidden", patches.shape[:-1] + (w1.shape[0],), w1.dtype)
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
    """The map of a lattice (height, width), or of each lattice of a stack
    (..., height, width), bit for bit as each lattice's own call would give
    it, with the patches and hidden layer written into ws. numpy only,
    since it also runs on the worker thread (see the module docstring)."""
    w1, b1, w2, b2 = weights
    side = 2 * c + 1
    rows = values.shape[:-2] + (values.shape[-2] * values.shape[-1],)
    patches = ws.array("patches", rows + (w1.shape[1],), w1.dtype)
    np.copyto(patches.reshape(values.shape + (side, side)), _windows(values, c))
    pred = np.empty(values.shape, w1.dtype)
    _forward(w1, b1, w2, b2, patches, pred.reshape(rows), ws)
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


def _stacks(values: list[np.ndarray], piece: range) -> list[range]:
    """`piece` cut into runs of consecutive lattices of one shape, each
    holding at most `_STACK_PIXELS` pixels, or a single lattice of more."""
    stacks = []
    for i in piece:
        same_shape = bool(stacks) and values[i].shape == values[i - 1].shape
        if same_shape and (len(stacks[-1]) + 1) * values[i].size <= _STACK_PIXELS:
            stacks[-1] = range(stacks[-1].start, i + 1)
        else:
            stacks.append(range(i, i + 1))
    return stacks


def _in_order(jobs, window: int):
    """Yield `job(ws)` of every job in `jobs`, in order, with `ws` the
    running thread's own workspace. Jobs are taken on the calling thread
    and submitted to a one-thread executor, at most `window` of them not
    yet yielded. While the next result is not done, the caller claims the
    next job not yet started by cancelling its future, which succeeds
    only before the worker starts it, and runs it itself. A failure is
    raised when its job is reached. Once the generator fails or is closed
    (callers hold it in `closing`), the jobs not yet started are
    cancelled and the worker has exited.
    """
    jobs = iter(jobs)
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        worker_ws, ws, futures, claimed = _Workspace(), _Workspace(), {}, {}
        # The next job the caller tries to claim. It only moves forward:
        # cancel() succeeds again on a future that is already cancelled.
        ahead = 0
        for k in itertools.count():
            # futures holds jobs k, k + 1, ...: submitted and not yet yielded.
            for job in itertools.islice(jobs, window - len(futures)):
                futures[k + len(futures)] = job, pool.submit(job, worker_ws)
            if k not in futures:
                return
            ahead = max(ahead, k)
            while k not in claimed and not futures[k][1].done() and ahead in futures:
                job, future = futures[ahead]
                if future.cancel():
                    claimed[ahead] = job(ws)
                ahead += 1
            yield claimed.pop(k) if k in claimed else futures[k][1].result()
            # Drop the future, so that a result dies once the caller drops it.
            del futures[k]
    finally:
        pool.shutdown(cancel_futures=True)


def infer_maps(lattices, params: InferrerParams, then=None) -> list:
    """`infer` of every lattice, bit for bit, on two threads; with `then`,
    `then(map)` of every map instead. Both come in input order.

    Every lattice's shape is checked (`grid_values`) and the weights
    upcast on the calling thread first. Then every piece (`_pieces`) is
    submitted to `_in_order` at once, and `then` runs on the calling
    thread as each piece's maps are read. A piece is inferred stack by
    stack (`_stacks`): a run of one lattice in its own 2-D call, a longer
    run as one stack, whose maps are views of the stack's.
    """
    c, weights = _weights(params)
    values = [grid_values(lattice) for lattice in lattices]
    pieces = _pieces(values)

    def run(piece: range, ws: _Workspace) -> list[np.ndarray]:
        maps = []
        for stack in _stacks(values, piece):
            if len(stack) == 1:
                maps.append(_predict(values[stack.start], c, weights, ws))
            else:
                maps.extend(_predict(np.stack(values[stack.start : stack.stop]), c, weights, ws))
        return maps

    with closing(_in_order([partial(run, piece) for piece in pieces], len(pieces))) as results:
        return [m if then is None else then(m) for piece_maps in results for m in piece_maps]


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
    sampling use sub-seeds of cfg.seed. Each minibatch's gather is a job
    of `_in_order`, with the window that `_PREFETCH_BYTES` sets; its worker
    has exited when this returns or raises. Every step writes into one
    workspace that lasts the run. Lattices and targets are rounded to
    float32 once; the returned parameters are float32.
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
    window = 2 * max(1, _PREFETCH_BYTES // batch_bytes) - 1

    def gather(sample_idx: np.ndarray, flat: np.ndarray, ws: _Workspace):
        # Runs on either thread, so numpy only (see the module docstring).
        py, px = np.divmod(flat, width)
        return windows[sample_idx, py, px], targets[sample_idx, py, px]

    def gathers():
        # Drawn on the calling thread as each gather is submitted, so the rng
        # is consumed in step order, whichever thread gathers.
        for _ in range(n_steps):
            sample_idx = rng.integers(0, n_samples, size=cfg.batch_pixels)
            flat = rng.integers(0, pixels_per_lattice, size=cfg.batch_pixels)
            yield partial(gather, sample_idx, flat)

    w1, b1, w2, b2 = params.w1.copy(), params.b1.copy(), params.w2.copy(), params.b2
    ws = _Workspace()
    learning_rate = np.float32(cfg.learning_rate)
    step_losses = np.empty(n_steps)
    # Divergence is detected via the finiteness check, so numpy's overflow
    # warnings on the way there are just noise.
    with closing(_in_order(gathers(), window)) as batches, np.errstate(over="ignore", invalid="ignore"):
        for step, (patches, batch_targets) in enumerate(batches):
            patches = patches.reshape(cfg.batch_pixels, arch.input_dim)
            loss, (g_w1, g_b1, g_w2, g_b2) = _step(w1, b1, w2, b2, patches, batch_targets, ws)
            if not math.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at step {step}")
            step_losses[step] = loss
            w1 -= learning_rate * g_w1
            b1 -= learning_rate * g_b1
            w2 -= learning_rate * g_w2
            b2 -= learning_rate * g_b2

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
        arch = Architecture(**section(meta, "architecture", context_radius=integer, hidden_units=integer))
        cfg = TrainConfig(**section(
            meta, "train_config", epochs=integer, learning_rate=finite, batch_pixels=integer, seed=integer
        ))
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
