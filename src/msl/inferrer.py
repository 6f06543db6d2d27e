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
stores, so a reloaded model is the trained one, bit for bit. `_step`
and `gradient` follow the dtype of their inputs, so the gradient check
still runs the same code in float64. Inference stays float64: `infer`
upcasts the float32 weights and computes on the lattice as given, so a
predicted map carries no rounding beyond the weights' own.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data import ImageLattice, grid_values
from .decoder import TargetMap
from .errors import ConfigError, DivergenceError, ShapeError
from .seeds import derive_seed, make_rng
from .storage import read_json, read_msl1, write_json, write_msl1

# Bytes of minibatches that `train`'s worker thread draws and gathers per
# hand-off. One minibatch per hand-off cost two thread wake-ups a step,
# and on a shared two-core machine their latency made training time swing
# from run to run. At most two hand-offs' minibatches are held at once.
_PREFETCH_BYTES = 4 << 20


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


def _forward(w1, b1, w2, b2, patches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    hidden = np.tanh(patches @ w1.T + b1)
    pred = hidden @ w2 + b2
    return pred, hidden


def _step(w1, b1, w2, b2, patches: np.ndarray, targets: np.ndarray):
    """Minibatch mean squared error and its exact gradient, computed in
    the dtype that numpy promotes the inputs to.

    Returns (loss, (g_w1, g_b1, g_w2, g_b2)) with the shapes of the
    parameters; g_b2 is a numpy scalar.
    """
    pred, hidden = _forward(w1, b1, w2, b2, patches)
    diff = pred - targets
    loss = float(np.mean(diff * diff))
    residual = (2.0 / targets.shape[0]) * diff
    d_hidden = np.outer(residual, w2) * (1.0 - hidden * hidden)
    g_w1 = d_hidden.T @ patches
    g_b1 = d_hidden.sum(axis=0)
    g_w2 = hidden.T @ residual
    g_b2 = residual.sum()
    return loss, (g_w1, g_b1, g_w2, g_b2)


def _windows(values: np.ndarray, c: int) -> np.ndarray:
    """Every (2c+1)x(2c+1) patch of the last two axes, reflect-padded at
    the borders, as a view indexed [..., y, x, dy, dx]."""
    side = 2 * c + 1
    pad = [(0, 0)] * (values.ndim - 2) + [(c, c), (c, c)]
    return sliding_window_view(np.pad(values, pad, mode="reflect"), (side, side), axis=(-2, -1))


def infer(lattice, params: InferrerParams) -> np.ndarray:
    """Predicted float64 target map for a lattice; raw values may exit [0, 1]."""
    values = grid_values(lattice)
    side = int(round(math.sqrt(params.input_dim)))
    if side * side != params.input_dim:
        raise ShapeError("parameter input dimension is not a square patch")
    patches = _windows(values, (side - 1) // 2).reshape(values.size, params.input_dim)
    w1, b1, w2 = (a.astype(np.float64) for a in (params.w1, params.b1, params.w2))
    pred, _ = _forward(w1, b1, w2, np.float64(params.b2), patches)
    return pred.reshape(values.shape)


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
    _, grads = _step(params.w1, params.b1, params.w2, params.b2, patches, targets)
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
    raises. Lattices and targets are rounded to float32 once; the
    returned parameters are float32.
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
                loss, (g_w1, g_b1, g_w2, g_b2) = _step(w1, b1, w2, b2, patches, batch_targets)
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
    """Read a model directory back; the parameters are float32, as stored."""
    directory = Path(directory)
    meta = read_json(directory / "model.json")
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
    flat = read_msl1(directory / "model.msl1").ravel().astype(np.float32)
    expected = arch.hidden_units * arch.input_dim + 2 * arch.hidden_units + 1
    if flat.shape[0] != expected:
        raise ShapeError(f"model dump has {flat.shape[0]} values, architecture expects {expected}")
    n1 = arch.hidden_units * arch.input_dim
    w1 = flat[:n1].reshape(arch.hidden_units, arch.input_dim)
    b1 = flat[n1 : n1 + arch.hidden_units]
    w2 = flat[n1 + arch.hidden_units : n1 + 2 * arch.hidden_units]
    b2 = flat[-1]
    return arch, cfg, InferrerParams(w1=w1, b1=b1, w2=w2, b2=b2)
