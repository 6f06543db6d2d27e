"""Core dataset types, the shared grid and candidate-space types, and the
seeded synthetic blob generator.

A sample is a grey-value lattice plus the sub-pixel centre points of the
intensity blobs rendered into it. Coordinates are (x, y) with x the
column and y the row; lattice arrays are indexed ``values[y, x]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PlacementError, ShapeError
from .seeds import derive_seed, make_rng

PLACEMENT_ATTEMPTS = 10_000


@dataclass(frozen=True, eq=False)
class UnitGrid:
    """Finite, non-empty W×H grid of float64 values in [0, 1]; its shape
    is checked by `grid_values`."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = grid_values(self.values)
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        if float(v.min()) < 0.0 or float(v.max()) > 1.0:
            raise ValueError("grid values must lie in [0, 1]")
        object.__setattr__(self, "values", v)

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """(width, height)"""
        return self.width, self.height


class ImageLattice(UnitGrid):
    """W×H grid of real intensities in [0, 1]."""


def grid_values(grid) -> np.ndarray:
    """The values of a UnitGrid, checked when it was built, or any other
    array-like as float64 (a float64 array is not copied), which must be
    non-empty and 2-D (height, width): the one shape check of every grid."""
    if isinstance(grid, UnitGrid):
        return grid.values
    values = np.asarray(grid, dtype=np.float64)
    if values.ndim != 2 or values.size == 0:
        raise ShapeError(f"a grid must be a non-empty 2-D array, got shape {values.shape}")
    return values


@dataclass(frozen=True)
class CandidateSpace:
    """Ordered, non-empty, pairwise-distinct candidate tuple for a search."""

    candidates: tuple

    def __post_init__(self) -> None:
        cands = tuple(self.candidates)
        name = type(self).__name__
        if not cands:
            raise ConfigError(f"{name} must be non-empty")
        if len(set(cands)) != len(cands):
            raise ConfigError(f"{name} candidates must be pairwise distinct")
        object.__setattr__(self, "candidates", cands)

    def __len__(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True, eq=False)
class PointSet:
    """List of 2-D sub-pixel coordinates, stored as an (n, 2) array of (x, y)."""

    points: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.points, dtype=np.float64)
        if p.size == 0:
            p = p.reshape(0, 2)
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError("points must be an (n, 2) array of (x, y) pairs")
        if not np.all(np.isfinite(p)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", p)

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls) -> "PointSet":
        return cls(np.empty((0, 2)))

    def in_bounds(self, width: int, height: int) -> bool:
        if len(self) == 0:
            return True
        x, y = self.points[:, 0], self.points[:, 1]
        return bool(np.all((x >= 0) & (x < width) & (y >= 0) & (y < height)))


@dataclass(frozen=True, eq=False)
class Sample:
    """One training example: a lattice and its ground-truth centre points."""

    lattice: ImageLattice
    truth: PointSet

    def __post_init__(self) -> None:
        if not self.truth.in_bounds(self.lattice.width, self.lattice.height):
            raise ValueError("truth points must lie within the lattice bounds")


@dataclass(frozen=True, eq=False)
class Dataset:
    samples: tuple[Sample, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))

    @property
    def n(self) -> int:
        return len(self.samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the blob-image generator.

    Blobs are isotropic bumps ``amplitude * exp(-d^2 / (2 (radius/2)^2))``
    truncated at 3*radius; overlaps add per pixel, then zero-mean Gaussian
    noise is added and the result is clipped to [0, 1].
    """

    width: int
    height: int
    blob_count_min: int
    blob_count_max: int
    blob_amplitude: float
    blob_radius: float
    min_separation: float
    noise_std: float
    seed: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigError("width and height must be >= 1")
        if self.blob_count_min < 0 or self.blob_count_min > self.blob_count_max:
            raise ConfigError("blob counts must satisfy 0 <= min <= max")
        if not 0.0 < self.blob_amplitude <= 1.0:
            raise ConfigError("blob_amplitude must lie in (0, 1]")
        if self.blob_radius <= 0.0:
            raise ConfigError("blob_radius must be positive")
        if not 0.0 < self.min_separation < min(self.width, self.height):
            raise ConfigError("min_separation must be positive and below min(width, height)")
        if self.noise_std < 0.0:
            raise ConfigError("noise_std must be >= 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must be a 64-bit unsigned integer")


def _place_centres(cfg: SynthConfig, count: int, rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample `count` centres with pairwise distance >= min_separation."""
    xs: list[float] = []
    ys: list[float] = []
    min_sq = cfg.min_separation**2
    attempts = 0
    while len(xs) < count:
        if attempts >= PLACEMENT_ATTEMPTS:
            raise PlacementError(
                f"placed {len(xs)} of {count} centres after {PLACEMENT_ATTEMPTS} attempts"
            )
        attempts += 1
        x = float(rng.uniform(0.0, cfg.width))
        y = float(rng.uniform(0.0, cfg.height))
        if xs:
            d2 = (np.asarray(xs) - x) ** 2 + (np.asarray(ys) - y) ** 2
            if float(d2.min()) < min_sq:
                continue
        xs.append(x)
        ys.append(y)
    return np.column_stack([xs, ys]) if xs else np.empty((0, 2))


def stamp_gaussians(field, centres, sigma: float, cutoff: float, amplitude: float, combine) -> None:
    """Combine ``amplitude * exp(-d^2 / (2 sigma^2))``, zero beyond `cutoff`
    of each centre, into `field` in place with the ufunc `combine`."""
    height, width = field.shape
    for cx, cy in centres:
        x_lo = max(0, int(math.ceil(cx - cutoff)))
        x_hi = min(width - 1, int(math.floor(cx + cutoff)))
        y_lo = max(0, int(math.ceil(cy - cutoff)))
        y_hi = min(height - 1, int(math.floor(cy + cutoff)))
        if x_lo > x_hi or y_lo > y_hi:
            continue
        xs = np.arange(x_lo, x_hi + 1, dtype=np.float64)
        ys = np.arange(y_lo, y_hi + 1, dtype=np.float64)
        d2 = (xs[None, :] - cx) ** 2 + (ys[:, None] - cy) ** 2
        bump = amplitude * np.exp(-d2 / (2.0 * sigma**2))
        bump[d2 > cutoff**2] = 0.0
        window = field[y_lo : y_hi + 1, x_lo : x_hi + 1]
        combine(window, bump, out=window)


def generate_sample(cfg: SynthConfig, rng: np.random.Generator) -> Sample:
    """Render one blob image with its centre points as ground truth."""
    count = int(rng.integers(cfg.blob_count_min, cfg.blob_count_max + 1))
    centres = _place_centres(cfg, count, rng)
    field = np.zeros((cfg.height, cfg.width), dtype=np.float64)
    stamp_gaussians(field, centres, cfg.blob_radius / 2.0, 3.0 * cfg.blob_radius, cfg.blob_amplitude, np.add)
    if cfg.noise_std > 0.0:
        field = field + rng.normal(0.0, cfg.noise_std, size=field.shape)
    np.clip(field, 0.0, 1.0, out=field)
    return Sample(lattice=ImageLattice(field), truth=PointSet(centres))


def generate_dataset(cfg: SynthConfig, n: int) -> Dataset:
    """Generate `n` samples, each from its own sub-seed of cfg.seed.

    Sub-seeding makes per-sample generation order-independent, so the
    result is identical under any parallel schedule.
    """
    if n < 1:
        raise ConfigError("dataset size must be >= 1")
    samples = [generate_sample(cfg, make_rng(derive_seed(cfg.seed, i))) for i in range(n)]
    return Dataset(tuple(samples))


def split_sizes(n: int, fractions) -> tuple[int, int, int]:
    """(train, val, test) sizes of a split of n samples.

    Validation and test sizes are floor allocations of their fractions;
    the remainder goes to train. Bad fractions or an empty part are a ConfigError.
    """
    f_train, f_val, f_test = (float(f) for f in fractions)
    if min(f_train, f_val, f_test) <= 0.0:
        raise ConfigError("split fractions must be positive")
    if abs(f_train + f_val + f_test - 1.0) > 1e-9:
        raise ConfigError("split fractions must sum to 1")
    # The 1e-9 nudge keeps exact fractions like 1/6 from flooring one short.
    n_val = int(math.floor(f_val * n + 1e-9))
    n_test = int(math.floor(f_test * n + 1e-9))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(f"split of {n} samples leaves an empty part")
    return n_train, n_val, n_test


def split(ds: Dataset, fractions: tuple[float, float, float], seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Disjoint train/val/test partition by seeded shuffle, of the sizes
    that `split_sizes` gives."""
    n_train, n_val, _ = split_sizes(ds.n, fractions)
    perm = make_rng(seed).permutation(ds.n)
    parts = (perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :])
    train, val, test = (Dataset(tuple(ds.samples[i] for i in idx)) for idx in parts)
    return train, val, test
