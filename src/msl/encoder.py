"""Re-transformation of predicted target maps into predicted point labels.

Encoding is thresholded peak extraction with greedy minimum-separation
suppression; its (threshold, min_separation) parameters are fitted by
exhaustive search over a grid against the detection loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CandidateSpace, PointSet, grid_values
from .errors import ConfigError, ShapeError
from .metrics import detection_loss


@dataclass(frozen=True)
class EncoderParams:
    threshold: float
    min_separation: float

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError("threshold must lie strictly inside (0, 1)")
        if not (math.isfinite(self.min_separation) and self.min_separation >= 1.0):
            raise ConfigError("min_separation must be finite and >= 1")

    def to_json_dict(self) -> dict:
        return {"threshold": self.threshold, "min_separation": self.min_separation}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EncoderParams":
        return cls(threshold=float(obj["threshold"]), min_separation=float(obj["min_separation"]))


class EncoderSpace(CandidateSpace):
    """Ordered, duplicate-free EncoderParams candidates for the encoder fit."""


def _as_map(t) -> np.ndarray:
    values = grid_values(t)
    if values.ndim != 2:
        raise ShapeError("predicted map must be 2-D")
    return values


def _neighbour_max(values: np.ndarray) -> np.ndarray:
    """Max over the 8 neighbours of each pixel, out-of-bounds as -inf."""
    padded = np.full((values.shape[0] + 2, values.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = values
    shifts = [
        padded[dy : dy + values.shape[0], dx : dx + values.shape[1]]
        for dy in (0, 1, 2)
        for dx in (0, 1, 2)
        if not (dy == 1 and dx == 1)
    ]
    return np.maximum.reduce(shifts)


def _peaks(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every peak of the clamped map as (values, xs, ys), by descending value
    with row-major index as the tie-break; independent of EncoderParams."""
    values = np.clip(_as_map(t), 0.0, 1.0)
    ys, xs = np.nonzero(values >= _neighbour_max(values))
    peak_values = values[ys, xs]
    # np.nonzero lists peaks in row-major order, which a stable sort keeps for ties.
    order = np.argsort(-peak_values, kind="stable")
    return peak_values[order], xs[order], ys[order]


def _select(peaks: tuple[np.ndarray, np.ndarray, np.ndarray], params: EncoderParams) -> PointSet:
    """Greedy separation pass over the peaks at or above the threshold,
    which are a prefix of the sorted peaks."""
    peak_values, xs, ys = peaks
    n = int(np.count_nonzero(peak_values >= params.threshold))
    min_sq = params.min_separation**2
    kept_x: list[float] = []
    kept_y: list[float] = []
    for x, y in zip(xs[:n].tolist(), ys[:n].tolist()):
        x, y = float(x), float(y)
        ok = True
        for kx, ky in zip(kept_x, kept_y):
            if (x - kx) ** 2 + (y - ky) ** 2 < min_sq:
                ok = False
                break
        if ok:
            kept_x.append(x)
            kept_y.append(y)
    if not kept_x:
        return PointSet.empty()
    return PointSet(np.column_stack([kept_x, kept_y]))


def encode(t, params: EncoderParams) -> PointSet:
    """Thresholded peak extraction with greedy separation suppression.

    Steps: clamp the map to [0, 1]; keep pixels that are >= all 8
    neighbours and >= threshold; order by descending value with row-major
    index as the tie-break; greedily keep points at distance >=
    min_separation from everything kept so far.
    """
    return _select(_peaks(t), params)


def encoder_grid(thresholds: list[float], separations: list[float]) -> EncoderSpace:
    """Cartesian product in (threshold-major, separation-minor) order; an
    empty or repeated factor makes the product one that EncoderSpace rejects."""
    candidates = tuple(
        EncoderParams(threshold=float(h), min_separation=float(d))
        for h in thresholds
        for d in separations
    )
    return EncoderSpace(candidates)


def fit_encoder(
    predicted_maps: list,
    truths: list[PointSet],
    space: EncoderSpace,
    match_tolerance: float,
) -> tuple[EncoderParams, list[tuple[EncoderParams, float]]]:
    """Exhaustive fit: mean detection loss per candidate across samples.

    Returns the minimizer (earliest candidate on ties) and the full
    per-candidate loss table for audit.
    """
    if len(predicted_maps) != len(truths):
        raise ShapeError(f"{len(predicted_maps)} maps vs {len(truths)} truths")
    if not predicted_maps:
        raise ConfigError("encoder fit requires at least one sample")
    # The peaks depend only on the map, so every candidate reuses them.
    peaks = [_peaks(t) for t in predicted_maps]
    table: list[tuple[EncoderParams, float]] = []
    for candidate in space.candidates:
        losses = [
            detection_loss(_select(p, candidate), truth, match_tolerance)
            for p, truth in zip(peaks, truths)
        ]
        table.append((candidate, float(sum(losses) / len(losses))))
    # min() returns the first of equal minima: the earliest candidate wins ties.
    best, _ = min(table, key=lambda row: row[1])
    return best, table
