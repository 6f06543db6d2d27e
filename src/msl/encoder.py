"""Re-transformation of predicted target maps into predicted point labels.

Encoding is thresholded peak extraction with greedy minimum-separation
suppression; its (threshold, min_separation) parameters are fitted by
exhaustive search over a grid against the detection loss. The fit pools
the chosen candidate's exact matching counts too, so its report is the
report of the fitted maps: `learn` stores it as the validation report.

Exactness of the shared work:

- The greedy separation pass keeps or drops each peak on the higher-ranked
  peaks alone, so for one min_separation the points kept at threshold h
  are the points kept at the grid's lowest threshold whose value is >= h:
  a prefix of that list. The fit runs one pass per map and distinct
  separation, and matches every threshold of it against one sorted list
  of eligible pairs, skipping the predictions past the prefix.
- Peaks sit on integer pixels, so numpy's integer squared distances
  between them are exact, and comparing them with min_separation**2 is
  the comparison of a plain double loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CandidateSpace, PointSet, grid_values
from .errors import ConfigError, ShapeError
from .metrics import DetectionReport, count_loss, eligible_pairs, greedy_pairs
from .storage import fields, finite


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
        return cls(**fields(obj, threshold=finite, min_separation=finite))


class EncoderSpace(CandidateSpace):
    """Ordered, duplicate-free EncoderParams candidates for the encoder fit."""


def _window_max(values: np.ndarray) -> np.ndarray:
    """Max over the 3x3 window of each pixel, clipped at the borders, taken
    along rows and then along columns. NaN anywhere in a window gives NaN."""
    rows = values.copy()
    np.maximum(rows[:, 1:], values[:, :-1], out=rows[:, 1:])
    np.maximum(rows[:, :-1], values[:, 1:], out=rows[:, :-1])
    window = rows.copy()
    np.maximum(window[1:], rows[:-1], out=window[1:])
    np.maximum(window[:-1], rows[1:], out=window[:-1])
    return window


def _peaks(t, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every peak of the clamped map at or above floor as (values, xs, ys),
    by descending value with row-major index as the tie-break.

    A peak is >= each of its 8 neighbours, that is >= its 3x3 window's
    max, so a peak at or above floor is >= the larger of that max and
    floor. Dropping the peaks below floor before the sort leaves the
    order of the others as it was: the result is the prefix of all peaks,
    sorted, that is >= floor.
    """
    values = np.clip(grid_values(t), 0.0, 1.0)
    ys, xs = np.nonzero(values >= np.maximum(_window_max(values), floor))
    peak_values = values[ys, xs]
    # np.nonzero lists peaks in row-major order, which a stable sort keeps for ties.
    order = np.argsort(-peak_values, kind="stable")
    return peak_values[order], xs[order], ys[order]


# Most entries of one block of the pairwise conflict test in _separate.
_PAIR_BLOCK = 1 << 20


def _separate(
    peaks: tuple[np.ndarray, np.ndarray, np.ndarray], threshold: float, min_separation: float
) -> np.ndarray:
    """Indices of the sorted peaks that the greedy separation pass keeps:
    in order, each peak at or above the threshold (a prefix of the sorted
    peaks) is kept unless an earlier kept peak is closer than
    min_separation."""
    peak_values, xs, ys = peaks
    n = int(np.count_nonzero(peak_values >= threshold))
    min_sq = min_separation**2
    kept = [True] * n
    # Rows come in blocks, so that no n x n array is built for many peaks.
    rows = max(1, _PAIR_BLOCK // max(n, 1))
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        dx = xs[start:stop, None] - xs[:stop]
        dy = ys[start:stop, None] - ys[:stop]
        ii, jj = np.nonzero(dx * dx + dy * dy < min_sq)
        ii += start
        # Conflicts of each peak i with the earlier peaks j < i, in row order.
        earlier = jj < ii
        for i, j in zip(ii[earlier].tolist(), jj[earlier].tolist()):
            if kept[i] and kept[j]:
                kept[i] = False
    return np.flatnonzero(kept)


def _pixels(peaks: tuple[np.ndarray, np.ndarray, np.ndarray], kept: np.ndarray) -> PointSet:
    """The pixels of the kept peaks as points, in peak order."""
    _, xs, ys = peaks
    return PointSet(np.column_stack([xs[kept], ys[kept]]))


def encode(t, params: EncoderParams) -> PointSet:
    """Thresholded peak extraction with greedy separation suppression.

    Steps: check the map's shape (`grid_values`: a ShapeError unless it
    is non-empty and 2-D); clamp it to [0, 1]; keep pixels that are >=
    all 8 neighbours and >= threshold; order by descending value with
    row-major index as the tie-break; greedily keep points at distance >=
    min_separation from everything kept so far.
    """
    peaks = _peaks(t, params.threshold)
    return _pixels(peaks, _separate(peaks, params.threshold, params.min_separation))


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
) -> tuple[EncoderParams, list[tuple[EncoderParams, float]], DetectionReport]:
    """Exhaustive fit: mean detection loss per candidate across samples.

    Returns the minimizer (earliest candidate on ties), the full
    per-candidate loss table for audit, and the minimizer's micro-averaged
    report over the samples: the counts the fit matched exactly, so it
    equals `report` of the minimizer's encoded maps.
    """
    if len(predicted_maps) != len(truths):
        raise ShapeError(f"{len(predicted_maps)} maps vs {len(truths)} truths")
    if not predicted_maps:
        raise ConfigError("encoder fit requires at least one sample")
    lowest = min(c.threshold for c in space.candidates)
    by_separation: dict[float, list[int]] = {}
    for index, c in enumerate(space.candidates):
        by_separation.setdefault(c.min_separation, []).append(index)
    counts: list[list[tuple[int, int, int]]] = [[] for _ in space.candidates]  # (tp, fp, fn) per map
    for t, truth in zip(predicted_maps, truths):
        peaks = _peaks(t, lowest)
        for separation, indices in by_separation.items():
            kept = _separate(peaks, lowest, separation)
            kept_values = peaks[0][kept]
            eligible = eligible_pairs(_pixels(peaks, kept).points, truth.points, match_tolerance)
            for index in indices:
                # The candidate's points are the kept prefix at or above its threshold.
                k = int(np.count_nonzero(kept_values >= space.candidates[index].threshold))
                tp = len(greedy_pairs(eligible, k))
                counts[index].append((tp, k - tp, len(truth) - tp))
    table = [
        (c, float(sum(count_loss(*m) for m in per_map) / len(per_map)))
        for c, per_map in zip(space.candidates, counts)
    ]
    # min() returns the first of equal minima: the earliest candidate wins ties.
    best = min(range(len(table)), key=lambda i: table[i][1])
    tp, fp, fn = (sum(column) for column in zip(*counts[best]))
    return table[best][0], table, DetectionReport.from_counts(tp, fp, fn, match_tolerance)
