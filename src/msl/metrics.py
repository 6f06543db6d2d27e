"""Detection loss between predicted and ground-truth point sets.

Points match greedily by ascending distance under a tolerance; the loss
is 1 - F1 of the resulting counts. Reports micro-average counts across
samples.

Exactness: numpy only pre-filters the pred x truth pairs, keeping those
whose np.hypot distance is within tau plus a margin far wider than the
two hypot implementations can differ (each is within an ulp of the exact
distance). Every kept pair's distance is then recomputed with math.hypot,
and d <= tau and the (d, i, j) sort apply to those values, so the bits,
the ties and the tau edge are those of a double loop over math.hypot.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import PointSet
from .errors import ShapeError


@dataclass(frozen=True)
class Matching:
    """Injective pairing of predicted and truth indices within tolerance."""

    pairs: tuple[tuple[int, int], ...]
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class DetectionReport:
    precision: float
    recall: float
    f1: float
    loss: float
    tp: int
    fp: int
    fn: int
    tau: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tau: float) -> "DetectionReport":
        """The report of pooled matching counts under tolerance tau."""
        precision, recall, f1 = _rates(tp, fp, fn)
        return cls(precision=precision, recall=recall, f1=f1, loss=1.0 - f1, tp=tp, fp=fp, fn=fn, tau=float(tau))

    def to_json_dict(self) -> dict:
        return asdict(self)


def eligible_pairs(pred: np.ndarray, truth: np.ndarray, tau: float) -> list[tuple[float, int, int]]:
    """Every (d, i, j) with d = math.hypot(pred[i] - truth[j]) <= tau,
    sorted; pred and truth are (n, 2) arrays of (x, y)."""
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    if pred.shape[0] == 0 or truth.shape[0] == 0:
        return []
    dx = pred[:, 0, None] - truth[None, :, 0]
    dy = pred[:, 1, None] - truth[None, :, 1]
    # The margin covers the relative error of both hypots, and 4 ulps the
    # absolute one of a subnormal tau.
    near = np.hypot(dx, dy) <= tau * (1.0 + 1e-9) + 4.0 * math.ulp(tau)
    ii, jj = np.nonzero(near)
    eligible = []
    for i, j, x, y in zip(ii.tolist(), jj.tolist(), dx[near].tolist(), dy[near].tolist()):
        d = math.hypot(x, y)
        if d <= tau:
            eligible.append((d, i, j))
    eligible.sort()
    return eligible


def greedy_pairs(eligible: list[tuple[float, int, int]], n_pred: int) -> list[tuple[int, int]]:
    """Greedy pass over sorted eligible pairs, skipping predictions i >=
    n_pred; each point is used at most once on either side."""
    used_pred: set[int] = set()
    used_truth: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, i, j in eligible:
        if i >= n_pred or i in used_pred or j in used_truth:
            continue
        used_pred.add(i)
        used_truth.add(j)
        pairs.append((i, j))
    return pairs


def match(g: PointSet, g_star: PointSet, tau: float) -> Matching:
    """Greedy matching by ascending distance, ties by (pred, truth) index.

    A pair is eligible when its distance is <= tau; each point is used at
    most once on either side.
    """
    pairs = greedy_pairs(eligible_pairs(g.points, g_star.points, tau), len(g))
    tp = len(pairs)
    return Matching(pairs=tuple(pairs), tp=tp, fp=len(g) - tp, fn=len(g_star) - tp)


def _rates(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall, F1 with the empty/empty convention (0/0 -> 1)."""
    precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    denom = 2 * tp + fp + fn
    f1 = 1.0 if denom == 0 else 2 * tp / denom
    return precision, recall, f1


def detection_loss(g: PointSet, g_star: PointSet, tau: float) -> float:
    """1 - F1 under tolerance-tau matching; both sets empty gives loss 0."""
    m = match(g, g_star, tau)
    return count_loss(m.tp, m.fp, m.fn)


def count_loss(tp: int, fp: int, fn: int) -> float:
    """1 - F1 of matching counts."""
    _, _, f1 = _rates(tp, fp, fn)
    return 1.0 - f1


def report(g_list: list[PointSet], g_star_list: list[PointSet], tau: float) -> DetectionReport:
    """Micro-averaged report: counts are pooled across samples first."""
    if len(g_list) != len(g_star_list):
        raise ShapeError(f"{len(g_list)} predictions vs {len(g_star_list)} truths")
    tp = fp = fn = 0
    for g, g_star in zip(g_list, g_star_list):
        m = match(g, g_star, tau)
        tp += m.tp
        fp += m.fp
        fn += m.fn
    return DetectionReport.from_counts(tp, fp, fn, tau)
