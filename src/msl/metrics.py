"""Detection loss between predicted and ground-truth point sets.

Points match greedily by ascending distance under a tolerance; the loss
is 1 - F1 of the resulting counts. Reports micro-average counts across
samples.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

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

    def to_json_dict(self) -> dict:
        return asdict(self)


def match(g: PointSet, g_star: PointSet, tau: float) -> Matching:
    """Greedy matching by ascending distance, ties by (pred, truth) index.

    A pair is eligible when its distance is <= tau; each point is used at
    most once on either side.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    pred = g.points
    truth = g_star.points
    eligible: list[tuple[float, int, int]] = []
    for i in range(pred.shape[0]):
        for j in range(truth.shape[0]):
            d = math.hypot(pred[i, 0] - truth[j, 0], pred[i, 1] - truth[j, 1])
            if d <= tau:
                eligible.append((d, i, j))
    eligible.sort()
    used_pred: set[int] = set()
    used_truth: set[int] = set()
    pairs: list[tuple[int, int]] = []
    for _, i, j in eligible:
        if i in used_pred or j in used_truth:
            continue
        used_pred.add(i)
        used_truth.add(j)
        pairs.append((i, j))
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
    _, _, f1 = _rates(m.tp, m.fp, m.fn)
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
    precision, recall, f1 = _rates(tp, fp, fn)
    return DetectionReport(
        precision=precision,
        recall=recall,
        f1=f1,
        loss=1.0 - f1,
        tp=tp,
        fp=fp,
        fn=fn,
        tau=float(tau),
    )
