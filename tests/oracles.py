"""Independent reference implementations used as test oracles.

These stay deliberately separate from the library's code paths: forward
evaluation and suppression are straight-line loops, matching is an
exhaustive search, and gradients come from central finite differences.
"""

from __future__ import annotations

import math

import numpy as np


def forward_reference(w1, b1, w2, b2, patch) -> float:
    """Straight-line evaluation of b2 + w2 . tanh(w1 . patch + b1)."""
    hidden = []
    for row, bias in zip(w1, b1):
        acc = float(bias)
        for w, x in zip(row, patch):
            acc += float(w) * float(x)
        hidden.append(math.tanh(acc))
    out = float(b2)
    for w, h in zip(w2, hidden):
        out += float(w) * h
    return out


def mse_reference(a, b) -> float:
    """Naive double-loop mean squared error between two 2-D grids."""
    total = 0.0
    count = 0
    for row_a, row_b in zip(a, b):
        for xa, xb in zip(row_a, row_b):
            total += (float(xa) - float(xb)) ** 2
            count += 1
    return total / count


def _batch_mse(w1, b1, w2, b2, patches, targets) -> float:
    hidden = np.tanh(patches @ np.asarray(w1).T + np.asarray(b1))
    pred = hidden @ np.asarray(w2) + float(b2)
    diff = pred - np.asarray(targets)
    return float(np.mean(diff * diff))


def fd_gradient(w1, b1, w2, b2, patches, targets, step: float = 1e-4):
    """Central finite differences of the minibatch MSE for every parameter.

    Returns arrays shaped like (w1, b1, w2) plus the b2 scalar.
    """
    w1 = np.array(w1, dtype=np.float64)
    b1 = np.array(b1, dtype=np.float64)
    w2 = np.array(w2, dtype=np.float64)
    b2 = float(b2)
    patches = np.asarray(patches, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)

    def diff_for(array, index) -> float:
        original = array[index]
        array[index] = original + step
        hi = _batch_mse(w1, b1, w2, b2, patches, targets)
        array[index] = original - step
        lo = _batch_mse(w1, b1, w2, b2, patches, targets)
        array[index] = original
        return (hi - lo) / (2.0 * step)

    g_w1 = np.zeros_like(w1)
    for i in range(w1.shape[0]):
        for j in range(w1.shape[1]):
            g_w1[i, j] = diff_for(w1, (i, j))
    g_b1 = np.zeros_like(b1)
    for i in range(b1.shape[0]):
        g_b1[i] = diff_for(b1, i)
    g_w2 = np.zeros_like(w2)
    for i in range(w2.shape[0]):
        g_w2[i] = diff_for(w2, i)
    hi = _batch_mse(w1, b1, w2, b2 + step, patches, targets)
    lo = _batch_mse(w1, b1, w2, b2 - step, patches, targets)
    g_b2 = (hi - lo) / (2.0 * step)
    return g_w1, g_b1, g_w2, g_b2


def careless_reference(points, width: int, height: int):
    """Careless target grid: 1 at each point's nearest pixel, 0 elsewhere.
    The nearest column and row are searched by distance over the whole
    axis, the higher index winning a tie."""
    grid = [[0.0] * width for _ in range(height)]
    for x, y in points:
        col = min(range(width), key=lambda c: (abs(float(x) - c), -c))
        row = min(range(height), key=lambda r: (abs(float(y) - r), -r))
        grid[row][col] = 1.0
    return grid


def careful_value_reference(point, sigma: float, radius: float, pixel) -> float:
    """Closed-form single-point truncated-Gaussian value at a pixel."""
    d = math.hypot(pixel[0] - point[0], pixel[1] - point[1])
    if d > radius:
        return 0.0
    return math.exp(-(d * d) / (2.0 * sigma * sigma))


def blob_field_reference(centres, width: int, height: int, amplitude: float, radius: float):
    """Noise-free blob image: per pixel, the sum over centres of
    amplitude * exp(-d^2 / (2 (radius/2)^2)) for d <= 3*radius, clipped to [0, 1]."""
    sigma = radius / 2.0
    cutoff = 3.0 * radius
    field = []
    for y in range(height):
        row = []
        for x in range(width):
            total = 0.0
            for cx, cy in centres:
                d = math.hypot(x - float(cx), y - float(cy))
                if d <= cutoff:
                    total += amplitude * math.exp(-(d * d) / (2.0 * sigma * sigma))
            row.append(min(1.0, max(0.0, total)))
        field.append(row)
    return field


def local_maxima_reference(values) -> list[tuple[int, int]]:
    """Pixels >= all in-bounds 8-neighbours, scanned with plain loops."""
    height = len(values)
    width = len(values[0])
    out = []
    for y in range(height):
        for x in range(width):
            v = values[y][x]
            peak = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < height and 0 <= nx < width and values[ny][nx] > v:
                        peak = False
            if peak:
                out.append((x, y))
    return out


def encode_reference(values, threshold: float, min_separation: float) -> list[tuple[float, float]]:
    """Clamp, scan peaks, sort by (-value, row-major), suppress exhaustively."""
    clamped = [[min(1.0, max(0.0, float(v))) for v in row] for row in values]
    width = len(clamped[0])
    candidates = [
        (x, y) for x, y in local_maxima_reference(clamped) if clamped[y][x] >= threshold
    ]
    candidates.sort(key=lambda p: (-clamped[p[1]][p[0]], p[1] * width + p[0]))
    kept: list[tuple[float, float]] = []
    for x, y in candidates:
        good = True
        for kx, ky in kept:
            if math.hypot(x - kx, y - ky) < min_separation:
                good = False
                break
        if good:
            kept.append((float(x), float(y)))
    return kept


def optimal_tp(pred, truth, tau: float) -> int:
    """Maximum matched-pair count over all injective mappings within tau."""
    pred = [tuple(p) for p in pred]
    truth = [tuple(t) for t in truth]
    allowed = [
        [j for j, t in enumerate(truth) if math.hypot(p[0] - t[0], p[1] - t[1]) <= tau]
        for p in pred
    ]
    memo: dict[tuple[int, int], int] = {}

    def best(i: int, used_mask: int) -> int:
        if i == len(pred):
            return 0
        key = (i, used_mask)
        if key in memo:
            return memo[key]
        result = best(i + 1, used_mask)
        for j in allowed[i]:
            if not used_mask & (1 << j):
                result = max(result, 1 + best(i + 1, used_mask | (1 << j)))
        memo[key] = result
        return result

    return best(0, 0)
