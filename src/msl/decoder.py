"""Target transformation from ground-truth points to learnable target maps.

Two variants: the careless transformation marks single pixels, the
careful one renders a truncated Gaussian proximity map whose shape is
set by (sigma, radius). Nearby points combine by per-pixel max, so every
annotated centre stays a height-1 peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data import CandidateSpace, PointSet, UnitGrid, stamp_gaussians
from .errors import ConfigError, VariantMismatchError


class DecoderVariant(str, Enum):
    CARELESS = "careless"
    CAREFUL = "careful"


@dataclass(frozen=True)
class DecoderParams:
    """Target-transformation parameters; careless carries none."""

    variant: DecoderVariant
    sigma: float | None = None
    radius: float | None = None

    def __post_init__(self) -> None:
        if self.variant is DecoderVariant.CARELESS:
            if self.sigma is not None or self.radius is not None:
                raise ConfigError("careless decoder carries no sigma/radius")
        else:
            if self.sigma is None or self.radius is None:
                raise ConfigError("careful decoder requires sigma and radius")
            if not (math.isfinite(self.sigma) and math.isfinite(self.radius)):
                raise ConfigError("sigma and radius must be finite")
            if self.sigma <= 0.0 or self.radius <= 0.0:
                raise ConfigError("sigma and radius must be positive")
            if self.radius < self.sigma:
                raise ConfigError("careful decoder requires radius >= sigma")

    @classmethod
    def careless(cls) -> "DecoderParams":
        return cls(variant=DecoderVariant.CARELESS)

    @classmethod
    def careful(cls, sigma: float, radius: float) -> "DecoderParams":
        return cls(variant=DecoderVariant.CAREFUL, sigma=float(sigma), radius=float(radius))

    def to_json_dict(self) -> dict:
        if self.variant is DecoderVariant.CARELESS:
            return {"variant": "careless"}
        return {"variant": "careful", "sigma": self.sigma, "radius": self.radius}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "DecoderParams":
        variant = obj.get("variant")
        if variant == "careless":
            return cls.careless()
        if variant == "careful":
            return cls.careful(float(obj["sigma"]), float(obj["radius"]))
        raise ConfigError(f"unknown decoder variant {variant!r}")


class TargetMap(UnitGrid):
    """W×H grid of learnable target values in [0, 1]."""


class DecoderSpace(CandidateSpace):
    """Ordered, duplicate-free DecoderParams candidates for the decoder search."""


# Instrumentation: counts every careless/careful decode. Lets callers prove
# a code path (e.g. testing) never touches ground-truth transformation.
_decode_calls = 0


def decode_call_count() -> int:
    return _decode_calls


def reset_decode_call_count() -> None:
    global _decode_calls
    _decode_calls = 0


def _count_call() -> None:
    global _decode_calls
    _decode_calls += 1


def _check_bounds(truth: PointSet, width: int, height: int) -> None:
    if not truth.in_bounds(width, height):
        raise ValueError("truth points must lie within the target shape")


def _round_half_up(value: float) -> int:
    """Nearest integer, halves up. `value - floor(value)` is exact, where
    floor(value + 0.5) would round 0.49999999999999994 up to 1."""
    whole = math.floor(value)
    return whole + (value - whole >= 0.5)


def decode_careless(truth: PointSet, shape: tuple[int, int]) -> TargetMap:
    """Value 1 at each point's nearest pixel (round half up), 0 elsewhere."""
    _count_call()
    width, height = shape
    _check_bounds(truth, width, height)
    values = np.zeros((height, width), dtype=np.float64)
    for x, y in truth.points:
        px = min(_round_half_up(x), width - 1)
        py = min(_round_half_up(y), height - 1)
        values[py, px] = 1.0
    return TargetMap(values)


def decode_careful(truth: PointSet, shape: tuple[int, int], params: DecoderParams) -> TargetMap:
    """Truncated-Gaussian proximity map.

    Pixel p gets max over points q of exp(-|p-q|^2 / (2 sigma^2)), with a
    point contributing nothing beyond `radius` of it.
    """
    _count_call()
    if params.variant is not DecoderVariant.CAREFUL:
        raise VariantMismatchError("decode_careful requires careful params")
    width, height = shape
    _check_bounds(truth, width, height)
    values = np.zeros((height, width), dtype=np.float64)
    # Scaling by amplitude 1.0 is exact: the map holds plain exp() values.
    stamp_gaussians(values, truth.points, float(params.sigma), float(params.radius), 1.0, np.maximum)
    return TargetMap(values)


def decode(truth: PointSet, shape: tuple[int, int], params: DecoderParams) -> TargetMap:
    """Dispatch on the parameter variant."""
    if params.variant is DecoderVariant.CARELESS:
        return decode_careless(truth, shape)
    return decode_careful(truth, shape, params)


def decoder_grid(
    sigmas: list[float], radius_multiplier: float, include_careless: bool = False
) -> DecoderSpace:
    """Careful candidates (sigma, radius_multiplier*sigma) in input order,
    optionally preceded by the careless candidate."""
    if not sigmas:
        raise ConfigError("decoder grid requires at least one sigma")
    if any(s <= 0.0 for s in sigmas):
        raise ConfigError("decoder grid sigmas must be positive")
    if radius_multiplier < 1.0:
        raise ConfigError("radius_multiplier must be >= 1")
    candidates: list[DecoderParams] = []
    if include_careless:
        candidates.append(DecoderParams.careless())
    candidates.extend(DecoderParams.careful(s, radius_multiplier * s) for s in sigmas)
    return DecoderSpace(tuple(candidates))
