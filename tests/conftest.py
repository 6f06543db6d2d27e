"""Shared fixtures.

The standard-benchmark loop takes a few minutes, so it runs at most once
per session and is shared by every test that needs its results.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import msl.decoder
from msl.cli import ExperimentConfig, load_config
from msl.data import Dataset, generate_dataset, split
from msl.pipeline import LoopResult, loop

BENCHMARK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark.json"


@dataclass(frozen=True)
class BenchmarkRun:
    config: ExperimentConfig
    train: Dataset
    val: Dataset
    test: Dataset
    result: LoopResult
    loop_seconds: float


@pytest.fixture(scope="session")
def benchmark_run() -> BenchmarkRun:
    """Full loop over the standard benchmark (single worker, in memory)."""
    cfg = load_config(BENCHMARK_CONFIG)
    ds = generate_dataset(cfg.synth, cfg.n)
    train_split, val_split, test_split = split(ds, cfg.fractions, cfg.split_seed)
    started = time.perf_counter()
    result = loop(
        train_split,
        val_split,
        cfg.decoder_space,
        cfg.arch,
        cfg.train_cfg,
        cfg.encoder_space,
        cfg.match_tolerance,
        workers=1,
    )
    seconds = time.perf_counter() - started
    return BenchmarkRun(
        config=cfg,
        train=train_split,
        val=val_split,
        test=test_split,
        result=result,
        loop_seconds=seconds,
    )


@pytest.fixture
def decode_calls(monkeypatch) -> list[str]:
    """Names of the decoder variants run while the test runs, in call order.

    `decode` looks both variants up as module globals of msl.decoder, so
    wrapping them there sees every decode in the package (in this process).
    """
    calls: list[str] = []
    for name in ("decode_careless", "decode_careful"):
        original = getattr(msl.decoder, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(msl.decoder, name, counted)
    return calls
