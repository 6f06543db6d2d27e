"""Shared test utilities: small experiment configs, run comparisons and a
time bound for tests of code that starts threads."""

from __future__ import annotations

import json
import threading
from pathlib import Path

# Seconds a thread-lifetime test may take before it counts as a deadlock.
# Each of them runs in well under a second.
THREAD_TEST_SECONDS = 5.0


def run_bounded(fn, seconds: float = THREAD_TEST_SECONDS):
    """fn() on a daemon thread, joined with a timeout: a deadlock fails the
    test instead of stalling the suite. fn's exception, if any, is raised
    here, and so is its result returned."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as exc:  # handed to the test's thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"{getattr(fn, '__name__', fn)} did not finish within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome.get("result")


def small_config_dict(out_dir: str, **overrides) -> dict:
    """A desk-scale experiment config that runs in a couple of seconds."""
    cfg = {
        "seed": 4242,
        "out_dir": out_dir,
        "synth": {
            "width": 24,
            "height": 24,
            "blob_count_min": 2,
            "blob_count_max": 4,
            "blob_amplitude": 0.9,
            "blob_radius": 1.5,
            "min_separation": 5.0,
            "noise_std": 0.05,
            "n": 30,
            "fractions": [0.8, 0.1, 0.1],
        },
        "decoder": {"sigmas": [1.5], "radius_multiplier": 3.0, "include_careless": True},
        "inferrer": {
            "context_radius": 2,
            "hidden_units": 8,
            "epochs": 3,
            "learning_rate": 0.01,
            "batch_pixels": 512,
        },
        "encoder": {"thresholds": [0.3, 0.5], "min_separations": [2.0]},
        "metrics": {"match_tolerance": 2.0},
    }
    cfg.update(overrides)
    return cfg


def write_config(path: Path, cfg: dict) -> Path:
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def strip_timings(obj):
    """Drop every "timings" object so runs can be compared byte-for-byte."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timings"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def canonical_without_timings(path: Path) -> str:
    return json.dumps(strip_timings(json.loads(path.read_text())), sort_keys=True)


def assert_dirs_identical(dir_a: Path, dir_b: Path) -> None:
    """Byte-identical trees, except JSON files are compared after
    stripping "timings" objects."""
    files_a = sorted(p.relative_to(dir_a).as_posix() for p in dir_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(dir_b).as_posix() for p in dir_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        pa, pb = dir_a / rel, dir_b / rel
        if pa.suffix == ".json":
            assert canonical_without_timings(pa) == canonical_without_timings(pb), rel
        else:
            assert pa.read_bytes() == pb.read_bytes(), rel
