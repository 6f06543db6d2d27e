"""The benchmark workloads.

A workload has three methods:

- `setup(seed)` builds the inputs and returns them as a state dict;
- `round(state)` runs one timed repetition of the same operations and
  returns ``(figures, outputs)``, where figures holds ``wall_s``,
  ``attempted``, ``failed`` and ``rates``;
- `check(state, outputs)` takes the outputs of every round and returns
  the correctness checks that failed, as messages.

``rates`` maps a throughput metric to a list of ``(work done, seconds)``
pieces; the harness reports the median of work over seconds across the
pieces of all rounds. Every call into msl goes through
a module attribute (``pipeline.loop``), so that the tracer's rebinding
also sees the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter, time_ns

import numpy as np

from msl import cli, data, decoder, encoder, inferrer, metrics, pipeline, storage

import oracles

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_CONFIG = ROOT / "configs" / "benchmark.json"
WORK_DIR = ROOT / ".bench_runs"

# configs/benchmark.json trains 30 epochs; the search workload trains this many.
SEARCH_EPOCHS = 2
# Held-out scenes are dense (the config has 5-12 blobs), so that the test
# multiplies the per-peak and per-pair loops of encode and match.
HELDOUT_N = 1000
HELDOUT_BLOBS = (20, 30)
TEST_CHUNK = 100


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def _benchmark_config(epochs: int):
    """configs/benchmark.json, its own seed included, with a cut epoch count."""
    raw = json.loads(BENCHMARK_CONFIG.read_text())
    raw["inferrer"]["epochs"] = epochs
    return cli.parse_config(raw)


def _scenes(synth, seed: int, stream: int, n: int, **changes):
    """n scenes of `synth` (with `changes`) made from the workload seed."""
    scene_seed = int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])
    return data.generate_dataset(replace(synth, seed=scene_seed, **changes), n)


def _benchmark_data(cfg):
    """The config's own dataset and split: the same on every seed."""
    return data.split(data.generate_dataset(cfg.synth, cfg.n), cfg.fractions, cfg.split_seed)


def _train_pixels(solution, cfg) -> int:
    return solution.step_losses.size * cfg.train_cfg.batch_pixels


def _split_sizes(n: int, fractions) -> tuple[int, int, int]:
    """(train, val, test) sizes by data.split's rule: floored val and test."""
    n_val, n_test = (math.floor(f * n + 1e-9) for f in fractions[1:])
    return n - n_val - n_test, n_val, n_test


def _earliest_argmin(losses) -> int:
    best = min(losses)
    return next(i for i, loss in enumerate(losses) if loss == best)


def _reflect(i: int, n: int) -> int:
    """numpy's "reflect" padding index, written out."""
    if i < 0:
        i = -i
    if i >= n:
        i = 2 * (n - 1) - i
    return i


def _check_infer(params, lattices, rng, pixels: int) -> list[str]:
    """infer() against the straight-line oracle on sampled pixels."""
    side = int(round(math.sqrt(params.input_dim)))
    c = (side - 1) // 2
    failures = []
    for values in lattices:
        predicted = inferrer.infer(values, params)
        height, width = values.shape
        for _ in range(pixels):
            y, x = int(rng.integers(height)), int(rng.integers(width))
            patch = [
                values[_reflect(y + dy - c, height), _reflect(x + dx - c, width)]
                for dy in range(side)
                for dx in range(side)
            ]
            expected = oracles.forward_reference(params.w1, params.b1, params.w2, params.b2, patch)
            if abs(predicted[y, x] - expected) > 1e-9 * (1.0 + abs(expected)):
                failures.append(f"infer at ({x}, {y}) = {float(predicted[y, x])!r}, oracle {expected!r}")
    return failures


class Search:
    """pipeline.loop over configs/benchmark.json's data and four decoder
    candidates, then pipeline.test of the selected solution on dense
    held-out scenes made from the seed."""

    def setup(self, seed: int):
        cfg = _benchmark_config(SEARCH_EPOCHS)
        train, val, _ = _benchmark_data(cfg)
        dense = {"blob_count_min": HELDOUT_BLOBS[0], "blob_count_max": HELDOUT_BLOBS[1]}
        test = _scenes(cfg.synth, seed, 1, HELDOUT_N, **dense)
        return {"seed": seed, "cfg": cfg, "train": train, "val": val, "test": test}

    def round(self, state):
        cfg = state["cfg"]
        start = perf_counter()
        result = pipeline.loop(
            state["train"], state["val"], cfg.decoder_space, cfg.arch, cfg.train_cfg,
            cfg.encoder_space, cfg.match_tolerance, workers=1,
        )
        # The held-out scenes are tested in chunks, so that the metric is a
        # median over pieces like the other throughputs.
        samples = state["test"].samples
        chunks = [data.Dataset(samples[i : i + TEST_CHUNK]) for i in range(0, len(samples), TEST_CHUNK)]
        tests = [_timed(pipeline.test, chunk, result, cfg.match_tolerance) for chunk in chunks]
        wall_s = perf_counter() - start
        learned = [e.solution for e in result.entries if not e.failed]
        figures = {
            "wall_s": wall_s,
            "attempted": len(result.entries) + len(chunks),
            "failed": len(result.entries) - len(learned),
            "rates": {
                "train_pixels_per_s": [(sum(_train_pixels(s, cfg) for s in learned), wall_s)],
                "fit_evals_per_s": [(len(learned) * len(cfg.encoder_space) * state["val"].n, wall_s)],
                "test_images_per_s": [(chunk.n, seconds) for chunk, (_, seconds) in zip(chunks, tests)],
            },
        }
        return figures, {"result": result, "digest": search_digest(result), "chunk": chunks[0], "report": tests[0][0]}

    def check(self, state, outputs) -> list[str]:
        failures = []
        digests = sorted({out["digest"] for out in outputs})
        if len(digests) != 1:
            failures.append(f"rounds disagree on the digest: {digests}")
        result = outputs[-1]["result"]
        ok = [(i, e) for i, e in enumerate(result.entries) if not e.failed]
        argmin = ok[_earliest_argmin([e.validation_loss for _, e in ok])][0]
        if result.selected_index != argmin:
            failures.append(f"selected index {result.selected_index}, earliest argmin {argmin}")
        selected = result.entries[result.selected_index]
        if selected.decoder_params.variant is not decoder.DecoderVariant.CAREFUL:
            failures.append("the selected decoder is not careful")
        for i, e in ok:
            if e.decoder_params.variant is decoder.DecoderVariant.CARELESS:
                f1_sel, f1_careless = selected.solution.validation_report.f1, e.solution.validation_report.f1
                if not f1_sel > f1_careless:
                    failures.append(f"selected validation F1 {f1_sel} does not beat careless {f1_careless}")
        rng = np.random.default_rng(state["seed"])
        lattices = [s.lattice.values for s in state["val"].samples[:2]]
        for i, e in ok:
            sol = e.solution
            if not np.all(np.isfinite(sol.step_losses)):
                failures.append(f"candidate {i}: non-finite step loss")
            if not sol.epoch_losses[-1] < sol.step_losses[0]:
                failures.append(f"candidate {i}: last epoch loss {sol.epoch_losses[-1]} >= first step loss")
            table = sol.encoder_table
            if sol.encoder_params != table[_earliest_argmin([loss for _, loss in table])][0]:
                failures.append(f"candidate {i}: fit_encoder did not return the earliest minimum of its table")
            failures += [f"candidate {i}: {f}" for f in _check_infer(sol.inferrer_params, lattices, rng, 4)]
        return failures + _check_test(state["cfg"], selected.solution, outputs[-1]["chunk"], outputs[-1]["report"], rng)


def search_digest(result) -> str:
    """SHA-256 over every candidate's parameters and step losses, in order."""
    h = hashlib.sha256()
    for entry in result.entries:
        if entry.failed:
            h.update(b"failed:" + entry.error.encode())
            continue
        p = entry.solution.inferrer_params
        for array in (p.w1, p.b1, p.w2, [p.b2], entry.solution.step_losses):
            h.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return h.hexdigest()


def _check_test(cfg, solution, chunk, report, rng) -> list[str]:
    """encode against the oracle on sampled held-out maps, and the test
    report's counts against the truth and the predicted points."""
    failures = []
    maps = [inferrer.infer(s.lattice, solution.inferrer_params) for s in chunk.samples]
    for k in rng.choice(len(maps), size=2, replace=False):
        for params in (solution.encoder_params, cfg.encoder_space.candidates[int(rng.integers(len(cfg.encoder_space)))]):
            got = encoder.encode(maps[k], params).points.tolist()
            want = oracles.encode_reference(maps[k], params.threshold, params.min_separation)
            if got != [list(p) for p in want]:
                failures.append(f"encode differs from the oracle on held-out map {k} under {params}")
    truth = sum(len(s.truth) for s in chunk.samples)
    predicted = sum(len(encoder.encode(m, solution.encoder_params)) for m in maps)
    if report.tp + report.fn != truth or report.tp + report.fp != predicted:
        failures.append(
            f"test report tp {report.tp} fn {report.fn} fp {report.fp} vs {truth} truth and {predicted} predicted points"
        )
    return failures


# Thousands of small images, a small model and one epoch: storage is a
# large share of the round.
CLI_CONFIG = {
    "synth": {
        "width": 32,
        "height": 32,
        "blob_count_min": 2,
        "blob_count_max": 5,
        "blob_amplitude": 0.6,
        "blob_radius": 2.5,
        "min_separation": 5.0,
        "noise_std": 0.05,
        "n": 1000,
        "fractions": [0.8, 0.1, 0.1],
    },
    "decoder": {"sigmas": [1.5], "radius_multiplier": 3.0, "include_careless": False},
    "inferrer": {"context_radius": 2, "hidden_units": 8, "epochs": 1, "learning_rate": 0.05, "batch_pixels": 4096},
    "encoder": {"thresholds": [0.2, 0.3, 0.4, 0.5, 0.6], "min_separations": [2.0, 4.0]},
    "metrics": {"match_tolerance": 2.0},
}


class CliRoundtrip:
    """msl gen, learn, test and report through msl.cli.main.

    Every round and every run writes the same directory, over the files of
    the one before. Creating thousands of new files on an ext4 volume took
    from 40 to 600 microseconds a file as the volume's state changed
    (deleting files set it off), which no bound can hold; overwriting
    costs the same every time. The check makes sure every file the last
    round relies on was written by that round.
    """

    def setup(self, seed: int):
        work = WORK_DIR / "cli-roundtrip"
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.json"
        config.write_text(json.dumps(dict(CLI_CONFIG, seed=seed, out_dir=str(work)), indent=2))
        # A user pays the CLI's start-up on every command: time `msl --help`
        # in a fresh interpreter.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run(
            [sys.executable, "-m", "msl.cli", "--help"], env=env, check=True, stdout=subprocess.DEVNULL, timeout=60
        )
        return {"work": work, "config": config, "cfg": cli.load_config(config)}

    def round(self, state):
        cfg = state["cfg"]
        dataset, run = state["work"] / "dataset", state["work"] / "run"
        commands = {
            "gen": ["gen", "--config", str(state["config"]), "--out", str(dataset)],
            "learn": ["learn", "--config", str(state["config"]), "--data", str(dataset), "--out", str(run)],
            "test": ["test", "--run", str(run), "--data", str(dataset)],
            "report": ["report", "--run", str(run)],
        }
        codes, seconds, started_ns = {}, {}, {}
        start = perf_counter()
        for name, argv in commands.items():
            started_ns[name] = time_ns()
            with contextlib.redirect_stdout(io.StringIO()):
                codes[name], seconds[name] = _timed(cli.main, argv)
        wall_s = perf_counter() - start
        n_train, n_val, n_test = _split_sizes(cfg.n, cfg.fractions)
        steps = math.ceil(n_train * cfg.synth.width * cfg.synth.height / cfg.train_cfg.batch_pixels)
        figures = {
            "wall_s": wall_s,
            "attempted": len(commands),
            "failed": sum(code != 0 for code in codes.values()),
            "rates": {
                "train_pixels_per_s": [(cfg.train_cfg.epochs * steps * cfg.train_cfg.batch_pixels, seconds["learn"])],
                "fit_evals_per_s": [(len(cfg.encoder_space) * n_val, seconds["learn"])],
                "test_images_per_s": [(n_test, seconds["test"])],
            },
        }
        return figures, {"codes": codes, "dataset": dataset, "run": run, "started_ns": started_ns}

    def check(self, state, outputs) -> list[str]:
        cfg = state["cfg"]
        out = outputs[-1]
        failures = [f"msl {name} exited {code}" for name, code in out["codes"].items() if code != 0]
        if failures:
            return failures
        run, dataset = out["run"], out["dataset"]
        samples = storage.read_json(dataset / "manifest.json")["samples"]
        written = {
            "gen": [dataset / "manifest.json"] + [dataset / name for entry in samples for name in entry.values()],
            "learn": [run / name for name in storage.read_json(run / "manifest.json")["artifacts"] + ["manifest.json"]],
            "test": [run / "test_report.json"],
            "report": [run / "report.csv"],
        }
        for command, paths in written.items():
            # File times come from a clock that may lag by a tick (at most
            # 10 ms); an earlier round wrote these files seconds earlier.
            oldest = out["started_ns"][command] - 50_000_000
            for path in paths:
                if not path.is_file():
                    failures.append(f"msl {command} did not write {path.relative_to(state['work'])}")
                elif path.stat().st_mtime_ns < oldest:
                    failures.append(f"{path.relative_to(state['work'])} was not written by the last msl {command}")
        # The saved run, reloaded, reproduces its stored validation report.
        _, _, params = inferrer.load_model(run)
        encoder_params = encoder.EncoderParams.from_json_dict(storage.read_json(run / "encoder_params.json"))
        ds, _ = storage.load_dataset(dataset)
        _, val, _ = data.split(ds, cfg.fractions, cfg.split_seed)
        predictions = [encoder.encode(inferrer.infer(s.lattice, params), encoder_params) for s in val.samples]
        again = metrics.report(predictions, [s.truth for s in val.samples], cfg.match_tolerance).to_json_dict()
        stored = storage.read_json(run / "validation_report.json")
        if json.loads(json.dumps(again)) != stored:
            failures.append(f"reloaded run gives validation report {again}, stored {stored}")
        return failures


WORKLOADS = {"search": Search, "cli-roundtrip": CliRoundtrip}
