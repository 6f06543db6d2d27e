"""Command-line entry point: file-backed, reproducible experiments.

Subcommands mirror the procedures: gen (dataset), learn (one decoder),
loop (decoder search), test (held-out evaluation), report (table dump).
All randomness flows from the config's single master seed; wall-clock
numbers are confined to "timings" objects so runs can be compared
byte-for-byte without them.

A run directory, of `learn` or `loop`, holds the files of each solution
that finished, results.json and manifest.json. results.json is one record
for both kinds: the kind, the config, selected_index, the timings and one
row per candidate (index, decoder_params, validation_loss, error, the dir
of its solution and its seconds). A learn run is one row, index 0, whose
solution is at the top level (dir ""); a loop run's finished candidate i
is in candidate_{i:02d}/, and a failed one has dir null. selected_index
must be the earliest index of lowest validation loss, and `test` scores
the solution in the dir of its row. A solution's encoder params, epoch
losses and validation report are stored in its own files only.
manifest.json, written last, lists the run's artifacts and the versions
that wrote them: `test` and `report` refuse a run without it. A rerun
touches the directory only after its pipeline has returned, so a rerun
that fails or is refused leaves the earlier run whole.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, SynthConfig, generate_dataset, split_indices, split_sizes
from .decoder import DecoderParams, DecoderSpace, decoder_grid
from .encoder import EncoderParams, EncoderSpace, encoder_grid
from .errors import ConfigError, MissingArtifactError
from .inferrer import Architecture, TrainConfig, load_model, save_model
from .pipeline import LoopEntry, LoopResult, Predictor, learn, loop, test
from .seeds import derive_seed
from .storage import (
    fields, finite, floats, integer, load_dataset, optional, read_json, read_manifest, reading, require, save_dataset,
    section, string, write_file, write_json,
)

log = logging.getLogger("msl")

# Stream tags for deriving sub-seeds from the master seed.
_SYNTH_STREAM = 1
_SPLIT_STREAM = 2
_TRAIN_STREAM = 3

# The files of one learned solution, as `_write_run` writes them.
_SOLUTION_FILES = (
    "model.json", "model.msl1", "encoder_params.json", "encoder_table.csv", "trace.csv", "validation_report.json"
)


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    out_dir: str
    synth: SynthConfig
    n: int
    fractions: tuple[float, float, float]
    decoder_space: DecoderSpace
    arch: Architecture
    train_cfg: TrainConfig
    encoder_space: EncoderSpace
    match_tolerance: float
    raw: dict

    @property
    def split_seed(self) -> int:
        return derive_seed(self.master_seed, _SPLIT_STREAM)


# The synth fields that make a SynthConfig, with the seed derived from the master seed.
_SYNTH_FIELDS = dict(
    width=integer, height=integer, blob_count_min=integer, blob_count_max=integer,
    blob_amplitude=finite, blob_radius=finite, min_separation=finite, noise_std=finite,
)


def parse_config(raw: dict) -> ExperimentConfig:
    master_seed = require(raw, "seed", integer)
    out_dir = require(raw, "out_dir", string)
    synth = SynthConfig(**section(raw, "synth", **_SYNTH_FIELDS), seed=derive_seed(master_seed, _SYNTH_STREAM))
    n, fractions = section(raw, "synth", n=integer, fractions=floats).values()
    if len(fractions) != 3:
        raise ConfigError("'synth.fractions' must be [train, val, test]")
    split_sizes(n, fractions)

    include_careless = require(raw, "decoder", dict).get("include_careless", False)
    if not isinstance(include_careless, bool):
        raise ConfigError(f"field 'decoder.include_careless' must be true or false, got {include_careless!r}")
    decoder_space = decoder_grid(
        **section(raw, "decoder", sigmas=floats, radius_multiplier=finite), include_careless=include_careless
    )
    arch = Architecture(**section(raw, "inferrer", context_radius=integer, hidden_units=integer))
    train_cfg = TrainConfig(
        **section(raw, "inferrer", epochs=integer, learning_rate=finite, batch_pixels=integer),
        seed=derive_seed(master_seed, _TRAIN_STREAM),
    )
    encoder_space = encoder_grid(*section(raw, "encoder", thresholds=floats, min_separations=floats).values())
    match_tolerance = section(raw, "metrics", match_tolerance=finite)["match_tolerance"]
    if match_tolerance <= 0.0:
        raise ConfigError("'metrics.match_tolerance' must be positive")

    return ExperimentConfig(
        master_seed=master_seed, out_dir=out_dir, synth=synth, n=n, fractions=tuple(fractions),
        decoder_space=decoder_space, arch=arch, train_cfg=train_cfg, encoder_space=encoder_space,
        match_tolerance=match_tolerance, raw=raw,
    )


def load_config(path: Path) -> ExperimentConfig:
    try:
        raw = read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(raw)


def _parse_decoder_flag(text: str, radius_multiplier: float) -> DecoderParams:
    if text == "careless":
        return DecoderParams.careless()
    if text.startswith("careful:"):
        try:
            sigma = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"--decoder careful:SIGMA needs a number, got {text!r}")
        return DecoderParams.careful(sigma, radius_multiplier * sigma)
    raise ConfigError(f"--decoder must be 'careless' or 'careful:SIGMA', got {text!r}")


def _load_splits(cfg: ExperimentConfig, data: str | None, *parts: str) -> list[Dataset]:
    """The config's splits named in `parts` ("train", "val", "test") of the
    dataset in directory `data` (default: the config's out_dir/dataset),
    read in one pass; no other sample is read. The dataset must have the
    config's size and seed, and its manifest's echoed synth section the
    config's image settings: another dataset splits differently, or holds
    other images, so a run's config would not describe its data. The split
    fractions may differ, since the split is cut here."""
    data_dir = Path(data) if data else Path(cfg.out_dir) / "dataset"
    manifest = read_manifest(data_dir)
    for key, expected in (("n", cfg.n), ("seed", cfg.synth.seed)):
        if manifest[key] != expected:
            raise ConfigError(
                f"dataset {data_dir} has {key} {manifest[key]!r}, but the config gives synth {key} {expected!r}"
            )
    with reading(data_dir / "manifest.json"):
        made = SynthConfig(**section(require(manifest, "config", dict), "synth", **_SYNTH_FIELDS), seed=cfg.synth.seed)
    for key in _SYNTH_FIELDS:
        if getattr(made, key) != getattr(cfg.synth, key):
            raise ConfigError(
                f"dataset {data_dir} has synth {key} {getattr(made, key)!r}, "
                f"but the config gives synth {key} {getattr(cfg.synth, key)!r}"
            )
    indices = dict(zip(("train", "val", "test"), split_indices(cfg.n, cfg.fractions, cfg.split_seed)))
    ds, _ = load_dataset(data_dir, np.concatenate([indices[part] for part in parts]))
    splits, start = [], 0
    for part in parts:
        splits.append(Dataset(ds.samples[start : start + len(indices[part])]))
        start += len(indices[part])
    return splits


def _write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV file in UTF-8, with the csv module's \\r\\n line ends."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_file(path, text.getvalue().encode("utf-8"))


def _write_run(run_dir: Path, cfg: ExperimentConfig, kind: str, result: LoopResult, started: float) -> None:
    """Write a run directory from what a pipeline returned: delete the
    earlier run's manifest.json, write each finished candidate's solution
    (a learn run's at the top level, a loop run's in candidate_NN/), then
    results.json with one row per candidate, and manifest.json last."""
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "manifest.json").unlink(missing_ok=True)
    artifacts, candidates = ["results.json"], []
    for i, entry in enumerate(result.entries):
        subdir, solution = None, entry.solution
        if solution is not None:
            subdir = "" if kind == "learn" else f"candidate_{i:02d}"
            directory = run_dir / subdir
            directory.mkdir(exist_ok=True)
            save_model(directory, cfg.arch, cfg.train_cfg, solution.inferrer_params)
            write_json(directory / "encoder_params.json", solution.encoder_params.to_json_dict())
            _write_csv(
                directory / "encoder_table.csv",
                ["threshold", "min_separation", "mean_loss"],
                ([p.threshold, p.min_separation, repr(loss)] for p, loss in solution.encoder_table),
            )
            _write_csv(
                directory / "trace.csv",
                ["epoch", "mean_loss"],
                ([epoch, repr(float(value))] for epoch, value in enumerate(solution.epoch_losses)),
            )
            write_json(directory / "validation_report.json", solution.validation_report.to_json_dict())
            artifacts += [(Path(subdir) / name).as_posix() for name in _SOLUTION_FILES]
        candidates.append({
            "index": i, "decoder_params": entry.decoder_params.to_json_dict(), "validation_loss": entry.validation_loss,
            "error": entry.error, "dir": subdir, "timings": {"seconds": entry.seconds},
        })
    write_json(run_dir / "results.json", {
        "kind": kind, "config": cfg.raw, "candidates": candidates, "selected_index": result.selected_index,
        "timings": {"wall_clock_s": time.perf_counter() - started},
    })
    for name in artifacts:
        if not (run_dir / name).exists():
            raise MissingArtifactError(f"artifact missing at run end: {run_dir / name}")
    versions = {"msl": __version__, "numpy": np.__version__, "python": platform.python_version()}
    write_json(run_dir / "manifest.json", {"artifacts": sorted(artifacts), "versions": versions})


def _read_run(run_dir: Path) -> tuple[ExperimentConfig, Path, list[tuple]]:
    """A finished run's stored config, its selected solution's directory and
    its candidate rows (selected, decoder params, validation_loss, error),
    lowest validation loss first. A run is finished once its manifest.json,
    written last, exists."""
    for name in ("results.json", "manifest.json"):
        if not (run_dir / name).exists():
            raise MissingArtifactError(f"run directory has no {name}: {run_dir}")
    # Every field is read here, within `reading`, so that `report` cannot fail on one after printing.
    with reading(run_dir / "results.json"):
        results = read_json(run_dir / "results.json")
        kind = require(results, "kind", string)
        if kind not in ("learn", "loop"):
            raise ValueError(f"kind {kind!r} is neither 'learn' nor 'loop'")
        cfg = parse_config(require(results, "config", dict))
        selected_index = require(results, "selected_index", integer)
        candidates = [
            fields(c, f"candidates[{i}].", index=integer, dir=optional(string), validation_loss=optional(finite),
                   error=optional(string), decoder_params=DecoderParams.from_json_dict)
            for i, c in enumerate(require(results, "candidates", list))
        ]
        indices = [c["index"] for c in candidates]
        for i, index in enumerate(indices):
            if indices.index(index) != i:
                raise ValueError(f"candidates[{indices.index(index)}].index and candidates[{i}].index are both {index}")
        dirs = {c["index"]: c["dir"] for c in candidates}
        if dirs.get(selected_index) is None:
            raise ValueError(f"selected_index {selected_index} is not the index of a listed candidate with a dir")
        candidates.sort(key=lambda c: (c["validation_loss"] is None, c["validation_loss"], c["index"]))
        best = candidates[0]
        if best["validation_loss"] is None or best["index"] != selected_index:
            raise ValueError(f"selected_index {selected_index} is not {best['index']}, the earliest lowest validation loss")
    rows = [(c["index"] == selected_index, c["decoder_params"], c["validation_loss"], c["error"]) for c in candidates]
    return cfg, run_dir / dirs[selected_index], rows


def cmd_gen(args) -> int:
    started = time.perf_counter()
    cfg = load_config(Path(args.config))
    out = Path(args.out) if args.out else Path(cfg.out_dir) / "dataset"
    ds = generate_dataset(cfg.synth, cfg.n)
    manifest_path = save_dataset(ds, out, seed=cfg.synth.seed, config_echo=cfg.raw)
    log.info("gen: wrote %d samples to %s in %.2fs", ds.n, out, time.perf_counter() - started)
    print(f"dataset: {out} ({ds.n} samples, manifest {manifest_path.name})")
    return 0


def cmd_learn(args) -> int:
    started = time.perf_counter()
    cfg = load_config(Path(args.config))
    if args.decoder:
        decoder_params = _parse_decoder_flag(args.decoder, float(cfg.raw["decoder"]["radius_multiplier"]))
    else:
        decoder_params = cfg.decoder_space.candidates[0]
    train_split, val_split = _load_splits(cfg, args.data, "train", "val")
    run_dir = Path(args.out) if args.out else Path(cfg.out_dir) / "learn"
    log.info("learn: %s on %d train / %d val samples", decoder_params.to_json_dict(), train_split.n, val_split.n)
    learn_started = time.perf_counter()
    solution = learn(
        train_split, val_split, decoder_params, cfg.arch, cfg.train_cfg,
        cfg.encoder_space, cfg.match_tolerance,
    )
    entry = LoopEntry(decoder_params, solution, None, time.perf_counter() - learn_started)
    _write_run(run_dir, cfg, "learn", LoopResult((entry,), 0), started)
    print(f"learn: validation f1 {solution.validation_report.f1:.4f} -> {run_dir}")
    return 0


def cmd_loop(args) -> int:
    started = time.perf_counter()
    cfg = load_config(Path(args.config))
    train_split, val_split = _load_splits(cfg, args.data, "train", "val")
    run_dir = Path(args.out) if args.out else Path(cfg.out_dir) / "loop"
    log.info("loop: %d candidates, %d workers", len(cfg.decoder_space), args.workers)
    result = loop(
        train_split, val_split, cfg.decoder_space, cfg.arch, cfg.train_cfg,
        cfg.encoder_space, cfg.match_tolerance, workers=args.workers,
    )
    _write_run(run_dir, cfg, "loop", result, started)
    selected = result.entries[result.selected_index]
    print(
        f"loop: selected candidate {result.selected_index} "
        f"{selected.decoder_params.to_json_dict()} "
        f"(validation loss {selected.validation_loss:.4f}) -> {run_dir}"
    )
    return 0


def cmd_test(args) -> int:
    run_dir = Path(args.run)
    cfg, solution_dir, _ = _read_run(run_dir)
    encoder_path = solution_dir / "encoder_params.json"
    with reading(encoder_path):
        encoder_params = EncoderParams.from_json_dict(read_json(encoder_path))
    predictor = Predictor(load_model(solution_dir)[2], encoder_params)
    (test_split,) = _load_splits(cfg, args.data, "test")
    test_report = test(test_split, predictor, cfg.match_tolerance)
    write_json(run_dir / "test_report.json", test_report.to_json_dict())
    print(
        f"test: f1 {test_report.f1:.4f} precision {test_report.precision:.4f} "
        f"recall {test_report.recall:.4f} -> {run_dir / 'test_report.json'}"
    )
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    rows = _read_run(run_dir)[2]
    print(f"{'sel':>3} {'variant':>9} {'sigma':>6} {'radius':>6} {'val_loss':>10}")
    records = []
    for selected, params, loss, error in rows:
        variant, sigma, radius = params.variant.value, params.sigma, params.radius
        print(
            f"{'*' if selected else '':>3} "
            f"{variant:>9} "
            f"{'' if sigma is None else f'{sigma:g}':>6} "
            f"{'' if radius is None else f'{radius:g}':>6} "
            f"{'failed' if loss is None else f'{loss:.6f}':>10}"
        )
        records.append([
            variant, "" if sigma is None else sigma, "" if radius is None else radius,
            "" if loss is None else repr(loss), int(selected), error or "",
        ])
    csv_path = run_dir / "report.csv"
    _write_csv(csv_path, ["variant", "sigma", "radius", "validation_loss", "selected", "error"], records)
    print(f"report: {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="msl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset directory")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_gen)

    learn_p = sub.add_parser("learn", help="one learning run under fixed decoder params")
    learn_p.add_argument("--config", required=True)
    learn_p.add_argument("--data", default=None)
    learn_p.add_argument("--out", default=None)
    learn_p.add_argument("--decoder", default=None, help="careless | careful:SIGMA")
    learn_p.set_defaults(func=cmd_learn)

    loop_p = sub.add_parser("loop", help="search the decoder space")
    loop_p.add_argument("--config", required=True)
    loop_p.add_argument("--data", default=None)
    loop_p.add_argument("--out", default=None)
    loop_p.add_argument("--workers", type=int, default=1)
    loop_p.set_defaults(func=cmd_loop)

    test_p = sub.add_parser("test", help="evaluate a run on the held-out test split")
    test_p.add_argument("--run", required=True)
    test_p.add_argument("--data", default=None)
    test_p.set_defaults(func=cmd_test)

    report_p = sub.add_parser("report", help="print and export a run's candidate table")
    report_p.add_argument("--run", required=True)
    report_p.set_defaults(func=cmd_report)
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("MSL_LOG", "").lower()
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:  # MissingArtifactError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # divergence, loop failure, format errors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
