"""Command-line entry point: file-backed, reproducible experiments.

Subcommands mirror the procedures: gen (dataset), learn (one decoder),
loop (decoder search), test (held-out evaluation), report (table dump).
All randomness flows from the config's single master seed; wall-clock
numbers are confined to "timings" objects so runs can be compared
byte-for-byte without them.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset, SynthConfig, generate_dataset, split
from .decoder import DecoderParams, DecoderSpace, decoder_grid
from .encoder import EncoderParams, EncoderSpace, encoder_grid
from .errors import ConfigError, MissingArtifactError
from .inferrer import Architecture, TrainConfig, load_model, save_model
from .metrics import DetectionReport
from .pipeline import LearnedSolution, LoopResult, learn, loop, test
from .seeds import derive_seed
from .storage import load_dataset, read_json, save_dataset, write_json

log = logging.getLogger("msl")

# Stream tags for deriving sub-seeds from the master seed.
_SYNTH_STREAM = 1
_SPLIT_STREAM = 2
_TRAIN_STREAM = 3


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


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _require(section: dict, key: str, where: str, kind):
    """section[key] converted by `kind`; a missing or unconvertible value is
    a ConfigError naming the field."""
    if not isinstance(section, dict) or key not in section:
        raise ConfigError(f"missing required field '{where}{key}'")
    try:
        return kind(section[key])
    except (TypeError, ValueError):
        raise ConfigError(f"field '{where}{key}' has an invalid value {section[key]!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    master_seed = _require(raw, "seed", "", int)
    out_dir = _require(raw, "out_dir", "", str)

    s = _require(raw, "synth", "", dict)
    synth = SynthConfig(
        width=_require(s, "width", "synth.", int),
        height=_require(s, "height", "synth.", int),
        blob_count_min=_require(s, "blob_count_min", "synth.", int),
        blob_count_max=_require(s, "blob_count_max", "synth.", int),
        blob_amplitude=_require(s, "blob_amplitude", "synth.", float),
        blob_radius=_require(s, "blob_radius", "synth.", float),
        min_separation=_require(s, "min_separation", "synth.", float),
        noise_std=_require(s, "noise_std", "synth.", float),
        seed=derive_seed(master_seed, _SYNTH_STREAM),
    )
    n = _require(s, "n", "synth.", int)
    fractions = tuple(_require(s, "fractions", "synth.", _floats))
    if len(fractions) != 3:
        raise ConfigError("'synth.fractions' must be [train, val, test]")

    d = _require(raw, "decoder", "", dict)
    decoder_space = decoder_grid(
        _require(d, "sigmas", "decoder.", _floats),
        _require(d, "radius_multiplier", "decoder.", float),
        include_careless=bool(d.get("include_careless", False)),
    )

    i = _require(raw, "inferrer", "", dict)
    arch = Architecture(
        context_radius=_require(i, "context_radius", "inferrer.", int),
        hidden_units=_require(i, "hidden_units", "inferrer.", int),
    )
    train_cfg = TrainConfig(
        epochs=_require(i, "epochs", "inferrer.", int),
        learning_rate=_require(i, "learning_rate", "inferrer.", float),
        batch_pixels=_require(i, "batch_pixels", "inferrer.", int),
        seed=derive_seed(master_seed, _TRAIN_STREAM),
    )

    e = _require(raw, "encoder", "", dict)
    encoder_space = encoder_grid(
        _require(e, "thresholds", "encoder.", _floats),
        _require(e, "min_separations", "encoder.", _floats),
    )

    m = _require(raw, "metrics", "", dict)
    match_tolerance = _require(m, "match_tolerance", "metrics.", float)
    if match_tolerance <= 0.0:
        raise ConfigError("'metrics.match_tolerance' must be positive")

    return ExperimentConfig(
        master_seed=master_seed,
        out_dir=out_dir,
        synth=synth,
        n=n,
        fractions=fractions,
        decoder_space=decoder_space,
        arch=arch,
        train_cfg=train_cfg,
        encoder_space=encoder_space,
        match_tolerance=match_tolerance,
        raw=raw,
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


def _versions() -> dict:
    return {"msl": __version__, "numpy": np.__version__, "python": platform.python_version()}


def _load_splits(cfg: ExperimentConfig, data_dir: Path) -> tuple[Dataset, Dataset, Dataset]:
    ds, _ = load_dataset(data_dir)
    return split(ds, cfg.fractions, cfg.split_seed)


def _write_manifest(run_dir: Path, cfg_raw: dict, artifacts: list[str], started: float) -> None:
    for name in artifacts:
        if not (run_dir / name).exists():
            raise MissingArtifactError(f"artifact missing at run end: {run_dir / name}")
    write_json(
        run_dir / "manifest.json",
        {
            "config": cfg_raw,
            "artifacts": sorted(artifacts),
            "versions": _versions(),
            "timings": {"wall_clock_s": time.perf_counter() - started},
        },
    )


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _solution_artifacts(directory: Path, cfg: ExperimentConfig, solution: LearnedSolution) -> list[str]:
    """Write one solution's files into `directory`; returns relative names."""
    directory.mkdir(parents=True, exist_ok=True)
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
        ([i, repr(float(value))] for i, value in enumerate(solution.epoch_losses)),
    )
    write_json(directory / "validation_report.json", solution.validation_report.to_json_dict())
    return ["model.json", "model.msl1", "encoder_params.json", "encoder_table.csv", "trace.csv", "validation_report.json"]


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
    data_dir = Path(args.data) if args.data else Path(cfg.out_dir) / "dataset"
    if args.decoder:
        decoder_params = _parse_decoder_flag(
            args.decoder, float(cfg.raw["decoder"]["radius_multiplier"])
        )
    else:
        decoder_params = cfg.decoder_space.candidates[0]
    run_dir = Path(args.out) if args.out else Path(cfg.out_dir) / "learn"
    run_dir.mkdir(parents=True, exist_ok=True)

    train_split, val_split, _ = _load_splits(cfg, data_dir)
    log.info("learn: %s on %d train / %d val samples", decoder_params.to_json_dict(), train_split.n, val_split.n)
    solution = learn(
        train_split, val_split, decoder_params, cfg.arch, cfg.train_cfg,
        cfg.encoder_space, cfg.match_tolerance,
    )
    artifacts = _solution_artifacts(run_dir, cfg, solution)
    results = {
        "kind": "learn",
        "config": cfg.raw,
        "decoder_params": solution.decoder_params.to_json_dict(),
        "encoder_params": solution.encoder_params.to_json_dict(),
        "validation_report": solution.validation_report.to_json_dict(),
        "epoch_losses": [float(x) for x in solution.epoch_losses],
        "artifacts": {name: name for name in artifacts},
        "timings": {"wall_clock_s": time.perf_counter() - started},
    }
    write_json(run_dir / "results.json", results)
    _write_manifest(run_dir, cfg.raw, artifacts + ["results.json"], started)
    print(f"learn: validation f1 {solution.validation_report.f1:.4f} -> {run_dir}")
    return 0


def cmd_loop(args) -> int:
    started = time.perf_counter()
    cfg = load_config(Path(args.config))
    data_dir = Path(args.data) if args.data else Path(cfg.out_dir) / "dataset"
    run_dir = Path(args.out) if args.out else Path(cfg.out_dir) / "loop"
    run_dir.mkdir(parents=True, exist_ok=True)

    train_split, val_split, _ = _load_splits(cfg, data_dir)
    log.info("loop: %d candidates, %d workers", len(cfg.decoder_space), args.workers)
    result = loop(
        train_split, val_split, cfg.decoder_space, cfg.arch, cfg.train_cfg,
        cfg.encoder_space, cfg.match_tolerance, workers=args.workers,
    )

    artifacts: list[str] = []
    candidates = []
    for i, entry in enumerate(result.entries):
        row = {
            "index": i,
            "decoder_params": entry.decoder_params.to_json_dict(),
            "validation_loss": entry.validation_loss,
            "error": entry.error,
            "dir": None,
            "timings": {"seconds": entry.seconds},
        }
        if entry.solution is not None:
            cand_dir = f"candidate_{i:02d}"
            names = _solution_artifacts(run_dir / cand_dir, cfg, entry.solution)
            artifacts.extend(f"{cand_dir}/{name}" for name in names)
            row["dir"] = cand_dir
            row["validation_report"] = entry.solution.validation_report.to_json_dict()
        candidates.append(row)

    selected = result.entries[result.selected_index]
    results = {
        "kind": "loop",
        "config": cfg.raw,
        "candidates": candidates,
        "selected_index": result.selected_index,
        "selected": {
            "decoder_params": selected.decoder_params.to_json_dict(),
            "validation_loss": selected.validation_loss,
            "dir": f"candidate_{result.selected_index:02d}",
        },
        "timings": {"wall_clock_s": time.perf_counter() - started},
    }
    write_json(run_dir / "results.json", results)
    _write_manifest(run_dir, cfg.raw, artifacts + ["results.json"], started)
    print(
        f"loop: selected candidate {result.selected_index} "
        f"{selected.decoder_params.to_json_dict()} "
        f"(validation loss {selected.validation_loss:.4f}) -> {run_dir}"
    )
    return 0


def _solution_dir_of_run(run_dir: Path, results: dict) -> Path:
    if results["kind"] == "learn":
        return run_dir
    selected = results["selected"]["dir"]
    return run_dir / selected


def cmd_test(args) -> int:
    run_dir = Path(args.run)
    results_path = run_dir / "results.json"
    if not results_path.exists():
        raise MissingArtifactError(f"run directory has no results.json: {run_dir}")
    results = read_json(results_path)
    cfg = parse_config(results["config"])

    sol_dir = _solution_dir_of_run(run_dir, results)
    for name in ("model.json", "model.msl1", "encoder_params.json"):
        if not (sol_dir / name).exists():
            raise MissingArtifactError(f"missing artifact: {sol_dir / name}")
    _, _, inferrer_params = load_model(sol_dir)
    encoder_params = EncoderParams.from_json_dict(read_json(sol_dir / "encoder_params.json"))
    decoder_params = DecoderParams.from_json_dict(
        results["decoder_params"] if results["kind"] == "learn" else results["selected"]["decoder_params"]
    )

    data_dir = Path(args.data) if args.data else Path(cfg.out_dir) / "dataset"
    _, _, test_split = _load_splits(cfg, data_dir)
    solution = LearnedSolution(
        decoder_params=decoder_params,
        inferrer_params=inferrer_params,
        encoder_params=encoder_params,
        step_losses=np.empty(0),
        epoch_losses=np.empty(0),
        encoder_table=(),
        validation_report=DetectionReport(0.0, 0.0, 0.0, 1.0, 0, 0, 0, cfg.match_tolerance),
    )
    test_report = test(test_split, solution, cfg.match_tolerance)
    write_json(run_dir / "test_report.json", test_report.to_json_dict())
    print(
        f"test: f1 {test_report.f1:.4f} precision {test_report.precision:.4f} "
        f"recall {test_report.recall:.4f} -> {run_dir / 'test_report.json'}"
    )
    return 0


def _report_rows(results: dict) -> list[dict]:
    """Candidate rows, lowest validation loss first; a learn run is one candidate."""
    if results["kind"] == "learn":
        candidates = [
            {
                "index": 0,
                "decoder_params": results["decoder_params"],
                "validation_loss": results["validation_report"]["loss"],
                "error": None,
            }
        ]
        selected_index = 0
    else:
        candidates, selected_index = results["candidates"], results["selected_index"]
    rows = [dict(c, selected=c["index"] == selected_index) for c in candidates]
    rows.sort(key=lambda r: (r["validation_loss"] is None, r["validation_loss"], r["index"]))
    return rows


def cmd_report(args) -> int:
    run_dir = Path(args.run)
    results_path = run_dir / "results.json"
    if not results_path.exists():
        raise MissingArtifactError(f"run directory has no results.json: {run_dir}")
    results = read_json(results_path)
    rows = _report_rows(results)

    print(f"{'sel':>3} {'variant':>9} {'sigma':>6} {'radius':>6} {'val_loss':>10}")
    for row in rows:
        params = row["decoder_params"]
        sigma = params.get("sigma")
        radius = params.get("radius")
        loss_text = "failed" if row["validation_loss"] is None else f"{row['validation_loss']:.6f}"
        print(
            f"{'*' if row['selected'] else '':>3} "
            f"{params['variant']:>9} "
            f"{'' if sigma is None else f'{sigma:g}':>6} "
            f"{'' if radius is None else f'{radius:g}':>6} "
            f"{loss_text:>10}"
        )

    csv_path = run_dir / "report.csv"
    _write_csv(
        csv_path,
        ["variant", "sigma", "radius", "validation_loss", "selected", "error"],
        (
            [
                row["decoder_params"]["variant"],
                row["decoder_params"].get("sigma", ""),
                row["decoder_params"].get("radius", ""),
                "" if row["validation_loss"] is None else repr(row["validation_loss"]),
                int(row["selected"]),
                row["error"] or "",
            ]
            for row in rows
        ),
    )
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
    except (MissingArtifactError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # divergence, loop failure, format errors
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
