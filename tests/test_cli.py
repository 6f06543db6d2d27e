import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from msl import inferrer, storage
from msl.cli import load_config, main
from msl.data import split
from msl.decoder import decode_call_count, reset_decode_call_count
from msl.encoder import EncoderParams, encode
from msl.metrics import report
from msl.pipeline import learn

from helpers import (
    assert_dirs_identical,
    canonical_without_timings,
    small_config_dict,
    strip_timings,
    write_config,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus a finished loop run, shared read-only."""
    root = tmp_path_factory.mktemp("cli")
    cfg = small_config_dict(str(root / "exp"))
    cfg_path = write_config(root / "config.json", cfg)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["loop", "--config", str(cfg_path)]) == 0
    return root, cfg_path, cfg


class TestGen:
    def test_manifest_lists_all_samples(self, workspace):
        root, _, cfg = workspace
        manifest = json.loads((Path(cfg["out_dir"]) / "dataset" / "manifest.json").read_text())
        assert manifest["n"] == cfg["synth"]["n"]
        assert len(manifest["samples"]) == cfg["synth"]["n"]
        for entry in manifest["samples"]:
            assert (Path(cfg["out_dir"]) / "dataset" / entry["lattice"]).exists()

    def test_missing_seed_names_field(self, tmp_path, capsys):
        missing = small_config_dict(str(tmp_path / "exp"))
        del missing["seed"]
        not_a_number = small_config_dict(str(tmp_path / "exp"), seed="abc")
        for i, cfg in enumerate((missing, not_a_number)):
            cfg_path = write_config(tmp_path / f"config{i}.json", cfg)
            assert main(["gen", "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "seed" in err

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        root, cfg_path, cfg = workspace
        again = tmp_path / "dataset2"
        assert main(["gen", "--config", str(cfg_path), "--out", str(again)]) == 0
        assert_dirs_identical(Path(cfg["out_dir"]) / "dataset", again)


class TestLearn:
    def test_careless_override_completes_with_report(self, workspace, tmp_path):
        root, cfg_path, cfg = workspace
        out = tmp_path / "careless_run"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out), "--decoder", "careless"]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["decoder_params"] == {"variant": "careless"}
        assert 0.0 <= results["validation_report"]["f1"] <= 1.0

    def test_two_runs_identical_minus_timings(self, workspace, tmp_path):
        root, cfg_path, cfg = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["learn", "--config", str(cfg_path), "--out", str(a)]) == 0
        assert main(["learn", "--config", str(cfg_path), "--out", str(b)]) == 0
        assert_dirs_identical(a, b)

    def test_saved_model_is_the_trained_model(self, workspace, tmp_path):
        root, cfg_path, cfg = workspace
        out = tmp_path / "saved"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out)]) == 0
        config = load_config(cfg_path)
        ds, _ = storage.load_dataset(Path(cfg["out_dir"]) / "dataset")
        train_split, val_split, _ = split(ds, config.fractions, config.split_seed)
        trained = learn(
            train_split, val_split, config.decoder_space.candidates[0], config.arch,
            config.train_cfg, config.encoder_space, config.match_tolerance,
        ).inferrer_params
        _, _, loaded = inferrer.load_model(out)
        for a, b in ((loaded.w1, trained.w1), (loaded.b1, trained.b1), (loaded.w2, trained.w2)):
            assert a.dtype == b.dtype == np.float32
            np.testing.assert_array_equal(a, b)
        assert loaded.b2 == trained.b2

        # The reloaded run reproduces the validation report it stores.
        encoder_params = EncoderParams.from_json_dict(json.loads((out / "encoder_params.json").read_text()))
        predictions = [encode(inferrer.infer(s.lattice, loaded), encoder_params) for s in val_split.samples]
        again = report(predictions, [s.truth for s in val_split.samples], config.match_tolerance)
        stored = json.loads((out / "validation_report.json").read_text())
        assert json.loads(json.dumps(again.to_json_dict())) == stored

    def test_sigma_override_echoed(self, workspace, tmp_path):
        root, cfg_path, cfg = workspace
        out = tmp_path / "sigma2"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out), "--decoder", "careful:2"]) == 0
        results = json.loads((out / "results.json").read_text())
        assert results["decoder_params"] == {"variant": "careful", "sigma": 2.0, "radius": 6.0}


class TestLoop:
    def test_table_row_per_candidate(self, workspace):
        root, _, cfg = workspace
        results = json.loads((Path(cfg["out_dir"]) / "loop" / "results.json").read_text())
        # grid = careless + one sigma
        assert len(results["candidates"]) == 2
        assert results["selected_index"] in (0, 1)

    def test_single_candidate_grid(self, tmp_path):
        cfg = small_config_dict(str(tmp_path / "exp"))
        cfg["decoder"]["include_careless"] = False
        cfg_path = write_config(tmp_path / "config.json", cfg)
        assert main(["gen", "--config", str(cfg_path)]) == 0
        assert main(["loop", "--config", str(cfg_path)]) == 0
        results = json.loads((tmp_path / "exp" / "loop" / "results.json").read_text())
        assert len(results["candidates"]) == 1
        assert results["selected_index"] == 0

    def test_worker_count_invariance(self, workspace, tmp_path):
        root, cfg_path, cfg = workspace
        w1, w4 = tmp_path / "w1", tmp_path / "w4"
        assert main(["loop", "--config", str(cfg_path), "--out", str(w1), "--workers", "1"]) == 0
        assert main(["loop", "--config", str(cfg_path), "--out", str(w4), "--workers", "4"]) == 0
        assert_dirs_identical(w1, w4)


class TestTest:
    def test_report_schema(self, workspace):
        root, _, cfg = workspace
        run = Path(cfg["out_dir"]) / "loop"
        assert main(["test", "--run", str(run)]) == 0
        payload = json.loads((run / "test_report.json").read_text())
        for field in ("precision", "recall", "f1", "loss", "tp", "fp", "fn"):
            assert field in payload
        assert payload["tau"] == cfg["metrics"]["match_tolerance"]

    def test_repeated_invocation_identical(self, workspace):
        root, _, cfg = workspace
        run = Path(cfg["out_dir"]) / "loop"
        assert main(["test", "--run", str(run)]) == 0
        first = (run / "test_report.json").read_bytes()
        assert main(["test", "--run", str(run)]) == 0
        assert (run / "test_report.json").read_bytes() == first

    def test_missing_model_file_reported(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        out = tmp_path / "broken"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out)]) == 0
        (out / "model.msl1").unlink()
        assert main(["test", "--run", str(out)]) == 1
        assert "model.msl1" in capsys.readouterr().err

    def test_no_decoder_invocation_during_test(self, workspace):
        root, _, cfg = workspace
        run = Path(cfg["out_dir"]) / "loop"
        reset_decode_call_count()
        assert main(["test", "--run", str(run)]) == 0
        assert decode_call_count() == 0


class TestReport:
    def test_loop_report_selected_first(self, workspace, capsys):
        root, _, cfg = workspace
        run = Path(cfg["out_dir"]) / "loop"
        assert main(["report", "--run", str(run)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        first_row = lines[1]
        assert first_row.lstrip().startswith("*")
        rows = list(csv.reader((run / "report.csv").open()))
        results = json.loads((run / "results.json").read_text())
        assert len(rows) - 1 == len(results["candidates"])

    def test_learn_report_single_row(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        out = tmp_path / "single"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["report", "--run", str(out)]) == 0
        rows = list(csv.reader((out / "report.csv").open()))
        assert len(rows) == 2  # header + one row


class TestLogging:
    def test_log_level_does_not_change_results(self, workspace, tmp_path, monkeypatch):
        root, cfg_path, cfg = workspace
        quiet, loud = tmp_path / "quiet", tmp_path / "loud"
        assert main(["learn", "--config", str(cfg_path), "--out", str(quiet)]) == 0
        monkeypatch.setenv("MSL_LOG", "debug")
        assert main(["learn", "--config", str(cfg_path), "--out", str(loud)]) == 0
        assert canonical_without_timings(quiet / "results.json") == canonical_without_timings(
            loud / "results.json"
        )


class TestConfigValidation:
    def test_bad_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["gen", "--config", str(path)]) == 2

    def test_missing_nested_field_names_path(self, tmp_path, capsys):
        missing = small_config_dict(str(tmp_path / "exp"))
        del missing["inferrer"]["epochs"]
        fractional = small_config_dict(str(tmp_path / "exp"))
        fractional["inferrer"]["epochs"] = 2.7
        string_flag = small_config_dict(str(tmp_path / "exp"))
        string_flag["decoder"]["include_careless"] = "false"
        cases = (
            (missing, "inferrer.epochs"),
            (fractional, "inferrer.epochs"),
            (string_flag, "decoder.include_careless"),
        )
        for i, (cfg, field) in enumerate(cases):
            cfg_path = write_config(tmp_path / f"config{i}.json", cfg)
            assert main(["gen", "--config", str(cfg_path)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and field in err

    def test_unknown_decoder_flag_rejected(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        for flag in ("bogus", "careful:abc", "careful:nan", "careful:inf"):
            out = tmp_path / "nope"
            assert main(["learn", "--config", str(cfg_path), "--out", str(out), "--decoder", flag]) == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()
