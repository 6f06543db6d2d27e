import csv
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import msl.cli
from msl import inferrer, storage
from msl.cli import load_config, main
from msl.data import split
from msl.encoder import EncoderParams
from msl.errors import MissingArtifactError
from msl.pipeline import Predictor, learn, test

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

    def test_split_fractions_that_learn_refuses_are_refused(self, tmp_path, capsys):
        cfg = small_config_dict(str(tmp_path / "exp"))
        cfg["synth"]["fractions"] = [0.5, 0.5, 0.5]
        cfg_path = write_config(tmp_path / "config.json", cfg)
        assert main(["gen", "--config", str(cfg_path)]) == 2
        assert "split fractions must sum to 1" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

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
        again = test(val_split, Predictor(loaded, encoder_params), config.match_tolerance)
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

    def test_workers_below_one_refused(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        for workers in ("0", "-3"):
            out = tmp_path / f"workers{workers}"
            assert main(["loop", "--config", str(cfg_path), "--out", str(out), "--workers", workers]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "--workers" in err
            assert not out.exists()


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

    def test_unfinished_run_refused(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        out = tmp_path / "unfinished"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out)]) == 0
        (out / "manifest.json").unlink()
        for command in ("test", "report"):
            assert main([command, "--run", str(out)]) == 1
            assert "manifest.json" in capsys.readouterr().err

    def test_interrupted_rerun_refused(self, workspace, tmp_path, capsys, monkeypatch):
        root, cfg_path, cfg = workspace
        out = tmp_path / "rerun"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out)]) == 0

        def killed(*args, **kwargs):
            raise RuntimeError("killed partway")

        monkeypatch.setattr(msl.cli, "learn", killed)
        assert main(["learn", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert not (out / "manifest.json").exists()
        capsys.readouterr()
        for command in ("test", "report"):
            assert main([command, "--run", str(out)]) == 1
            assert "has no manifest.json" in capsys.readouterr().err
            with pytest.raises(MissingArtifactError):
                getattr(msl.cli, f"cmd_{command}")(SimpleNamespace(run=str(out), data=None))

    def test_dataset_of_another_size_or_seed_refused(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        run = Path(cfg["out_dir"]) / "loop"
        assert main(["test", "--run", str(run)]) == 0
        bigger = small_config_dict(str(tmp_path / "exp"))
        bigger["synth"]["n"] = 40
        reseeded = small_config_dict(str(tmp_path / "exp"), seed=cfg["seed"] + 1)
        errors = {}
        for name, other in (("n40", bigger), ("reseeded", reseeded)):
            dataset = tmp_path / name
            other_path = write_config(tmp_path / f"{name}.json", other)
            assert main(["gen", "--config", str(other_path), "--out", str(dataset)]) == 0
            capsys.readouterr()
            assert main(["test", "--run", str(run), "--data", str(dataset)]) == 2
            errors[name] = capsys.readouterr().err
            assert "config error" in errors[name] and str(dataset) in errors[name]
        assert "has n 40" in errors["n40"] and "synth n 30" in errors["n40"]
        assert "has seed" in errors["reseeded"]
        # learn refuses it too, so that a run's config always describes its data.
        out = tmp_path / "mismatched"
        assert main(["learn", "--config", str(cfg_path), "--data", str(tmp_path / "n40"), "--out", str(out)]) == 2
        assert "has n 40" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_artifact_is_a_format_error_naming_its_file(self, workspace, tmp_path, capsys):
        # A corrupt artifact exits 1 and names its file: it is no config
        # error, and no bare KeyError or ValueError.
        root, cfg_path, cfg = workspace
        learned = tmp_path / "learned"
        assert main(["learn", "--config", str(cfg_path), "--out", str(learned)]) == 0

        def edited(edit):
            def corrupt(path):
                obj = json.loads(path.read_text())
                edit(obj)
                path.write_text(json.dumps(obj))

            return corrupt

        def non_finite(path):
            flat = storage.read_msl1(path)
            flat[0, 0] = np.inf
            storage.write_msl1(path, flat)

        corruptions = [
            ("model.json", edited(lambda o: o.pop("architecture"))),
            ("model.msl1", non_finite),
            ("encoder_params.json", edited(lambda o: o.update(threshold=1.5))),
            ("encoder_params.json", edited(lambda o: o.pop("threshold"))),
        ]
        capsys.readouterr()
        for case, (name, corrupt) in enumerate(corruptions):
            run = tmp_path / f"case{case}"
            shutil.copytree(learned, run)
            corrupt(run / name)
            assert main(["test", "--run", str(run)]) == 1, name
            err = capsys.readouterr().err
            assert f"FormatError: {run / name}: " in err, err

    def test_no_decoder_invocation_during_test(self, workspace, decode_calls):
        root, _, cfg = workspace
        run = Path(cfg["out_dir"]) / "loop"
        assert main(["test", "--run", str(run)]) == 0
        assert decode_calls == []


class TestReport:
    def test_loop_report_selected_first(self, workspace, capsys):
        root, _, cfg = workspace
        run = Path(cfg["out_dir"]) / "loop"
        assert main(["report", "--run", str(run)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        first_row = lines[1]
        assert first_row.lstrip().startswith("*")
        with (run / "report.csv").open() as f:
            rows = list(csv.reader(f))
        results = json.loads((run / "results.json").read_text())
        assert len(rows) - 1 == len(results["candidates"])

    def test_learn_report_single_row(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        out = tmp_path / "single"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["report", "--run", str(out)]) == 0
        with (out / "report.csv").open() as f:
            rows = list(csv.reader(f))
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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field", ["metrics.match_tolerance", "inferrer.learning_rate", "synth.blob_radius", "synth.noise_std"]
    )
    def test_non_finite_float_names_field(self, tmp_path, capsys, field, value):
        cfg = small_config_dict(str(tmp_path / "exp"))
        section, key = field.split(".")
        cfg[section][key] = value
        cfg_path = write_config(tmp_path / "config.json", cfg)
        assert main(["gen", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("value", [True, False, "2", "0.5"])
    @pytest.mark.parametrize("field", ["metrics.match_tolerance", "synth.blob_radius", "decoder.radius_multiplier"])
    def test_bool_or_string_float_names_field(self, tmp_path, capsys, field, value):
        cfg = small_config_dict(str(tmp_path / "exp"))
        section, key = field.split(".")
        cfg[section][key] = value
        cfg_path = write_config(tmp_path / "config.json", cfg)
        assert main(["gen", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert not (tmp_path / "exp").exists()

    def test_unknown_decoder_flag_rejected(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        for flag in ("bogus", "careful:abc", "careful:nan", "careful:inf"):
            out = tmp_path / "nope"
            assert main(["learn", "--config", str(cfg_path), "--out", str(out), "--decoder", flag]) == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()
