import argparse
import contextlib
import csv
import io
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import msl.cli
from msl import inferrer, storage
from msl.cli import build_parser, load_config, main
from msl.data import split, split_indices
from msl.encoder import EncoderParams
from msl.errors import FormatError, MissingArtifactError
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
        (row,) = json.loads((out / "results.json").read_text())["candidates"]
        assert row["decoder_params"] == {"variant": "careless"}
        assert 0.0 <= json.loads((out / row["dir"] / "validation_report.json").read_text())["f1"] <= 1.0

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
        assert results["candidates"][0]["decoder_params"] == {"variant": "careful", "sigma": 2.0, "radius": 6.0}


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


class TestRunRecord:
    def test_learn_and_loop_write_one_schema(self, workspace, tmp_path):
        # A learn run is stored as a loop of one candidate whose solution is at the top level.
        root, cfg_path, cfg = workspace
        learned, looped = tmp_path / "learn", Path(cfg["out_dir"]) / "loop"
        assert main(["learn", "--config", str(cfg_path), "--out", str(learned)]) == 0
        records = {run: json.loads((run / "results.json").read_text()) for run in (learned, looped)}
        for run, record in records.items():
            assert sorted(record) == ["candidates", "config", "kind", "selected_index", "timings"]
            for row in record["candidates"]:
                assert sorted(row) == ["decoder_params", "dir", "error", "index", "timings", "validation_loss"]
                stored = json.loads((run / row["dir"] / "validation_report.json").read_text())
                assert row["validation_loss"] == stored["loss"]
            assert sorted(json.loads((run / "manifest.json").read_text())) == ["artifacts", "versions"]
        assert [(row["index"], row["dir"]) for row in records[learned]["candidates"]] == [(0, "")]
        assert [(row["index"], row["dir"]) for row in records[looped]["candidates"]] == [
            (0, "candidate_00"), (1, "candidate_01"),
        ]


def _loop_results_edit_is_refused(workspace, run: Path, capsys, edit) -> str:
    """Copy the loop run to `run` and apply `edit` to its results.json:
    `report` and `test` must exit 1 with a FormatError naming results.json,
    printing and writing nothing. Returns the last error output."""
    root, cfg_path, cfg = workspace
    shutil.copytree(Path(cfg["out_dir"]) / "loop", run)
    (run / "test_report.json").unlink(missing_ok=True)
    (run / "report.csv").unlink(missing_ok=True)
    results = json.loads((run / "results.json").read_text())
    # The small config lists candidates 0 and 1.
    assert [c["index"] for c in results["candidates"]] == [0, 1]
    edit(results)
    (run / "results.json").write_text(json.dumps(results))
    capsys.readouterr()
    for command in ("report", "test"):
        assert main([command, "--run", str(run)]) == 1, command
        captured = capsys.readouterr()
        assert f"FormatError: {run / 'results.json'}: " in captured.err
        assert captured.out == ""
    assert not (run / "test_report.json").exists() and not (run / "report.csv").exists()
    return captured.err


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

    @pytest.mark.parametrize("command", ["learn", "loop"])
    def test_interrupted_rerun_refused(self, workspace, tmp_path, capsys, monkeypatch, command):
        # A rerun touches the run directory only once its pipeline has
        # returned, and removes manifest.json before its first write.
        root, cfg_path, cfg = workspace
        out = tmp_path / "rerun"
        rerun = [command, "--config", str(cfg_path), "--out", str(out)]
        assert main(rerun) == 0
        assert main(["test", "--run", str(out)]) == 0
        whole = (out / "test_report.json").read_bytes()
        (out / "test_report.json").unlink()

        def killed(*args, **kwargs):
            raise RuntimeError("killed partway")

        # Failed before any write: the earlier run is whole.
        with monkeypatch.context() as patch:
            patch.setattr(msl.cli, command, killed)
            assert main(rerun) == 1
        assert main(["test", "--run", str(out)]) == 0
        assert (out / "test_report.json").read_bytes() == whole

        # Failed during the writes: the run is refused.
        monkeypatch.setattr(msl.cli, "save_model", killed)
        assert main(rerun) == 1
        assert not (out / "manifest.json").exists()
        capsys.readouterr()
        for reader in ("test", "report"):
            assert main([reader, "--run", str(out)]) == 1
            assert "has no manifest.json" in capsys.readouterr().err
            with pytest.raises(MissingArtifactError):
                getattr(msl.cli, f"cmd_{reader}")(SimpleNamespace(run=str(out), data=None))

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

    def test_dataset_of_other_synth_settings_refused(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        other = small_config_dict(str(tmp_path / "exp"))
        other["synth"].update(width=28, blob_amplitude=0.5)
        dataset = tmp_path / "wide"
        assert main(["gen", "--config", str(write_config(tmp_path / "wide.json", other)), "--out", str(dataset)]) == 0
        capsys.readouterr()
        out, run = tmp_path / "mismatched", tmp_path / "run"
        shutil.copytree(Path(cfg["out_dir"]) / "loop", run)
        (run / "test_report.json").unlink(missing_ok=True)
        for command in (["learn", "--config", str(cfg_path), "--out", str(out)], ["test", "--run", str(run)]):
            assert main([*command, "--data", str(dataset)]) == 2
            err = capsys.readouterr().err
            # The first field that differs is named.
            assert err == f"config error: dataset {dataset} has synth width 28, but the config gives synth width 24\n"
        assert not out.exists()
        assert not (run / "test_report.json").exists()

    def test_dataset_of_other_split_fractions_accepted(self, workspace, tmp_path):
        # The split is cut at load, so the fractions a dataset was made with do not matter.
        root, cfg_path, cfg = workspace
        other = small_config_dict(str(tmp_path / "exp"))
        other["synth"]["fractions"] = [0.6, 0.2, 0.2]
        dataset = tmp_path / "resplit"
        assert main(["gen", "--config", str(write_config(tmp_path / "resplit.json", other)), "--out", str(dataset)]) == 0
        run = tmp_path / "run"
        shutil.copytree(Path(cfg["out_dir"]) / "loop", run)
        assert main(["test", "--run", str(run)]) == 0
        own = (run / "test_report.json").read_bytes()
        assert main(["test", "--run", str(run), "--data", str(dataset)]) == 0
        assert (run / "test_report.json").read_bytes() == own

    def test_dataset_echo_that_does_not_parse_is_a_format_error(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        dataset = tmp_path / "data"
        shutil.copytree(Path(cfg["out_dir"]) / "dataset", dataset)
        manifest = json.loads((dataset / "manifest.json").read_text())
        del manifest["config"]["synth"]["width"]
        (dataset / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        for command in (["learn", "--config", str(cfg_path), "--out", str(tmp_path / "out")],
                        ["test", "--run", str(Path(cfg["out_dir"]) / "loop")]):
            assert main([*command, "--data", str(dataset)]) == 1
            err = capsys.readouterr().err
            assert f"FormatError: {dataset / 'manifest.json'}: " in err and "synth.width" in err

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

        def truncated(path):
            path.write_text(path.read_text()[:-40])

        # (file, corruption, commands that read it): `report` reads results.json only.
        corruptions = [
            ("model.json", edited(lambda o: o.pop("architecture")), ["test"]),
            ("model.msl1", non_finite, ["test"]),
            ("encoder_params.json", edited(lambda o: o.update(threshold=1.5)), ["test"]),
            ("encoder_params.json", edited(lambda o: o.pop("threshold")), ["test"]),
            # float() and int() would read these as 0.3, 1.0, 8, 3 and 1.0.
            ("encoder_params.json", edited(lambda o: o.update(threshold="0.3")), ["test"]),
            ("encoder_params.json", edited(lambda o: o.update(min_separation=True)), ["test"]),
            ("model.json", edited(lambda o: o["architecture"].update(hidden_units=8.7)), ["test"]),
            ("model.json", edited(lambda o: o["train_config"].update(epochs="3", learning_rate=True)), ["test"]),
            ("results.json", truncated, ["test", "report"]),
            ("results.json", edited(lambda o: o.pop("kind")), ["test", "report"]),
            ("results.json", edited(lambda o: o["candidates"][0]["decoder_params"].pop("variant")), ["report"]),
            ("results.json", edited(lambda o: o["candidates"][0]["decoder_params"].update(sigma="abc")), ["report"]),
            # The stored config is part of the run, not a config the user gave.
            ("results.json", edited(lambda o: o["config"]["inferrer"].pop("epochs")), ["test", "report"]),
            ("results.json", edited(lambda o: o["config"]["inferrer"].update(epochs=0)), ["test", "report"]),
        ]
        capsys.readouterr()
        for case, (name, corrupt, commands) in enumerate(corruptions):
            run = tmp_path / f"case{case}"
            shutil.copytree(learned, run)
            corrupt(run / name)
            for command in commands:
                assert main([command, "--run", str(run)]) == 1, (command, name)
                err = capsys.readouterr().err
                assert f"FormatError: {run / name}: " in err, err

    def test_learn_decoder_params_not_an_object_is_a_format_error(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        learned = tmp_path / "learned"
        assert main(["learn", "--config", str(cfg_path), "--out", str(learned)]) == 0
        for case, value in enumerate([None, "abc", -1, []]):
            run = tmp_path / f"case{case}"
            shutil.copytree(learned, run)
            results = json.loads((run / "results.json").read_text())
            results["candidates"][0]["decoder_params"] = value
            (run / "results.json").write_text(json.dumps(results))
            capsys.readouterr()
            for command in ("test", "report"):
                assert main([command, "--run", str(run)]) == 1, (command, value)
                assert f"FormatError: {run / 'results.json'}: " in capsys.readouterr().err
            assert not (run / "test_report.json").exists() and not (run / "report.csv").exists()

    def test_loop_selected_index_of_no_listed_candidate_is_a_format_error(self, workspace, tmp_path, capsys):
        def other_finished(results):
            # A listed candidate with a dir, but not the argmin: `report`
            # would star it and `test` score it.
            (other,) = [c for c in results["candidates"] if c["index"] != results["selected_index"]]
            assert other["dir"] is not None
            return other["index"]

        for case, value in enumerate([None, "abc", -1, 2, "1", [], {}, other_finished]):
            edit = lambda results: results.update(selected_index=value(results) if callable(value) else value)
            err = _loop_results_edit_is_refused(workspace, tmp_path / f"case{case}", capsys, edit)
        assert "the earliest lowest validation loss" in err

    @pytest.mark.parametrize("key, value", [
        ("error", 5), ("decoder_params", {"variant": 7}), ("decoder_params", {"variant": "careless", "sigma": 1.5}),
        ("validation_loss", "0.5"), ("index", "0"), ("dir", 3),
        # Candidate 1's index: two rows would be starred, and `test` would score either.
        ("index", 1),
    ], ids=repr)
    def test_loop_candidate_field_of_another_type_is_a_format_error(self, workspace, tmp_path, capsys, key, value):
        # Each field is converted and checked before the rows are sorted, and none is printed unchecked.
        edit = lambda results: results["candidates"][0].update({key: value})
        assert f"candidates[0].{key}" in _loop_results_edit_is_refused(workspace, tmp_path / "run", capsys, edit)

    def test_manifest_size_or_seed_that_is_no_integer_is_a_format_error(self, workspace, tmp_path, capsys):
        # Named before any sample is read: the copy holds no sample file.
        root, cfg_path, cfg = workspace
        manifest = json.loads((Path(cfg["out_dir"]) / "dataset" / "manifest.json").read_text())
        run = Path(cfg["out_dir"]) / "loop"
        corruptions = [(key, value) for key in ("width", "height") for value in (None, "abc", -1, 0, [], 24.0)]
        corruptions += [("seed", value) for value in (None, "abc", -1, 1.5)] + [("seed", "deleted")]
        for case, (key, value) in enumerate(corruptions):
            dataset = tmp_path / f"case{case}"
            dataset.mkdir()
            corrupt = dict(manifest)
            if value == "deleted":
                del corrupt[key]
            else:
                corrupt[key] = value
            (dataset / "manifest.json").write_text(json.dumps(corrupt))
            with pytest.raises(FormatError, match=rf"{dataset / 'manifest.json'}: .*{key}"):
                storage.read_manifest(dataset)
            capsys.readouterr()
            command = ["test", "--run", str(run), "--data", str(dataset)]
            assert main(command) == 1, (key, value)
            assert f"FormatError: {dataset / 'manifest.json'}: " in capsys.readouterr().err

    def test_no_decoder_invocation_during_test(self, workspace, decode_calls):
        root, _, cfg = workspace
        run = Path(cfg["out_dir"]) / "loop"
        assert main(["test", "--run", str(run)]) == 0
        assert decode_calls == []


def _dataset_without(cfg_path: Path, dataset: Path, copy: Path, parts: tuple[str, ...]) -> Path:
    """A copy of `dataset` without the sample files of the config's splits
    named in `parts`; returns the copy."""
    shutil.copytree(dataset, copy)
    config = load_config(cfg_path)
    indices = dict(zip(("train", "val", "test"), split_indices(config.n, config.fractions, config.split_seed)))
    samples = json.loads((copy / "manifest.json").read_text())["samples"]
    for part in parts:
        for i in indices[part]:
            for name in samples[i].values():
                (copy / name).unlink()
    return copy


class TestSplitLoading:
    """Each command reads the samples of the splits it uses, and no others."""

    def test_test_needs_only_the_test_split(self, workspace, tmp_path):
        root, cfg_path, cfg = workspace
        run = tmp_path / "run"
        shutil.copytree(Path(cfg["out_dir"]) / "loop", run)
        assert main(["test", "--run", str(run)]) == 0
        full = (run / "test_report.json").read_bytes()
        (run / "test_report.json").unlink()
        dataset = _dataset_without(cfg_path, Path(cfg["out_dir"]) / "dataset", tmp_path / "data", ("train", "val"))
        assert main(["test", "--run", str(run), "--data", str(dataset)]) == 0
        assert (run / "test_report.json").read_bytes() == full

    def test_corrupt_test_split_file_is_named(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        dataset = tmp_path / "data"
        shutil.copytree(Path(cfg["out_dir"]) / "dataset", dataset)
        config = load_config(cfg_path)
        first_test = split_indices(config.n, config.fractions, config.split_seed)[2][0]
        points = dataset / json.loads((dataset / "manifest.json").read_text())["samples"][first_test]["points"]
        points.write_text("[[1.0]]")
        capsys.readouterr()
        assert main(["test", "--run", str(Path(cfg["out_dir"]) / "loop"), "--data", str(dataset)]) == 1
        assert f"FormatError: {points}: " in capsys.readouterr().err

    def test_learn_needs_only_train_and_val(self, workspace, tmp_path):
        root, cfg_path, cfg = workspace
        full, subset = tmp_path / "full", tmp_path / "subset"
        assert main(["learn", "--config", str(cfg_path), "--out", str(full)]) == 0
        dataset = _dataset_without(cfg_path, Path(cfg["out_dir"]) / "dataset", tmp_path / "data", ("test",))
        assert main(["learn", "--config", str(cfg_path), "--data", str(dataset), "--out", str(subset)]) == 0
        assert_dirs_identical(full, subset)


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

    def test_failed_candidates_are_listed_last_in_index_order(self, workspace, tmp_path, capsys):
        # A failed candidate, of null loss, is listed after every finished one.
        root, cfg_path, cfg = workspace
        run = tmp_path / "run"
        shutil.copytree(Path(cfg["out_dir"]) / "loop", run)
        results = json.loads((run / "results.json").read_text())
        assert results["selected_index"] == 1
        failed = dict(results["candidates"][0], validation_loss=None, error="diverged", dir=None)
        results["candidates"] = [failed, results["candidates"][1], dict(failed, index=2)]
        (run / "results.json").write_text(json.dumps(results))
        capsys.readouterr()
        assert main(["report", "--run", str(run)]) == 0
        with (run / "report.csv").open() as f:
            rows = list(csv.DictReader(f))
        assert [(r["selected"], r["validation_loss"], r["error"]) for r in rows] == [
            ("1", repr(results["candidates"][1]["validation_loss"]), ""),
            ("0", "", "diverged"),
            ("0", "", "diverged"),
        ]

    def test_learn_report_single_row(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        out = tmp_path / "single"
        assert main(["learn", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["report", "--run", str(out)]) == 0
        with (out / "report.csv").open() as f:
            rows = list(csv.reader(f))
        assert len(rows) == 2  # header + one row


def _read_all(case: Path, data: Path) -> dict:
    """What each reader gives on the run at case/run, run from `case`: the
    exit code, stdout, stderr and written file's bytes of `msl test` (on
    dataset `data`) and `msl report`, and the fields that read_manifest
    checks of `data`, or the FormatError it raised."""
    outcomes = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(case)
        for argv, path in (
            (["test", "--run", "run", "--data", str(data)], Path("run/test_report.json")),
            (["report", "--run", "run"], Path("run/report.csv")),
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = path.read_bytes() if path.exists() else None
            outcomes[argv[0]] = (code, out.getvalue(), err.getvalue(), written)
        try:
            manifest = storage.read_manifest(data)
            outcomes["read_manifest"] = [manifest[key] for key in ("width", "height", "n", "seed", "samples")]
        except FormatError as exc:
            outcomes["read_manifest"] = exc
    return outcomes


@pytest.fixture(scope="module")
def sweep(workspace, tmp_path_factory):
    """The finished runs and dataset a corruption sweep copies, and what
    `_read_all` gives on each run untouched."""
    root, cfg_path, cfg = workspace
    base = tmp_path_factory.mktemp("sweep")
    assert main(["learn", "--config", str(cfg_path), "--out", str(base / "learn")]) == 0
    outputs = shutil.ignore_patterns("test_report.json", "report.csv")
    shutil.copytree(Path(cfg["out_dir"]) / "loop", base / "loop", ignore=outputs)
    sources = {"learn": base / "learn", "loop": base / "loop", "dataset": Path(cfg["out_dir"]) / "dataset"}
    baseline = {}
    for kind in ("learn", "loop"):
        shutil.copytree(sources[kind], base / kind / "untouched" / "run")
        baseline[kind] = _read_all(base / kind / "untouched", sources["dataset"])
    return sources, baseline


class TestCorruptionSweep:
    """Each top-level field of each JSON artifact that `test` and `report`
    read, deleted or set to another JSON type, is refused with a
    FormatError naming the file, or changes nothing."""

    @pytest.mark.parametrize("fault", ["deleted", None, "abc", [], {}, -1], ids=repr)
    @pytest.mark.parametrize("source, name", [
        ("learn", "results.json"), ("loop", "results.json"), ("learn", "model.json"),
        ("learn", "encoder_params.json"), ("dataset", "manifest.json"),
    ])
    def test_field_fault_is_refused_or_changes_nothing(self, sweep, tmp_path, source, name, fault):
        sources, baseline = sweep
        kind = "learn" if source == "dataset" else source
        keys = json.loads((sources[source] / name).read_text())
        for key in keys:
            case = tmp_path / key
            shutil.copytree(sources[kind], case / "run")
            data = sources["dataset"]
            if source == "dataset":
                data = Path("data")
                shutil.copytree(sources["dataset"], case / data)
            corrupted = (data if source == "dataset" else Path("run")) / name
            obj = json.loads((case / corrupted).read_text())
            if fault == "deleted":
                del obj[key]
            else:
                obj[key] = fault
            (case / corrupted).write_text(json.dumps(obj))
            for reader, outcome in _read_all(case, data).items():
                if outcome == baseline[kind][reader]:
                    continue
                if reader == "read_manifest":
                    refused = isinstance(outcome, FormatError) and str(outcome).startswith(f"{corrupted}: ")
                else:
                    code, out, err, written = outcome
                    refused = code == 1 and out == "" and written is None and f"FormatError: {corrupted}: " in err
                assert refused, (reader, key, outcome)


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


def _required_paths() -> list[str]:
    """Every required config path: the top-level fields and sections, and
    each section's fields (decoder.include_careless is optional)."""
    paths = []
    for key, value in small_config_dict("exp").items():
        paths.append(key)
        if isinstance(value, dict):
            paths += [f"{key}.{field}" for field in value if field != "include_careless"]
    return paths


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

    @pytest.mark.parametrize("field", ["seed", "synth.n", "inferrer.epochs"])
    def test_string_integer_names_field(self, tmp_path, capsys, monkeypatch, field):
        # int() would read "3" as 3, where a float field refuses "2".
        monkeypatch.chdir(tmp_path)
        cfg = small_config_dict(str(tmp_path / "exp"))
        *section, key = field.split(".")
        (cfg[section[0]] if section else cfg)[key] = "3"
        assert main(["gen", "--config", str(write_config(tmp_path / "config.json", cfg))]) == 2
        assert capsys.readouterr().err == f"config error: field '{field}' has an invalid value '3'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("path", _required_paths())
    @pytest.mark.parametrize("fault", ["deleted", "null"])
    def test_every_required_field_names_its_path(self, tmp_path, capsys, monkeypatch, path, fault):
        monkeypatch.chdir(tmp_path)
        cfg = small_config_dict(str(tmp_path / "exp"))
        *section, key = path.split(".")
        holder = cfg[section[0]] if section else cfg
        if fault == "deleted":
            del holder[key]
            expected = f"missing required field '{path}'"
        else:
            holder[key] = None
            expected = f"field '{path}' has an invalid value None"
        assert main(["gen", "--config", str(write_config(tmp_path / "config.json", cfg))]) == 2
        assert capsys.readouterr().err == f"config error: {expected}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("value", [None, 123, ["a"]])
    def test_out_dir_must_be_a_string(self, tmp_path, capsys, monkeypatch, value):
        # str() would make these the directories None, 123 and ['a'].
        monkeypatch.chdir(tmp_path)
        cfg_path = write_config(tmp_path / "config.json", small_config_dict(value))
        assert main(["gen", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "out_dir" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_unknown_decoder_flag_rejected(self, workspace, tmp_path, capsys):
        root, cfg_path, cfg = workspace
        for flag in ("bogus", "careful:abc", "careful:nan", "careful:inf"):
            out = tmp_path / "nope"
            assert main(["learn", "--config", str(cfg_path), "--out", str(out), "--decoder", flag]) == 2
            assert "config error" in capsys.readouterr().err
            assert not out.exists()


def test_user_settable_surface_is_pinned():
    # Each subcommand's options. A new flag or subcommand must be added here on purpose.
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: sorted(o for a in sub._actions for o in a.option_strings) for name, sub in commands.items()}
    assert surface == {
        "gen": ["--config", "--help", "--out", "-h"],
        "learn": ["--config", "--data", "--decoder", "--help", "--out", "-h"],
        "loop": ["--config", "--data", "--help", "--out", "--workers", "-h"],
        "test": ["--data", "--help", "--run", "-h"],
        "report": ["--help", "--run", "-h"],
    }
