import csv
import json
import os
import struct

import numpy as np
import pytest

from msl.cli import _write_csv
from msl.data import generate_dataset, SynthConfig
from msl.errors import FormatError
from msl import storage
from msl.storage import load_dataset, read_manifest, read_msl1, save_dataset, write_file, write_json, write_msl1


def test_header_layout(tmp_path):
    values = np.arange(6, dtype=np.float64).reshape(2, 3) / 10.0
    path = tmp_path / "grid.msl1"
    write_msl1(path, values)
    raw = path.read_bytes()
    assert raw[:4] == b"MSL1"
    width, height = struct.unpack_from("<II", raw, 4)
    assert (width, height) == (3, 2)
    assert raw[12:16] == b"\x00" * 4
    payload = np.frombuffer(raw, dtype="<f4", offset=16)
    np.testing.assert_array_equal(payload, values.astype(np.float32).ravel())


def test_round_trip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, size=(7, 5))
    path = tmp_path / "grid.msl1"
    write_msl1(path, values)
    back = read_msl1(path)
    np.testing.assert_array_equal(back, values.astype(np.float32).astype(np.float64))


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.msl1"
    path.write_bytes(b"NOPE" + b"\x00" * 12)
    with pytest.raises(FormatError):
        read_msl1(path)


def test_truncated_payload_rejected(tmp_path):
    values = np.zeros((4, 4))
    path = tmp_path / "grid.msl1"
    write_msl1(path, values)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        read_msl1(path)


def test_dataset_round_trip(tmp_path):
    cfg = SynthConfig(
        width=16,
        height=12,
        blob_count_min=1,
        blob_count_max=3,
        blob_amplitude=0.8,
        blob_radius=1.5,
        min_separation=4.0,
        noise_std=0.03,
        seed=77,
    )
    ds = generate_dataset(cfg, 4)
    directory = tmp_path / "dataset"
    save_dataset(ds, directory, seed=cfg.seed, config_echo={"note": "test"})

    loaded, manifest = load_dataset(directory)
    assert manifest["width"] == 16 and manifest["height"] == 12
    assert manifest["n"] == 4 and manifest["seed"] == 77
    assert manifest["config"] == {"note": "test"}
    assert len(manifest["samples"]) == 4
    for entry in manifest["samples"]:
        assert (directory / entry["lattice"]).exists()
        assert (directory / entry["points"]).exists()
    for original, roundtrip in zip(ds.samples, loaded.samples):
        np.testing.assert_array_equal(
            roundtrip.lattice.values,
            original.lattice.values.astype(np.float32).astype(np.float64),
        )
        np.testing.assert_array_equal(roundtrip.truth.points, original.truth.points)


def _small_dataset(directory, n=2):
    cfg = SynthConfig(
        width=8,
        height=8,
        blob_count_min=1,
        blob_count_max=1,
        blob_amplitude=0.8,
        blob_radius=1.0,
        min_separation=2.0,
        noise_std=0.0,
        seed=5,
    )
    save_dataset(generate_dataset(cfg, n), directory, seed=cfg.seed, config_echo={})
    return json.loads((directory / "manifest.json").read_text())


def test_manifest_missing_key_names_file_and_key(tmp_path):
    manifest = _small_dataset(tmp_path)
    del manifest["samples"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=r"manifest\.json: ConfigError\(\"missing required field 'samples'\"\)"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("value", [5, None, ["sample_00000.msl1"]])
@pytest.mark.parametrize("key", ["lattice", "points"])
def test_sample_file_name_that_is_no_string_names_manifest(tmp_path, key, value):
    # Path / 5 would raise a TypeError that names no file.
    manifest = _small_dataset(tmp_path)
    manifest["samples"][1][key] = value
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(FormatError, match=rf"manifest\.json: .*'samples\[1\]\.{key}' has an invalid value"):
        load_dataset(tmp_path)


def test_bad_sample_file_names_file(tmp_path):
    manifest = _small_dataset(tmp_path)
    points = tmp_path / manifest["samples"][1]["points"]
    good = points.read_text()
    # Not a list of [x, y] pairs of numbers, or a point outside the 8x8 lattice.
    for bad in ([1.0, 2.0, 3.0], [[1.0, 2.0], [3.0]], {"x": 1.0}, [[1.0, 99.0]], [[True, 2.0]], [[1.0, "2"]]):
        points.write_text(json.dumps(bad))
        with pytest.raises(FormatError, match=points.name):
            load_dataset(tmp_path)
    points.write_text(good)
    lattice = tmp_path / manifest["samples"][1]["lattice"]
    write_msl1(lattice, np.full((8, 8), 2.0))
    with pytest.raises(FormatError, match=lattice.name):
        load_dataset(tmp_path)
    # read_msl1's own FormatError passes through unwrapped.
    lattice.write_bytes(lattice.read_bytes()[:-4])
    with pytest.raises(FormatError, match="expected 256") as caught:
        load_dataset(tmp_path)
    assert caught.value.__cause__ is None


def test_lattice_of_another_shape_names_lattice_file(tmp_path):
    manifest = _small_dataset(tmp_path)
    lattice = tmp_path / manifest["samples"][1]["lattice"]
    # Larger than the manifest's 8x8, and smaller than the points it holds.
    for height, width in ((12, 10), (3, 5)):
        write_msl1(lattice, np.zeros((height, width)))
        with pytest.raises(FormatError, match=rf"{lattice.name}: lattice is {width}x{height}, the manifest gives 8x8"):
            load_dataset(tmp_path)


def test_subset_load_reads_only_its_samples_in_order(tmp_path):
    manifest = _small_dataset(tmp_path, n=6)
    full, _ = load_dataset(tmp_path)
    indices = [4, 0, 2]
    for entry in (e for i, e in enumerate(manifest["samples"]) if i not in indices):
        (tmp_path / entry["lattice"]).unlink()
        (tmp_path / entry["points"]).unlink()
    subset, subset_manifest = load_dataset(tmp_path, indices)
    assert subset_manifest == manifest
    assert subset.n == len(indices)
    for i, sample in zip(indices, subset.samples):
        np.testing.assert_array_equal(sample.lattice.values, full.samples[i].lattice.values)
        np.testing.assert_array_equal(sample.truth.points, full.samples[i].truth.points)


def test_manifest_count_disagreeing_with_n_names_manifest(tmp_path):
    manifest = _small_dataset(tmp_path)
    for n in (1, 3):
        (tmp_path / "manifest.json").write_text(json.dumps(dict(manifest, n=n)))
        with pytest.raises(FormatError, match=rf"manifest\.json: .*n={n} but 2 samples"):
            load_dataset(tmp_path)


def test_save_stopped_partway_leaves_no_manifest(tmp_path, monkeypatch):
    # Over an existing dataset, the old manifest must not survive a save that
    # stops partway: it would list a mix of old and new sample files.
    _small_dataset(tmp_path, n=4)
    real, calls = storage.write_msl1, []

    def stops_partway(path, values):
        calls.append(path)
        if len(calls) == 3:
            raise OSError("stopped partway")
        real(path, values)

    monkeypatch.setattr(storage, "write_msl1", stops_partway)
    with pytest.raises(OSError, match="stopped partway"):
        _small_dataset(tmp_path, n=4)
    with pytest.raises(FileNotFoundError):
        read_manifest(tmp_path)


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_new_file_gets_the_mode_write_bytes_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_file(tmp_path / "new", b"abc")
        (tmp_path / "reference").write_bytes(b"abc")
    finally:
        os.umask(previous)
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "reference").stat().st_mode


@pytest.mark.parametrize("old", [b"x" * 100, b"x", b""], ids=["longer", "shorter", "empty"])
def test_overwrite_leaves_exactly_the_new_bytes_in_the_same_inode(tmp_path, old):
    path = tmp_path / "file"
    path.write_bytes(old)
    inode = path.stat().st_ino
    write_file(path, b"new bytes")
    assert path.read_bytes() == b"new bytes"
    assert path.stat().st_ino == inode


def test_no_write_truncates_a_file_to_zero(tmp_path, monkeypatch):
    # On ext4 a file truncated to zero and written again is flushed on close.
    _small_dataset(tmp_path / "dataset")
    real, flags = os.open, []

    def recording(path, flag, *args, **kwargs):
        flags.append(flag)
        return real(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    _small_dataset(tmp_path / "dataset")
    write_json(tmp_path / "obj.json", {"b": 1})
    _write_csv(tmp_path / "table.csv", ["a"], [[1]])
    assert len(flags) == 7  # two lattices, two points files, the manifest, the JSON and the CSV
    assert all(flag & os.O_CREAT and not flag & os.O_TRUNC for flag in flags)


def test_writers_give_the_bytes_of_the_old_writers(tmp_path):
    obj = {"b": [1.5, None], "a": {"y": "é", "x": 2}}
    write_json(tmp_path / "new.json", obj)
    assert (tmp_path / "new.json").read_bytes() == (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
    assert (tmp_path / "new.json").read_bytes().endswith(b"}\n")

    values = np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0
    write_msl1(tmp_path / "new.msl1", values)
    header = struct.pack("<4sII4s", b"MSL1", 3, 2, b"\x00" * 4)
    assert (tmp_path / "new.msl1").read_bytes() == header + values.astype("<f4").tobytes()

    header_row, rows = ["threshold", "mean_loss"], [[0.5, repr(0.25)], [1, "a,b"]]
    _write_csv(tmp_path / "new.csv", header_row, rows)
    with open(tmp_path / "old.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header_row)
        writer.writerows(rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert (tmp_path / "new.csv").read_bytes() == b'threshold,mean_loss\r\n0.5,0.25\r\n1,"a,b"\r\n'
