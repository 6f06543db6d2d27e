"""On-disk formats: the MSL1 binary array container, dataset directories,
and canonical JSON, all written through `write_file`.

MSL1 container layout (16-byte header, then payload):
  bytes 0..3   magic b"MSL1"
  bytes 4..7   width  (u32, little-endian)
  bytes 8..11  height (u32, little-endian)
  bytes 12..15 reserved, zero
  payload      width*height float32 values, little-endian, row-major

Every file msl writes goes through `write_file`, which overwrites a file
in place and never truncates it to zero first. On ext4, a file that is
truncated to zero and written again is flushed to disk when it is closed
(the `auto_da_alloc` rule): rewriting a 1000-sample dataset of 32x32
lattices took 230-240 ms that way and about 60 ms in place, on a shared
2-core x86-64 machine. msl never calls fsync. That flush had ordered the
writes on power loss by accident, and this writer gives it up: after a
power loss, a file may hold old, new or mixed bytes. An interrupted
process is still caught by the manifest rule: a dataset or run directory
deletes its manifest.json before its first write and writes it last, as
a fresh file, so a directory whose writes stopped partway has none and is
refused.

Every JSON field msl reads, of a config or of an artifact, goes through
one field reader, `require` (with `fields` and `section` built on it): it
converts the field by a kind such as `integer`, and a missing or bad field
is a ConfigError naming it, which an artifact reader's `reading(path)`
block makes a FormatError naming the file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .data import Dataset, ImageLattice, PointSet, Sample
from .errors import ConfigError, FormatError

MAGIC = b"MSL1"
_HEADER = struct.Struct("<4sII4s")
# No O_TRUNC: see the module docstring. O_BINARY exists on Windows only.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def write_file(path: Path, data: bytes) -> None:
    """Make the file at `path` hold exactly `data`, creating it with the
    mode `open` would give, or overwriting it in place."""
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def write_msl1(path: Path, values: np.ndarray) -> None:
    """Write a 2-D array as an MSL1 container (float32 payload)."""
    v = np.asarray(values, dtype=np.float32)
    if v.ndim != 2:
        raise FormatError("MSL1 payload must be 2-D")
    height, width = v.shape
    header = _HEADER.pack(MAGIC, width, height, b"\x00" * 4)
    payload = v.astype("<f4", copy=False).tobytes(order="C")
    write_file(path, header + payload)


def read_msl1(path: Path) -> np.ndarray:
    """Read an MSL1 container back as a 2-D float64 array."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, width, height, _reserved = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    expected = _HEADER.size + 4 * width * height
    if len(raw) != expected:
        raise FormatError(f"{path}: payload is {len(raw) - _HEADER.size} bytes, expected {4 * width * height}")
    flat = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size)
    return flat.reshape(height, width).astype(np.float64)


def write_json(path: Path, obj) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    write_file(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def finite(value) -> float:
    """float() that refuses what it would silently change: true or "2",
    NaN and the infinities."""
    if isinstance(value, (bool, str)):
        raise ValueError(value)
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def floats(values) -> list[float]:
    return [finite(v) for v in values]


def integer(value) -> int:
    """The value, if it is a JSON integer: int() would take 2.7, 3.0, true or "3"."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(value)
    return value


def string(value) -> str:
    """The value, if it is a string: str() would turn null into the directory "None"."""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def optional(kind):
    """The kind that reads null as None and any other value as `kind` does."""
    return lambda value: None if value is None else kind(value)


def require(obj, key: str, kind, where: str = ""):
    """obj[key] converted by `kind`; a missing or unconvertible value is a
    ConfigError naming the field `where + key`."""
    if not isinstance(obj, dict) or key not in obj:
        raise ConfigError(f"missing required field '{where}{key}'")
    try:
        return kind(obj[key])
    except (TypeError, ValueError):
        raise ConfigError(f"field '{where}{key}' has an invalid value {obj[key]!r}")


def fields(obj, where: str = "", **kinds) -> dict:
    """The fields of obj that `kinds` names, in that order, each read by `require`."""
    return {key: require(obj, key, kind, where) for key, kind in kinds.items()}


def section(raw, name: str, **kinds) -> dict:
    """The fields of the object raw[name] that `kinds` names, each named by its path."""
    return fields(require(raw, name, dict), f"{name}.", **kinds)


@contextlib.contextmanager
def reading(path: Path):
    """Within the block, a bad value, a missing or bad field among them, is
    a FormatError naming `path`, the file the block reads. Call `read_msl1`
    outside it: its FormatError names the file already."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc!r}") from exc


def save_dataset(ds: Dataset, directory: Path, seed: int, config_echo: dict) -> Path:
    """Write a dataset directory: one lattice and one points file per
    sample, then manifest.json. An earlier manifest.json goes first, so a
    save that stops partway leaves none. Returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if ds.n == 0:
        raise FormatError("refusing to save an empty dataset")
    manifest_path = directory / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    width, height = ds.samples[0].lattice.shape
    entries = []
    for i, sample in enumerate(ds.samples):
        lattice_name, points_name = f"sample_{i:05d}.msl1", f"sample_{i:05d}.points.json"
        write_msl1(directory / lattice_name, sample.lattice.values)
        pairs = [[float(x), float(y)] for x, y in sample.truth.points]
        write_json(directory / points_name, pairs)
        entries.append({"lattice": lattice_name, "points": points_name})
    manifest = {
        "width": width,
        "height": height,
        "n": ds.n,
        "seed": seed,
        "config": config_echo,
        "samples": entries,
    }
    write_json(manifest_path, manifest)
    return manifest_path


def read_manifest(directory: Path) -> dict:
    """A dataset directory's manifest.json. A missing field, a width, height
    or n that is not a positive integer, a seed that is not a non-negative
    integer, or a samples list whose length is not n, is a FormatError
    naming the file."""
    manifest_path = Path(directory) / "manifest.json"
    with reading(manifest_path):
        manifest = read_json(manifest_path)
        for key, least in (("width", 1), ("height", 1), ("n", 1), ("seed", 0)):
            if require(manifest, key, integer) < least:
                raise ValueError(f"{key} is {manifest[key]!r}, not an integer >= {least}")
        n, count = manifest["n"], len(require(manifest, "samples", list))
        if count != n:
            raise ValueError(f"manifest lists n={n} but {count} samples")
    return manifest


def load_dataset(directory: Path, indices=None) -> tuple[Dataset, dict]:
    """Read a dataset directory, or only the samples at `indices`, in that
    order; returns (dataset, manifest). A missing field or a bad value is a
    FormatError naming the file it was read from, and so is a lattice of
    another shape than the manifest's."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    shape = (manifest["height"], manifest["width"])
    with reading(directory / "manifest.json"):
        names = [
            fields(manifest["samples"][i], f"samples[{i}].", lattice=string, points=string).values()
            for i in (range(manifest["n"]) if indices is None else indices)
        ]
    samples = []
    for lattice_name, points_name in names:
        values = read_msl1(directory / lattice_name)
        if values.shape != shape:
            raise FormatError(
                f"{directory / lattice_name}: lattice is {values.shape[1]}x{values.shape[0]}, "
                f"the manifest gives {shape[1]}x{shape[0]}"
            )
        with reading(directory / lattice_name):
            lattice = ImageLattice(values)
        with reading(directory / points_name):
            pairs = [floats(pair) for pair in read_json(directory / points_name)]
            points = PointSet(np.asarray(pairs, dtype=np.float64).reshape(len(pairs), 2))
            samples.append(Sample(lattice=lattice, truth=points))
    return Dataset(tuple(samples)), manifest
