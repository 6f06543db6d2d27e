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
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import numpy as np

from .data import Dataset, ImageLattice, PointSet, Sample
from .errors import FormatError

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


class reading:
    """Within the block, a missing key or a bad value is a FormatError
    naming `path`, the file the block reads. Call `read_msl1` outside it:
    its FormatError names the file already."""

    def __init__(self, path: Path):
        self.path = path

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, (KeyError, TypeError, ValueError)):
            raise FormatError(f"{self.path}: {exc!r}") from exc


def _sample_names(index: int) -> tuple[str, str]:
    return f"sample_{index:05d}.msl1", f"sample_{index:05d}.points.json"


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
        lattice_name, points_name = _sample_names(i)
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
    """A dataset directory's manifest.json. A missing key, a width, height
    or n that is not a positive integer, a seed that is not a non-negative
    integer, or a samples list whose length is not n, is a FormatError
    naming the file."""
    manifest_path = Path(directory) / "manifest.json"
    with reading(manifest_path):
        manifest = read_json(manifest_path)
        for key, least in (("width", 1), ("height", 1), ("n", 1), ("seed", 0)):
            value = manifest[key]
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{key} is {value!r}, not an integer >= {least}")
        n, count = manifest["n"], len(manifest["samples"])
        if count != n:
            raise ValueError(f"manifest lists n={n} but {count} samples")
    return manifest


def load_dataset(directory: Path, indices=None) -> tuple[Dataset, dict]:
    """Read a dataset directory, or only the samples at `indices`, in that
    order; returns (dataset, manifest). A missing key or a bad value is a
    FormatError naming the file it was read from, and so is a lattice of
    another shape than the manifest's."""
    directory = Path(directory)
    manifest = read_manifest(directory)
    entries = manifest["samples"]
    with reading(directory / "manifest.json"):
        shape = (manifest["height"], manifest["width"])
        names = [
            (entries[i]["lattice"], entries[i]["points"])
            for i in (range(len(entries)) if indices is None else indices)
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
            pairs = read_json(directory / points_name)
            points = PointSet(np.asarray(pairs, dtype=np.float64).reshape(len(pairs), 2))
            samples.append(Sample(lattice=lattice, truth=points))
    return Dataset(tuple(samples)), manifest
