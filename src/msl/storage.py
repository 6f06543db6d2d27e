"""On-disk formats: the MSL1 binary array container, dataset directories,
and canonical JSON.

MSL1 container layout (16-byte header, then payload):
  bytes 0..3   magic b"MSL1"
  bytes 4..7   width  (u32, little-endian)
  bytes 8..11  height (u32, little-endian)
  bytes 12..15 reserved, zero
  payload      width*height float32 values, little-endian, row-major
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .data import Dataset, ImageLattice, PointSet, Sample
from .errors import FormatError

MAGIC = b"MSL1"
_HEADER = struct.Struct("<4sII4s")


def write_msl1(path: Path, values: np.ndarray) -> None:
    """Write a 2-D array as an MSL1 container (float32 payload)."""
    v = np.asarray(values, dtype=np.float32)
    if v.ndim != 2:
        raise FormatError("MSL1 payload must be 2-D")
    height, width = v.shape
    header = _HEADER.pack(MAGIC, width, height, b"\x00" * 4)
    payload = v.astype("<f4", copy=False).tobytes(order="C")
    Path(path).write_bytes(header + payload)


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
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _sample_names(index: int) -> tuple[str, str]:
    return f"sample_{index:05d}.msl1", f"sample_{index:05d}.points.json"


def save_dataset(ds: Dataset, directory: Path, seed: int, config_echo: dict) -> Path:
    """Write a dataset directory: manifest.json plus one lattice and one
    points file per sample. Returns the manifest path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if ds.n == 0:
        raise FormatError("refusing to save an empty dataset")
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
    manifest_path = directory / "manifest.json"
    write_json(manifest_path, manifest)
    return manifest_path


def load_dataset(directory: Path) -> tuple[Dataset, dict]:
    """Read a dataset directory; returns (dataset, manifest)."""
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json")
    samples = []
    for entry in manifest["samples"]:
        values = read_msl1(directory / entry["lattice"])
        pairs = read_json(directory / entry["points"])
        points = PointSet(np.asarray(pairs, dtype=np.float64).reshape(len(pairs), 2))
        samples.append(Sample(lattice=ImageLattice(values), truth=points))
    if len(samples) != manifest["n"]:
        raise FormatError(f"{directory}: manifest lists n={manifest['n']} but {len(samples)} samples found")
    return Dataset(tuple(samples)), manifest
