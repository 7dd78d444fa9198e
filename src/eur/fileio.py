"""JSON serialization for measurement sets and density matrices.

Complex entries are stored as [real, imaginary] pairs.  Floats go through
Python's shortest-round-trip repr, so a write/read cycle reproduces every
value bit for bit.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from .core import DensityMatrix, MeasurementBasis, MeasurementChain

FORMAT_VERSION = 1


def _encode_complex_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _decode_entry(z) -> complex:
    """One [real, imag] pair; a pair of another length or with a boolean part is a TypeError."""
    if len(z) != 2 or isinstance(z[0], bool) or isinstance(z[1], bool):
        raise TypeError(f"not a [real, imag] pair: {z!r}")
    return complex(z[0], z[1])


def _decode_complex_matrix(rows, dim: int, what: str) -> np.ndarray:
    try:
        m = np.array([[_decode_entry(z) for z in row] for row in rows], dtype=complex)
    except (TypeError, IndexError, KeyError, OverflowError) as exc:
        raise ValueError(f"{what}: entries must be [real, imag] pairs") from exc
    except ValueError as exc:
        raise ValueError(f"{what}: expected a {dim} x {dim} matrix, got rows of unequal length") from exc
    if m.shape != (dim, dim):
        raise ValueError(f"{what}: expected a {dim} x {dim} matrix, got shape {m.shape}")
    return m


def _load_json(path, key: str) -> tuple[dict, int]:
    """The file's object and its ``dim``, after the envelope, key and ``dim`` checks."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    version = data.get("format_version")
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r} (expected {FORMAT_VERSION})")
    for k in ("dim", key):
        if k not in data:
            raise ValueError(f"{path}: missing key {k!r}")
    dim = data["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError(f"{path}: dim must be a positive integer, got {dim!r}")
    return data, dim


def _write_text(path, text: str) -> None:
    """Open, write, close; a failed write or close raises an OSError with ``path`` in its message, not its filename."""
    fh = open(path, "w")
    try:
        with fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from exc


def _dump_json(path, dim: int, key: str, value) -> None:
    _write_text(path, json.dumps({"format_version": FORMAT_VERSION, "dim": dim, key: value}, indent=1) + "\n")


def write_measurement_set(path, bases: Sequence[MeasurementBasis]) -> None:
    bases = list(bases)
    if not bases:
        raise ValueError("measurement set must contain at least one basis")
    dims = {b.dim for b in bases}
    if len(dims) != 1:
        raise ValueError(f"measurement set bases have mismatched dimensions: {sorted(dims)}")
    entries = [{"label": b.label, "vectors": _encode_complex_matrix(b.vectors)} for b in bases]
    _dump_json(path, bases[0].dim, "bases", entries)


def read_measurement_set(path) -> list[MeasurementBasis]:
    data, dim = _load_json(path, "bases")
    entries = data["bases"]
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: 'bases' must be a non-empty list")
    bases = []
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: basis {k} must be a JSON object")
        if "vectors" not in entry:
            raise ValueError(f"{path}: basis {k} missing 'vectors'")
        vectors = _decode_complex_matrix(entry["vectors"], dim, f"{path}: basis {k}")
        try:
            bases.append(MeasurementBasis(vectors, label=str(entry.get("label", f"basis-{k}"))))
        except ValueError as exc:
            raise ValueError(f"{path}: basis {k}: {exc}") from exc
    return bases


def read_chain(path) -> MeasurementChain:
    bases = read_measurement_set(path)
    if len(bases) < 2:
        raise ValueError(f"{path}: chain requires N >= 2 bases, file holds {len(bases)}")
    return MeasurementChain(tuple(bases))


def write_density_matrix(path, rho: DensityMatrix) -> None:
    _dump_json(path, rho.dim, "matrix", _encode_complex_matrix(rho.matrix))


def read_density_matrix(path) -> DensityMatrix:
    data, dim = _load_json(path, "matrix")
    matrix = _decode_complex_matrix(data["matrix"], dim, f"{path}: matrix")
    try:
        return DensityMatrix(matrix)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
