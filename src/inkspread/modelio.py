"""Flat-file model serialization and plane CSV export.

Binary layout, format version 2 (all little-endian):

    magic   4 bytes  b"IDSM"
    version u32      2
    n_inputs u32, n_groups u32, n_stains u32
    output spec      min f64, max f64, levels u32
    input specs      n_inputs x (min f64, max f64, levels u32)
    radii            radius_in f64, radius_out f64
    group sizes      n_groups x u32, summing to n_stains
    stains           n_stains x u32 levels (inputs, then output), group by group

The stain columns are written and read as they are, so a round trip is
exact.  The header counts fix
the file length, which is checked before anything else is read.  Every axis
holds at most ``MAX_LEVELS`` levels, which bounds what inference and plane
export allocate for a model read from a file.  The model then rejects
levels off their axes and output levels repeated in a group.  Version 1
files (dense float32 planes) are refused: retrain the model.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .core import MAX_LEVELS, QuantizationSpec, StainRadii
from .model import IdsPlane, Model

MAGIC = b"IDSM"
VERSION = 2
_HEAD = struct.Struct("<4sIIII")  # magic, version, n_inputs, n_groups, n_stains
_SPEC = struct.Struct("<ddI")
_RADII = struct.Struct("<dd")


def _check_levels(specs: list[QuantizationSpec], where: str) -> None:
    for spec in specs:
        if spec.levels > MAX_LEVELS:
            raise ValueError(f"{where}: an axis of {spec.levels} levels exceeds the format's {MAX_LEVELS}")


def save_model(model: Model, path: str | Path) -> None:
    _check_levels([model.output_spec, *model.input_specs], str(path))
    c_in, c_out, offsets = model.stains()
    parts = [_HEAD.pack(MAGIC, VERSION, model.n_inputs, len(offsets) - 1, len(c_out))]
    parts += [_SPEC.pack(s.min, s.max, s.levels) for s in [model.output_spec, *model.input_specs]]
    parts.append(_RADII.pack(model.radii.radius_in, model.radii.radius_out))
    parts.append(np.diff(offsets).astype("<u4").tobytes())
    parts.append(np.column_stack([c_in, c_out]).astype("<u4").tobytes())
    Path(path).write_bytes(b"".join(parts))


def load_model(path: str | Path) -> Model:
    """Read a version 2 model file; any malformed file raises ValueError."""
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise ValueError(f"{path}: not a model file (bad magic {raw[:4]!r})")
    if len(raw) < _HEAD.size:
        raise ValueError(f"{path}: truncated inside the header ({len(raw)} bytes)")
    _, version, n_inputs, n_groups, n_stains = _HEAD.unpack_from(raw)
    if version != VERSION:
        raise ValueError(f"{path}: unsupported format version {version} (version 1 held dense planes: retrain)")
    if n_inputs == 0:
        raise ValueError(f"{path}: a model needs at least one input")
    width = n_inputs + 1
    size = _HEAD.size + width * _SPEC.size + _RADII.size + 4 * n_groups + 4 * width * n_stains
    if len(raw) < size:
        raise ValueError(f"{path}: truncated: {len(raw)} bytes, its header announces {size}")
    if len(raw) > size:
        raise ValueError(f"{path}: {len(raw) - size} trailing bytes after the last stain")
    specs = [QuantizationSpec(*_SPEC.unpack_from(raw, _HEAD.size + k * _SPEC.size)) for k in range(width)]
    _check_levels(specs, str(path))
    off = _HEAD.size + width * _SPEC.size + _RADII.size
    radii = StainRadii(*_RADII.unpack_from(raw, off - _RADII.size))
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(raw, dtype="<u4", count=n_groups, offset=off), out=offsets[1:])
    if offsets[-1] != n_stains:
        raise ValueError(f"{path}: group sizes add up to {offsets[-1]}, the header announces {n_stains}")
    rows = np.frombuffer(raw, dtype="<u4", count=width * n_stains, offset=off + 4 * n_groups)
    rows = rows.reshape(n_stains, width).astype(np.int64)
    return Model.from_columns(rows[:, :-1], rows[:, -1], offsets, specs[1:], specs[0], radii)


def plane_to_csv(plane: IdsPlane, path: str | Path) -> None:
    """Heatmap export: one row per output level, one column per input level."""
    np.savetxt(path, plane.grid.T, delimiter=",", fmt="%.8g")
