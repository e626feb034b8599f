"""Flat key=value run configuration.

One option per line, ``key = value``, with ``#`` comments and blank lines
ignored.  Unknown keys are rejected outright so a typo cannot silently fall
back to a default.  Command-line ``--set key=value`` overrides win over the
file.  The full schema with defaults is the field list of RunConfig.
``hw_substeps`` is capped at ``crossbar.MAX_SUBSTEPS``, since every substep
is a pass over the pulsed cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .crossbar import MAX_SUBSTEPS

DATASETS = ("f1", "f2", "circles", "spiral", "iris", "csv")
POLICIES = ("full", "error-gated", "merged")


@dataclass
class RunConfig:
    # dataset
    dataset: str = "f2"
    dataset_path: str = ""
    train_count: int = 1000
    test_count: int = 1000
    points_per_class: int = 200
    repetitions: int = 10
    seed: int = 0
    # quantization; min/max empty means "derive from the data"
    input_levels: int = 128
    output_levels: int = 128
    input_min: float | None = None
    input_max: float | None = None
    output_min: float | None = None
    output_max: float | None = None
    # stains
    radius_in: float = 10.0
    radius_out: float = 10.0
    # training policy
    policy: str = "full"
    tolerance: float = 0.1
    # crossbar overrides
    hw_epsilon: float = 0.01
    hw_v_read: float = 0.5
    hw_diode_drop: float = 0.7
    hw_v_prog: float = 1.5
    hw_base_width: float = 1e-6
    hw_substeps: int = 10
    hw_budget: int = 10000
    hw_D: float = 1e-8
    hw_R_on: float = 100.0
    hw_R_off: float = 10000.0
    hw_mu_v: float = 1e-14
    hw_V_th: float = 1.0
    # outputs
    out_dir: str = "."

    def __post_init__(self):
        if self.dataset not in DATASETS:
            raise ValueError(f"dataset must be one of {DATASETS}, got {self.dataset!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        for name in ("train_count", "test_count", "points_per_class", "repetitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("input_levels", "output_levels"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be >= 2")
        for lo, hi in (("input_min", "input_max"), ("output_min", "output_max")):
            if (getattr(self, lo) is None) != (getattr(self, hi) is None):
                raise ValueError(f"{lo} and {hi} must be set together")
        if self.radius_in <= 0 or self.radius_out <= 0:
            raise ValueError("stain radii must be positive")
        if math.isnan(self.tolerance):
            raise ValueError("tolerance must be a number, got NaN")
        if self.hw_substeps > MAX_SUBSTEPS:
            raise ValueError(f"hw_substeps must be <= {MAX_SUBSTEPS}, got {self.hw_substeps}")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_OPTIONAL_FLOATS = {"input_min", "input_max", "output_min", "output_max"}


def _coerce(key: str, raw: str):
    if key in _OPTIONAL_FLOATS:
        return None if raw == "" else float(raw)
    ftype = _FIELD_TYPES[key]
    if ftype == "int":
        return int(raw)
    if ftype == "float":
        return float(raw)
    return raw


def _parse_item(item: str, where: str) -> tuple[str, object]:
    """One ``key = value`` item, its value coerced to the key's type; errors
    start with ``where``.  An unknown key raises KeyError, so a file can
    collect every one of them."""
    if "=" not in item:
        raise ValueError(f"{where}: expected 'key = value', got {item!r}")
    key, _, raw = item.partition("=")
    key, raw = key.strip(), raw.strip()
    if key not in _FIELD_TYPES:
        raise KeyError(key)
    try:
        return key, _coerce(key, raw)
    except ValueError:
        raise ValueError(f"{where}: bad value {raw!r} for {key}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict = {}
    unknown: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            key, value = _parse_item(stripped, f"{source}:{lineno}")
        except KeyError as exc:
            unknown.append(f"{exc.args[0]} (line {lineno})")
            continue
        values[key] = value
    if unknown:
        raise ValueError(f"{source}: unknown keys: {', '.join(unknown)}")
    return values


def load_config(
    path: str | None,
    overrides: list[str] | None = None,
    defaults: dict | None = None,
) -> RunConfig:
    """Config file plus ``key=value`` override strings; either may be absent.

    ``defaults`` replaces the built-in field defaults for keys the user did
    not set; bench suite presets use it to pin their protocol parameters.
    """
    values: dict = {}
    if path is not None:
        values.update(parse_config_text(Path(path).read_text(), source=str(path)))
    # an override is never cut at '#': a path may hold one
    for item in overrides or []:
        try:
            key, value = _parse_item(item, f"--set {item!r}")
        except KeyError as exc:
            raise ValueError(f"unknown config key {exc.args[0]!r}") from None
        values[key] = value
    if defaults:
        bad = set(defaults) - set(_FIELD_TYPES)
        if bad:
            raise ValueError(f"unknown default keys: {sorted(bad)}")
        values = defaults | values
    return RunConfig(**values)
