"""Declarative run configuration: defaults, file merge, flag overrides.

A run is described by one nested JSON document; command-line
``--set key=value`` flags override individual (dotted) fields and
``--seed`` overrides the simulation seed.  Validation failures carry
the dotted field path.  NaN and +-Infinity parse from JSON but are
never valid values, and reports echo the config, so they are rejected
wherever they appear.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path
from typing import Any


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


DEFAULTS: dict[str, Any] = {
    "alpha": 0.5,
    "phi": 0.0,
    "nu": 0.01,
    "n_cut": 64,
    "decoy": {"kind": "cat", "r": 0.5, "amplitudes": None},
    "channel": {"g": 0.9, "e": 0.01, "d0": 0.01, "d1": 0.01},
    "eve": None,
    "simulation": {"n_pulses": 100000, "seed": 1, "z": 5.0},
    "loss": {"mu": 0.5, "eta_b": 0.5, "eta_d": 0.2, "p_d": 0.01},
    "sweep": None,
    "tolerances": {"num_tol": 1e-10, "tail_tol": 1e-12},
}

# Fields that older configs may still give, each with why it went.
REMOVED = {
    "simulation.chunk_size": "removed: sessions are drawn as exact counts",
    "tolerances.degeneracy_tol": "removed: a Gram minor below the determinant floor is zero",
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _parse_set_value(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError:  # also an integer of more digits than int() converts
        return text  # bare words (e.g. decoy kinds) are strings


def _apply_set(cfg: dict, key: str, value: Any) -> None:
    parts = key.split(".")
    node = cfg
    for part in parts[:-1]:
        nxt = node.get(part)
        if not isinstance(nxt, dict):
            nxt = {}
            node[part] = nxt
        node = nxt
    node[parts[-1]] = value


def load_config(
    path: str | None = None,
    sets: list[str] | None = None,
    seed: int | None = None,
) -> dict:
    """Resolve the effective config: defaults <- file <- --set <- --seed."""
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}")
        except ValueError as exc:
            raise ConfigError("config", f"invalid JSON in {path}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config", "top-level value must be an object")
        cfg = _deep_merge(cfg, loaded)
    for item in sets or []:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        _apply_set(cfg, key.strip(), _parse_set_value(value.strip()))
    simulation = cfg.get("simulation")
    if seed is not None:
        if not isinstance(simulation, dict):
            raise ConfigError("simulation", f"expected an object to take --seed, got {simulation!r}")
        simulation["seed"] = seed
    _reject_non_finite(cfg, "")
    for field, why in REMOVED.items():
        section, key = field.split(".")
        if isinstance(cfg.get(section), dict) and key in cfg[section]:
            raise ConfigError(field, why)
    return cfg


def _reject_non_finite(node: Any, path: str) -> None:
    if isinstance(node, dict):
        for key, value in node.items():
            _reject_non_finite(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _reject_non_finite(value, f"{path}[{i}]")
    elif isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(path, f"must be finite, got {node}")


def require_number(cfg: dict, field: str, lo: float | None = None, hi: float | None = None) -> float:
    value = _lookup(cfg, field)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(field, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(field, "integer beyond float range")
    if not math.isfinite(number):
        raise ConfigError(field, f"must be finite, got {value}")
    if lo is not None and number < lo:
        raise ConfigError(field, f"must be >= {lo}, got {value}")
    if hi is not None and number > hi:
        raise ConfigError(field, f"must be <= {hi}, got {value}")
    return number


def require_int(cfg: dict, field: str, lo: int | None = None, hi: int | None = None) -> int:
    value = _lookup(cfg, field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        raise ConfigError(field, f"must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(field, f"must be <= {hi}, got {value}")
    return value


def _lookup(cfg: dict, field: str) -> Any:
    node: Any = cfg
    for part in field.split("."):
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(field, "missing value")
        node = node[part]
    return node
