"""Flat key-value scenario files.

Format: one ``key = value`` assignment per line, ``#`` starts a comment,
arrays are bracketed ``[...]`` (positions as ``[x, y]`` pairs in meters).
Scalar power values may carry a ``dBm`` suffix (converted to watts) and
gains a ``dB`` suffix (converted to linear); everything else is SI.
Written files are always pure SI and round-trip exactly.
"""

from __future__ import annotations

import ast
import dataclasses
from importlib import resources
from pathlib import Path

import numpy as np

from .model import Scenario

__all__ = [
    "ConfigParseError",
    "parse_scenario_text",
    "load_scenario",
    "write_scenario",
    "bundled_scenario",
]

_SCALAR_FIELDS = ("H", "T", "P_u", "eta", "B", "sigma2", "Gamma", "beta0",
                  "M", "gamma_c", "W_mass", "V_max", "xi", "xi1")
_INT_FIELDS = ("K", "N")
_ARRAY_FIELDS = ("user_pos", "R", "q0", "qF")
_OPTIONAL = ("xi", "xi1")
_ALL_FIELDS = _INT_FIELDS + _SCALAR_FIELDS + _ARRAY_FIELDS


class ConfigParseError(ValueError):
    """Scenario file error, carrying the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _parse_scalar(raw: str, line: int) -> float:
    parts = raw.split()
    if len(parts) == 1:
        try:
            return float(parts[0])
        except ValueError:
            raise ConfigParseError(f"cannot parse number {raw!r}", line) from None
    if len(parts) == 2:
        try:
            value = float(parts[0])
        except ValueError:
            raise ConfigParseError(f"cannot parse number {parts[0]!r}", line) from None
        unit = parts[1]
        if unit == "dBm":
            return 10.0 ** ((value - 30.0) / 10.0)
        if unit == "dB":
            return 10.0 ** (value / 10.0)
        raise ConfigParseError(f"unknown unit suffix {unit!r} (use dBm or dB)", line)
    raise ConfigParseError(f"cannot parse value {raw!r}", line)


def parse_scenario_text(text: str) -> Scenario:
    """Parse scenario file contents into a validated :class:`Scenario`."""
    values: dict[str, object] = {}
    where: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigParseError(f"expected 'key = value', got {raw_line.strip()!r}",
                                   lineno)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _ALL_FIELDS:
            raise ConfigParseError(f"unknown field {key!r}", lineno)
        if key in values:
            raise ConfigParseError(f"duplicate field {key!r}", lineno)
        where[key] = lineno
        if key in _ARRAY_FIELDS:
            if not raw.startswith("["):
                raise ConfigParseError(f"{key} must be a bracketed array", lineno)
            try:
                values[key] = np.asarray(ast.literal_eval(raw), dtype=float)
            except (ValueError, SyntaxError) as exc:
                raise ConfigParseError(f"bad array for {key}: {exc}", lineno) from None
        elif key in _INT_FIELDS:
            v = _parse_scalar(raw, lineno)
            if not v.is_integer():
                raise ConfigParseError(f"{key} must be an integer, got {raw!r}", lineno)
            values[key] = int(v)
        else:
            values[key] = _parse_scalar(raw, lineno)

    missing = [f for f in _ALL_FIELDS if f not in values and f not in _OPTIONAL]
    if missing:
        raise ConfigParseError(f"missing required fields: {', '.join(missing)}")

    # Name the user index when the demand list is short, the most common slip.
    k = values["K"]
    r = values["R"]
    if r.ndim == 1 and len(r) < k:
        raise ConfigParseError(
            f"R has {len(r)} entries but K={k}; missing demand for user {len(r) + 1}",
            where["R"])
    try:
        return Scenario(**values)
    except ValueError as exc:
        raise ConfigParseError(f"invalid scenario: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Read and validate a UTF-8 scenario file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path} is not UTF-8 text: {exc}") from None
    return parse_scenario_text(text)


def write_scenario(s: Scenario, path) -> None:
    """Write a scenario as pure-SI key-value text (round-trips exactly)."""
    def fmt(v) -> str:
        return repr(float(v))

    def fmt_arr(a) -> str:
        a = np.asarray(a, dtype=float)
        if a.ndim == 1:
            return "[" + ", ".join(fmt(v) for v in a) + "]"
        return "[" + ", ".join(fmt_arr(row) for row in a) + "]"

    lines = []
    for field in dataclasses.fields(Scenario):
        v = getattr(s, field.name)
        text = (fmt_arr(v) if isinstance(v, np.ndarray)
                else str(v) if isinstance(v, int) else fmt(v))
        lines.append(f"{field.name} = {text}")
    Path(path).write_text("\n".join(lines) + "\n")


def bundled_scenario(name: str = "table2") -> Scenario:
    """Load one of the scenario files shipped with the package."""
    text = resources.files("uavmec").joinpath(f"scenarios/{name}.cfg").read_text()
    return parse_scenario_text(text)
