"""Strict line-oriented run-configuration parser.

Format: `[section]` headers with `key = value` lines, full-line comments
starting with `#` or `;`.  Unknown sections or keys are rejected with
their line number, as are duplicates, type errors and NaN or infinite
floats (only the Lebesgue exponents q, r and drift_s take inf), and a
disc domain, which no subcommand runs, citing (D1).  The module only
parses: each standing assumption, such as (In1) on gamma or (In2) on the
drift, is checked by the run that reads the value.  The conformal metric
has one spelling, `[domain] kind = conformal_torus`: a torus domain with
phi = 0.1 cos(2 pi x_1), g = e^(2 phi) id.

Every key is one row of `_KEYS`: how its value parses, its default, and
its allowed values when they form a closed list.  No key picks an axis:
phi and the cosine shift vary along the first lattice axis and the shear
drift along the second; permuting `resolution` reorients a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import DomainSpec


class ConfigError(ValueError):
    """Raised for syntax errors, unknown keys, and invalid values."""


# One row per key: (kind, default, choices).  `kind` names how the value
# is parsed, a default of None leaves the key unset, and choices is None
# for an open value.  README's key reference lists the same rows.
_KEYS = {
    "domain": {
        "kind": ("str", "torus", ("box", "torus", "conformal_torus")),
        "dim": ("int", 3, None),
        "resolution": ("ints", (16,), None),
    },
    "problem": {
        "gamma": ("float", 2.0, None),
        "drift_kind": ("str", "none", ("none", "shear")),
        "drift_amplitude": ("float", 1.0, None),
        "drift_s": ("float", None, None),
        "drift_theta": ("float", None, None),
        "shift_kind": ("str", "none", ("none", "mode")),
        "shift_amplitude": ("float", 0.5, None),
        "source_kind": ("str", "none", ("none", "mode", "bump", "power")),
        "manufactured": ("str", "none", ("none", "symbolic")),
    },
    "experiment": {
        "amplitudes": ("floats", (1.0, 3.0, 10.0, 30.0, 100.0), None),
        "q": ("float", None, None),
        "r": ("float", None, None),
        "resolutions": ("ints", (17, 33, 65), None),
    },
    "mfg": {
        "alpha": ("float", 1.0, None),
        "eps": ("float", 0.1, None),
    },
    "output": {
        "dump_fields": ("bool", False, None),
    },
}


# The Lebesgue exponents, where inf is the L^inf case; every other float
# value must be finite, and no float value may be NaN.
_EXPONENTS = {("problem", "drift_s"), ("experiment", "q"), ("experiment", "r")}


@dataclass
class RunConfig:
    """Validated run configuration with built geometry specs."""

    sections: dict
    domain: DomainSpec = None
    phi: Optional[Callable] = None   # the conformal exponent, None when flat

    def __getitem__(self, section: str) -> dict:
        return self.sections[section]


def _parse_value(kind: str, raw: str, lineno: int):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw.lower()
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "ints":
            return tuple(int(part.strip()) for part in raw.split(",") if part.strip())
        if kind == "floats":
            return tuple(float(part.strip()) for part in raw.split(",") if part.strip())
    except ValueError:
        raise ConfigError(
            "line " + str(lineno) + ": cannot parse " + repr(raw) + " as " + kind
        ) from None
    raise ConfigError("line " + str(lineno) + ": unknown value kind " + kind)


def parse_config(text: str) -> RunConfig:
    """Parse and validate; deterministic for a given text."""
    sections = {
        name: {key: row[1] for key, row in rows.items()} for name, rows in _KEYS.items()
    }
    seen = set()
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#") or stripped.startswith(";"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip().lower()
            if name not in _KEYS:
                raise ConfigError("line " + str(lineno) + ": unknown section [" + name + "]")
            current = name
            continue
        if "=" not in stripped:
            raise ConfigError("line " + str(lineno) + ": expected key = value")
        if current is None:
            raise ConfigError("line " + str(lineno) + ": key outside any [section]")
        key, _, raw = stripped.partition("=")
        key = key.strip().lower()
        if key not in _KEYS[current]:
            raise ConfigError(
                "line " + str(lineno) + ": unknown key " + repr(key) + " in [" + current + "]"
            )
        if (current, key) in seen:
            raise ConfigError("line " + str(lineno) + ": duplicate key " + repr(key))
        seen.add((current, key))
        kind, _, choices = _KEYS[current][key]
        value = _parse_value(kind, raw, lineno)
        if kind in ("float", "floats"):
            exponent = (current, key) in _EXPONENTS
            for v in value if kind == "floats" else (value,):
                if not (math.isfinite(v) or (exponent and v == math.inf)):
                    raise ConfigError(
                        "line " + str(lineno) + ": [" + current + "] " + key + " must be "
                        + ("finite or inf" if exponent else "finite") + ", got " + repr(v)
                    )
        if (current, key, value) == ("domain", "kind", "disc"):
            # the library's polar disc grid serves geometry experiments only
            raise ConfigError(
                "line " + str(lineno)
                + ": assumption gate (D1) violated: subcommands run on a box or a torus, not a disc"
            )
        if choices is not None and value not in choices:
            raise ConfigError(
                "line " + str(lineno) + ": " + key + " must be one of " + ", ".join(choices)
            )
        sections[current][key] = value
    return _build(sections)


def _phi(coords):
    """The conformal torus's exponent: g = e^(2 phi) id."""
    return 0.1 * np.cos(2.0 * np.pi * coords[0])


def _build(sections: dict) -> RunConfig:
    dom = sections["domain"]
    conformal = dom["kind"] == "conformal_torus"
    kind = "torus" if conformal else dom["kind"]
    try:
        domain = DomainSpec(kind=kind, dim=dom["dim"], resolution=dom["resolution"])
    except ValueError as exc:
        raise ConfigError("domain block: " + str(exc)) from None

    ladder = sections["experiment"]["resolutions"]
    if any(n < 8 for n in ladder):
        raise ConfigError("experiment block: resolutions must be at least 8")
    if any(a >= b for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("experiment block: resolutions must be strictly increasing")
    if len(ladder) < 2:
        raise ConfigError("experiment block: resolutions must list at least two, to measure an order")

    return RunConfig(sections=sections, domain=domain, phi=_phi if conformal else None)
