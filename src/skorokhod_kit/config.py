"""Flat key-value configuration files for experiments and domains.

The format is one `key = value` pair per line, `#` comments, with exactly
one level of grouping: a value may be a scalar, a tuple `(a, b, ...)`, or a
brace group `{k1 = v1, k2 = v2}`. Repeated keys accumulate, which is how a
domain file lists several halfspaces or balls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import domains as dom
from .domains import ConvexDomain
from .stats import KS_CRITICAL

BUILTIN_DOMAINS = {
    "half-line": dom.half_line,
    "halfplane": dom.halfplane,
    "orthant2": lambda: dom.orthant(2),
    "orthant3": lambda: dom.orthant(3),
    "unit-disc": dom.unit_disc,
    "strip": dom.strip,
}


def _split_top_level(text: str, sep: str = ",") -> list[str]:
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch in "({":
            depth += 1
        elif ch in ")}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_value(text: str):
    text = text.strip()
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ValueError(f"unterminated group in {text!r}")
        group = {}
        inner = text[1:-1].strip()
        if inner:
            for part in _split_top_level(inner):
                if "=" not in part:
                    raise ValueError(f"expected key = value inside group, got {part!r}")
                k, v = part.split("=", 1)
                group[k.strip()] = parse_value(v)
        return group
    if text.startswith("("):
        if not text.endswith(")"):
            raise ValueError(f"unterminated tuple in {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return ()
        return tuple(float(p) for p in _split_top_level(inner))
    return _parse_scalar(text)


def parse_kv_text(text: str) -> dict[str, list]:
    """Parse a flat document into key -> list of values (repeats preserved)."""
    out: dict[str, list] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        try:
            out.setdefault(key, []).append(parse_value(value))
        except ValueError as err:
            raise ValueError(f"line {lineno}: key {key}: {err}") from None
    return out


def parse_kv_file(path) -> dict[str, list]:
    return parse_kv_text(Path(path).read_text())


def domain_from_mapping(doc: dict[str, list]) -> ConvexDomain:
    """Build a domain from a parsed domain document."""
    if "dimension" not in doc:
        raise ValueError("domain file needs a dimension")
    d = _check_count("dimension", _whole_number("dimension", doc["dimension"][-1]))
    normals, offsets, centers, radii = [], [], [], []
    for group in doc.get("halfspace", []):
        if not isinstance(group, dict) or set(group) != {"normal", "offset"}:
            raise ValueError(f"halfspace group needs normal and offset, got {group!r}")
        normals.append(_domain_point("halfspace normal", group["normal"], d))
        offsets.append(_domain_number("halfspace offset", group["offset"]))
    for group in doc.get("ball", []):
        if not isinstance(group, dict) or set(group) != {"center", "radius"}:
            raise ValueError(f"ball group needs center and radius, got {group!r}")
        centers.append(_domain_point("ball center", group["center"], d))
        radii.append(_domain_number("ball radius", group["radius"]))
    if "interior_point" not in doc:
        raise ValueError("domain file needs an interior_point witness")
    witness = _domain_point("interior_point", doc["interior_point"][-1], d)
    return ConvexDomain(
        dimension=d,
        normals=np.array(normals).reshape(-1, d),
        offsets=np.array(offsets, dtype=np.float64),
        centers=np.array(centers).reshape(-1, d),
        radii=np.array(radii, dtype=np.float64),
        interior_point=witness,
    )


def _domain_number(what: str, value) -> float:
    """A number of a domain file, ``what`` naming its group and key; a ValueError otherwise."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"domain file {what} must be a number, got {value!r}")


def _domain_point(what: str, value, d: int) -> np.ndarray:
    """A tuple of d numbers of a domain file (one bare number when d = 1)."""
    if d == 1 and not isinstance(value, tuple):
        return np.array([_domain_number(what, value)])
    if isinstance(value, tuple) and len(value) == d:
        return np.array(value, dtype=np.float64)
    raise ValueError(f"domain file {what} must be a tuple of {d} numbers, got {value!r}")


def load_domain_file(path) -> ConvexDomain:
    return domain_from_mapping(parse_kv_file(path))


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: name, seed, sizes, domain, and output location."""

    experiment: str
    seed: int = 0
    n_paths: int = 1000
    horizon: float = 1.0
    n_steps: int = 1000
    domain: str | None = None
    domain_file: str | None = None
    coefficients: str | None = None
    out_dir: str = "results"
    emit_paths: bool = False
    alpha: float = 0.01
    tolerances: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    _KNOWN = {
        "experiment": ("experiment", str),
        "seed": ("seed", int),
        "n_paths": ("n_paths", int),
        "T": ("horizon", float),
        "N": ("n_steps", int),
        "domain": ("domain", str),
        "domain_file": ("domain_file", str),
        "coefficients": ("coefficients", str),
        "out": ("out_dir", str),
        "emit_paths": ("emit_paths", bool),
        "alpha": ("alpha", float),
    }

    def __post_init__(self):
        _check_count("n_paths", self.n_paths)
        _check_count("N", self.n_steps)
        _flag("emit_paths", self.emit_paths)
        if self.alpha not in KS_CRITICAL:
            raise ValueError(f"config key alpha must be one of {sorted(KS_CRITICAL)}, got {self.alpha}")

    @classmethod
    def from_mapping(cls, doc: dict, defaults: dict | None = None) -> "ExperimentConfig":
        """Build from a parsed document (last occurrence wins for scalars)."""
        kwargs: dict = dict(defaults or {})
        tolerances = dict(kwargs.pop("tolerances", {}))
        options = dict(kwargs.pop("options", {}))
        for key, values in doc.items():
            value = values[-1] if isinstance(values, list) else values
            if key in cls._KNOWN:
                attr, conv = cls._KNOWN[key]
                checked = {int: _whole_number, float: _real_number, bool: _flag}.get(conv)
                kwargs[attr] = checked(key, value) if checked else conv(value)
            elif key.startswith("tol_"):
                tolerances[key[4:]] = _real_number(key, value)
            else:
                options[key] = value
        if "experiment" not in kwargs:
            raise ValueError("config must name an experiment")
        return cls(tolerances=tolerances, options=options, **kwargs)

    def resolve_domain(self) -> ConvexDomain | None:
        """The configured domain, or None when the experiment supplies its own."""
        if self.domain_file is not None:
            if not Path(self.domain_file).is_file():
                raise ValueError(f"domain file not found: {self.domain_file}")
            return load_domain_file(self.domain_file)
        if self.domain is not None:
            if self.domain not in BUILTIN_DOMAINS:
                raise ValueError(
                    f"unknown domain {self.domain!r}; builtins: {sorted(BUILTIN_DOMAINS)}"
                )
            return BUILTIN_DOMAINS[self.domain]()
        return None

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def option(self, name: str, default):
        return self.options.get(name, default)

    def real_option(self, name: str, default: float) -> float:
        """An option that is a real number; a ValueError naming it otherwise."""
        return _real_number(name, self.options.get(name, default))

    def count_option(self, name: str, default: int) -> int:
        """An option that counts paths, steps or drivers: an integer >= 1."""
        return _check_count(name, _whole_number(name, self.options.get(name, default)))

    def replace(self, **changes) -> "ExperimentConfig":
        from dataclasses import replace as dc_replace

        return dc_replace(self, **changes)

    def as_dict(self) -> dict:
        return {
            **{key: getattr(self, attr) for key, (attr, _) in self._KNOWN.items()},
            "tolerances": dict(sorted(self.tolerances.items())),
            "options": {k: _plain(v) for k, v in sorted(self.options.items())},
        }


def _whole_number(key: str, value) -> int:
    """A count or seed: an int or a whole float; bools, fractions and text are rejected."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"config key {key} must be a whole number, got {value!r}")


def _real_number(key: str, value) -> float:
    """A float from an int or float; bools, text and tuples are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"config key {key} must be a number, got {value!r}")


def _flag(key: str, value) -> bool:
    """A switch: one of the booleans a config file spells true/false, yes/no or on/off."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"config key {key} must be true or false, got {value!r}")


def _check_count(key: str, value: int) -> int:
    if value < 1:
        raise ValueError(f"config key {key} must be at least 1, got {value}")
    return value


def _plain(value):
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value
