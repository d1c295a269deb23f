"""Experiment configuration: INI parsing, validation, overrides, manifest echo.

Config files are INI key-value text with the sections [waveform], [region],
[optimizer], [quantization], and [run]. The init fields of each section's
dataclass are its keys, in manifest order, with their types and defaults;
each dataclass validates its own values and derives the rest. Unknown
sections or keys are rejected. Every run writes back a fully resolved
manifest that parses to the identical configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .exports import _rewrite
from .optimizer import OptimizerConfig
from .waveform import WaveformConfig, _psk_order

__all__ = [
    "ConfigError",
    "RegionSpec",
    "QuantizationSpec",
    "RunSpec",
    "ExperimentConfig",
]


class ConfigError(Exception):
    """Invalid or malformed experiment configuration."""


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if math.isnan(value):  # nan passes every range check, so it is never accepted
        raise ConfigError(f"{key}: expected a number, got {text!r}")
    return value


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _parse_mpsk(text: str, key: str) -> float:
    return math.inf if text.strip().lower() == "inf" else float(_parse_int(text, key))


def _parse_alphabets(text: str, key: str) -> tuple[float, ...]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ConfigError(f"{key} must list at least one size")
    return tuple(_parse_mpsk(t, key) for t in tokens)


def _parse_lo(text: str, key: str) -> float | None:
    return None if text.strip().lower() == "null" else _parse_float(text, key)


# parser per annotated type, with "| None" dropped, and the keys that type does not fit
_PARSERS = {
    "int": _parse_int, "float": _parse_float, "bool": _parse_bool, "str": lambda text, key: text,
}
_KEY_PARSERS = {
    "waveform.mpsk": _parse_mpsk,
    "region.lo": _parse_lo,
    "quantization.alphabets": _parse_alphabets,
}


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value == math.inf:
            return "inf"
        if float(value).is_integer() and abs(value) < 1e15:
            return str(int(value))
        return repr(float(value))
    return str(value)


@dataclass(frozen=True)
class RegionSpec:
    mode: str = "full"
    lo: float | None = None  # None means the detected first null, written as "null"
    hi: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mode", self.mode.lower())
        if self.mode not in ("full", "interval"):
            raise ValueError(f"mode must be 'full' or 'interval', got {self.mode!r}")
        if self.mode == "full":
            if self.lo is not None or self.hi is not None:
                raise ValueError("lo/hi are only valid with mode = interval")
            return
        if self.hi is None:
            raise ValueError("hi is required with mode = interval")
        if self.lo is not None and not 0.0 <= self.lo <= 1.0:
            raise ValueError(f"lo must be in [0, 1], got {self.lo}")
        if not 0.0 < self.hi <= 1.0:
            raise ValueError(f"hi must be in (0, 1], got {self.hi}")
        if self.lo is not None and self.lo >= self.hi:
            raise ValueError(f"lo ({self.lo}) must be below hi ({self.hi})")


@dataclass(frozen=True)
class QuantizationSpec:
    alphabets: tuple[float, ...] = (64.0, 32.0, 16.0, 8.0)

    def __post_init__(self) -> None:
        for size in self.alphabets:
            if size != math.inf:
                _psk_order(size, "each size in alphabets")


@dataclass(frozen=True)
class RunSpec:
    seed: int = 1
    seed_count: int = 1
    out: str = "out"
    threads: int = 1
    write_af: bool = True
    write_spectrogram: bool = True

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.seed_count < 1:
            raise ValueError("seed_count must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _keys(spec) -> list:
    """A section dataclass's INI keys: its init fields, not the derived ones."""
    return [f for f in fields(spec) if f.init]


def _parse_section(name: str, spec: type, block: dict[str, str]):
    """Build the dataclass ``spec`` of section ``name`` from its raw key-value text."""
    known = {f.name: f for f in _keys(spec)}
    unknown = set(block) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in [{name}]: {sorted(unknown)}")
    kwargs = {}
    for key, text in block.items():
        label = f"{name}.{key}"
        parse = _KEY_PARSERS.get(label) or _PARSERS[known[key].type.split(" | ")[0]]
        kwargs[key] = parse(text, label)
    try:
        return spec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One field per INI section, in manifest order."""

    waveform: WaveformConfig = field(default_factory=WaveformConfig)
    region: RegionSpec = field(default_factory=RegionSpec)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    quantization: QuantizationSpec = field(default_factory=QuantizationSpec)
    run: RunSpec = field(default_factory=RunSpec)

    @classmethod
    def from_sources(
        cls,
        path: str | Path | None = None,
        overrides: tuple[str, ...] | list[str] = (),
        seed: int | None = None,
        out: str | None = None,
        threads: int | None = None,
    ) -> "ExperimentConfig":
        """Build a config from an optional INI file plus override strings.

        ``overrides`` entries look like ``section.key=value`` and take
        precedence over the file; the keyword shortcuts win over both.
        """
        raw: dict[str, dict[str, str]] = {}
        if path is not None:
            parser = configparser.ConfigParser(interpolation=None)
            parser.optionxform = str  # keys are case-sensitive (waveform.L)
            with open(path, "r", encoding="utf-8") as fh:
                try:
                    parser.read_file(fh)
                except configparser.Error as exc:
                    raise ConfigError(f"cannot parse {path}: {exc}") from None
            for section in parser.sections():
                raw[section] = dict(parser.items(section))
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                raise ConfigError(
                    f"override must look like section.key=value, got {item!r}"
                )
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
            raw.setdefault(section.strip(), {})[key.strip()] = value.strip()
        for key, value in (("seed", seed), ("out", out), ("threads", threads)):
            if value is not None:
                raw.setdefault("run", {})[key] = str(value)

        # each section's dataclass is its field's default factory
        specs = {f.name: f.default_factory for f in fields(cls)}
        unknown = set(raw) - set(specs)
        if unknown:
            raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
        return cls(**{
            name: _parse_section(name, spec, raw.get(name, {}))
            for name, spec in specs.items()
        })

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, run=replace(self.run, seed=seed))

    def write_manifest(self, path: str | Path) -> None:
        """Write every key, the derived one of tbp and h included.

        A key whose value is None is left out, apart from an interval's
        ``lo``, which is written as ``null``.
        """
        lines = []
        for section in fields(self):
            spec = getattr(self, section.name)
            lines.append(f"[{section.name}]")
            for f in _keys(spec):
                value = getattr(spec, f.name)
                if value is not None:
                    lines.append(f"{f.name} = {_format_value(value)}")
                elif f.name == "lo" and spec.mode == "interval":
                    lines.append("lo = null")
            lines.append("")
        with _rewrite(path) as out:
            out.write("\n".join(lines).encode("utf-8"))
