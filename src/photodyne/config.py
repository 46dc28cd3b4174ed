"""Flat typed experiment configuration with INI sections, plus the run
manifest that pins outputs to the config that produced them.

Every field has a default; unknown sections or keys are errors, not
warnings. to_text/from_text round-trip exactly, and config_hash is the
sha256 of the canonical text, so equal hashes mean equal runs.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import os
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path

from .fields import BURST_SIGNS, MODEL_KINDS

__all__ = [
    "ConfigError",
    "DataError",
    "ExperimentConfig",
    "RunManifest",
    "ENV_SEED",
    "ENV_OUTDIR",
]

ENV_SEED = "PHOTODYNE_SEED"
ENV_OUTDIR = "PHOTODYNE_OUTDIR"

FIELD_KINDS = MODEL_KINDS
SOURCES = ("semiclassical", "quantum")


class ConfigError(ValueError):
    """Bad configuration or arguments; maps to exit code 2."""


class DataError(ValueError):
    """Missing or inconsistent input data; maps to exit code 3."""


def _opens(section: str, default):
    """Default of the first field of an INI section; the fields after it, in
    declaration order, belong to the same section. One flat dataclass, the
    INI only groups, and each key's type is the type of its default."""
    return field(default=default, metadata={"section": section})


@dataclass(frozen=True)
class ExperimentConfig:
    g: float = _opens("system", 0.75)
    kappa: float = 1.0
    gamma: float = 1.0
    drive: float = 0.18
    fock_cutoff: int = 8
    kind: str = _opens("field", "thermal_ou")
    amplitude: float = 1.0
    phase: float = 0.0
    mean_intensity: float = 1.0
    tau_c: float = 2.0
    burst_rate: float = 0.05
    burst_freq: float = 1.5
    burst_decay: float = 0.35
    # relative burst height; kept in the weak-modulation regime where the
    # click-triggered current reads as the wave amplitude (stays under h = 2)
    burst_amp: float = 1.5
    burst_sign: str = "positive"
    lo_amplitude: float = _opens("detection", 8.0)
    lo_phase: float = 0.0
    lo_align: bool = True
    bandwidth: float = 0.5
    efficiency: float = 1.0
    dark_rate: float = 0.0
    dead_time: float = 0.0
    source: str = _opens("run", "quantum")
    seed: int = 20260819
    duration: float = 400.0
    dt: float = 0.02
    n_trajectories: int = 32
    jump_fraction: float = 0.5
    burn_in: float = 25.0
    workers: int = 1
    max_lag: float = _opens("analysis", 12.0)
    bin_width: float = 0.25
    halfwidth: float = 12.0
    n_frequencies: int = 401
    max_frequency: float = 0.0
    si_rate_scale_mhz: float = 20.0
    outdir: str = _opens("output", "out")
    label: str = "run"

    def __post_init__(self) -> None:
        if self.kind not in FIELD_KINDS:
            raise ConfigError(f"field.kind must be one of {FIELD_KINDS}")
        if self.burst_sign not in BURST_SIGNS:
            raise ConfigError(f"field.burst_sign must be one of {BURST_SIGNS}")
        if self.source not in SOURCES:
            raise ConfigError(f"run.source must be one of {SOURCES}")
        if self.dt <= 0 or self.duration <= 0:
            raise ConfigError("run.dt and run.duration must be > 0")
        if self.n_trajectories < 1 or self.workers < 1:
            raise ConfigError("run.n_trajectories and run.workers must be >= 1")
        if not 0.0 <= self.jump_fraction <= 1.0:
            raise ConfigError("run.jump_fraction must be inside [0, 1]")
        if self.seed < 0:
            raise ConfigError("run.seed must be >= 0")

    def to_text(self) -> str:
        by_section: dict[str, list[str]] = {}
        for (section, key), typ in _KEYS.items():
            v = getattr(self, key)
            if typ is bool:
                text = "true" if v else "false"
            elif typ is float:
                text = repr(float(v))
            else:
                text = str(v)
            by_section.setdefault(section, []).append(f"{key} = {text}\n")
        return "".join(f"[{s}]\n" + "".join(rows) + "\n" for s, rows in by_section.items())

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"unparseable config: {exc}") from exc
        kwargs = {}
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown section [{section}]")
            for key, raw in parser.items(section):
                typ = _KEYS.get((section, key))
                if typ is None:
                    raise ConfigError(f"unknown key {section}.{key}")
                try:
                    if typ is bool:
                        kwargs[key] = parser.BOOLEAN_STATES.get(raw.strip().lower())
                        if kwargs[key] is None:
                            raise ValueError(f"not a boolean: {raw!r}")
                    else:
                        kwargs[key] = raw.strip() if typ is str else typ(raw)
                except ValueError as exc:
                    raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        return cls.from_text(p.read_text())

    def save(self, path) -> None:
        Path(path).write_text(self.to_text())

    def config_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def with_env_overrides(self, env=None) -> tuple["ExperimentConfig", dict]:
        """Apply the two supported environment overrides, seed and outdir."""
        env = os.environ if env is None else env
        applied = {}
        cfg = self
        if ENV_SEED in env:
            raw = env[ENV_SEED]
            try:
                seed = int(raw)
            except ValueError as exc:
                raise ConfigError(f"{ENV_SEED} must be an integer: {raw!r}") from exc
            cfg = replace(cfg, seed=seed)
            applied["seed"] = seed
        if ENV_OUTDIR in env:
            cfg = replace(cfg, outdir=env[ENV_OUTDIR])
            applied["outdir"] = env[ENV_OUTDIR]
        return cfg, applied


# (section, key) -> type, in field order
_KEYS: dict[tuple[str, str], type] = {}
_section = None
for _f in dc_fields(ExperimentConfig):
    _section = _f.metadata.get("section", _section)
    _KEYS[(_section, _f.name)] = type(_f.default)
_SECTIONS = {section for section, _ in _KEYS}


@dataclass(frozen=True)
class RunManifest:
    """What a run produced: config hash, seed, and output byte sizes.

    Deliberately timestamp-free so reruns of the same config are
    byte-identical end to end.
    """

    config_hash: str
    seed: int
    source: str
    files: tuple[tuple[str, int], ...]

    def to_json(self) -> str:
        payload = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "source": self.source,
            "files": [{"name": n, "bytes": b} for n, b in self.files],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        try:
            payload = json.loads(text)
            files = tuple((f["name"], int(f["bytes"])) for f in payload["files"])
            return cls(
                config_hash=payload["config_hash"],
                seed=int(payload["seed"]),
                source=payload["source"],
                files=files,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"bad manifest: {exc}") from exc

    @classmethod
    def for_directory(cls, outdir, config: ExperimentConfig, names) -> "RunManifest":
        """Manifest of the named files in outdir, which must be exactly what
        the run wrote: other files there (a previous run's) are not listed."""
        base = Path(outdir)
        files = tuple((n, (base / n).stat().st_size) for n in sorted(names))
        return cls(
            config_hash=config.config_hash(),
            seed=config.seed,
            source=config.source,
            files=files,
        )

    def save(self, outdir) -> None:
        (Path(outdir) / "manifest.json").write_text(self.to_json())

    @classmethod
    def load(cls, outdir) -> "RunManifest":
        p = Path(outdir) / "manifest.json"
        if not p.is_file():
            raise DataError(f"manifest not found in {outdir}")
        return cls.from_json(p.read_text())

    def validate_files(self, outdir) -> None:
        base = Path(outdir)
        for name, size in self.files:
            p = base / name
            if not p.is_file():
                raise DataError(f"missing output file {name}")
            actual = p.stat().st_size
            if actual != size:
                raise DataError(
                    f"output file {name} is {actual} bytes, manifest says {size}"
                )
