"""Run configuration: INI files, command-line overrides, strict validation.

A run is described by five sections: [train], [loss], [image], [text],
[data]. Unknown sections or keys are rejected outright so typos fail
before any work starts. The same flat `section.key=value` text format is
embedded in checkpoints for exact run identity: `render_config_text`
writes it and `parse_config_text` reads it back.
"""

from __future__ import annotations

import configparser
import dataclasses
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .encoders import ConvConfig, TextConfig, VitConfig
from .errors import ConfigError
from .losses import LossConfig

SECTIONS = ("train", "loss", "image", "text", "data")


@dataclass
class TrainConfig:
    variant: str = "clip"
    epochs: int = 10
    batch_size: int = 64
    base_lr: float = 1e-4
    peak_lr: float = 1e-3
    warmup_epochs: float = 1.0
    weight_decay: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    image_encoder: str = "vit"  # vit | conv

    def __post_init__(self):
        if not 0 < self.base_lr <= self.peak_lr:
            raise ConfigError("need peak_lr >= base_lr > 0")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.warmup_epochs < 0 or (self.epochs and self.warmup_epochs > self.epochs):
            raise ConfigError("warmup_epochs must lie in [0, epochs]")
        if self.image_encoder not in ("vit", "conv"):
            raise ConfigError("image_encoder must be 'vit' or 'conv'")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("betas must lie in [0, 1)")


@dataclass
class DataConfig:
    train_manifest: str = ""
    val_manifest: str = ""
    classes_file: str = ""
    prompts_file: str = ""  # empty picks the built-in desk prompt set
    out_dir: str = "runs/run"


@dataclass
class RunConfig:
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    image: VitConfig | ConvConfig = field(default_factory=VitConfig)
    text: TextConfig = field(default_factory=TextConfig)
    data: DataConfig = field(default_factory=DataConfig)


def _parse_value(raw: str, type_name: str, key: str):
    raw = raw.strip()
    try:
        if type_name == "int":
            return int(raw)
        if type_name == "float":
            return float(raw)
        if type_name == "tuple[int, ...]":
            return tuple(int(p) for p in raw.split(",") if p.strip())
        return raw
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {type_name}") from None


def _build_dataclass(cls, mapping: dict[str, str], section: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(mapping) - set(fields)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}; "
            f"valid keys: {', '.join(sorted(fields))}"
        )
    kwargs = {}
    for key, raw in mapping.items():
        type_name = fields[key].type
        if not isinstance(type_name, str):
            type_name = getattr(type_name, "__name__", str(type_name))
        kwargs[key] = _parse_value(raw, type_name, f"{section}.{key}")
    return cls(**kwargs)


def _image_class(image_encoder: str):
    return VitConfig if image_encoder == "vit" else ConvConfig


def build_run_config(raw_sections: dict[str, dict[str, str]]) -> RunConfig:
    unknown = set(raw_sections) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown section(s): {', '.join(sorted(unknown))}; valid: {', '.join(SECTIONS)}")
    train_map = dict(raw_sections.get("train", {}))
    loss_map = dict(raw_sections.get("loss", {}))
    train = _build_dataclass(TrainConfig, train_map, "train")
    # the variant is stated once, under [train]; [loss] may override explicitly
    loss_map.setdefault("variant", train.variant)
    loss = _build_dataclass(LossConfig, loss_map, "loss")
    image = _build_dataclass(_image_class(train.image_encoder), raw_sections.get("image", {}), "image")
    text = _build_dataclass(TextConfig, raw_sections.get("text", {}), "text")
    data = _build_dataclass(DataConfig, raw_sections.get("data", {}), "data")
    return RunConfig(train, loss, image, text, data)


def read_config_file(path: str | Path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser()
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    return {section: dict(parser[section]) for section in parser.sections()}


def apply_overrides(sections: dict[str, dict[str, str]], overrides: list[str]) -> None:
    """Apply `section.key=value` strings in order."""
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in SECTIONS:
            raise ConfigError(f"unknown section in override {item!r}; valid: {', '.join(SECTIONS)}")
        sections.setdefault(section, {})[key] = value


def load_run_config(
    config_path: str | Path | None = None,
    overrides: list[str] | None = None,
) -> RunConfig:
    sections = read_config_file(config_path) if config_path else {}
    apply_overrides(sections, overrides or [])
    return build_run_config(sections)


def render_config_text(train_cfg: TrainConfig, loss_cfg: LossConfig, image_cfg, text_cfg: TextConfig) -> str:
    """Flat, sorted section.key=value text; embedded in checkpoints."""
    sections = {
        "train": asdict(train_cfg),
        "loss": asdict(loss_cfg),
        "image": asdict(image_cfg),
        "text": asdict(text_cfg),
    }
    lines = []
    for section in sorted(sections):
        for key in sorted(sections[section]):
            value = sections[section][key]
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{section}.{key}={value}")
    return "\n".join(lines)


def parse_config_text(text: str):
    """Inverse of render_config_text, for checkpoint identity."""
    sections: dict[str, dict[str, str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if "=" not in line or "." not in line.split("=", 1)[0]:
            raise ConfigError(f"config text line {lineno}: expected section.key=value")
        dotted, value = line.split("=", 1)
        section, key = dotted.split(".", 1)
        sections.setdefault(section, {})[key] = value
    cfg = build_run_config(sections)
    return cfg.train, cfg.loss, cfg.image, cfg.text
