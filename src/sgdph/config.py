"""Run configuration: a flat key=value file format (UTF-8, # comments,
dotted keys for the dataset and output groups) mapped onto one dataclass.
Unknown keys are a hard error. Every field has a default, so an empty
config is a valid blobs run."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .optim import SgdPhConfig, decayed_tau


class ConfigError(ValueError):
    pass


# frozen, so the checks of __post_init__ hold for the object's lifetime
@dataclass(frozen=True)
class RunConfig:
    model: str = "mlp-bn"
    optimizer: str = "sgdph"
    epochs: int = 200
    batch_size: int = 100
    seed: int = 0
    dtype: str = "f32"
    # optimizer hyperparameters (sgdm uses tau, beta_m, eta only)
    tau: float = 0.01
    tau_so: float = 0.001
    alpha: float = 0.9
    beta_m: float = 0.9
    eta: float = 0.005
    eps: float = 0.0001
    # learning-rate step decay; lr_decay_every <= 0 means auto:
    # max(1, epochs * 3 // 10), the 60-of-200 ratio at desk scale
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 0
    log_wall_time: bool = False
    # dataset group
    dataset_kind: str = "blobs"
    dataset_n: int = 1000
    dataset_dims: int = 2
    dataset_classes: int = 4
    dataset_noise: float = 0.5
    dataset_seed: int = 0
    dataset_train_images: str = ""
    dataset_train_labels: str = ""
    dataset_test_images: str = ""
    dataset_test_labels: str = ""
    dataset_subset_n: int = 1000
    # output group
    out_metrics: str = "metrics.jsonl"
    out_checkpoint: str = "model.ckpt"

    def __post_init__(self):
        if self.optimizer not in ("sgdph", "sgdm"):
            raise ConfigError(f"optimizer must be sgdph or sgdm, got {self.optimizer!r}")
        if self.dtype not in ("f32", "f64"):
            raise ConfigError(f"dtype must be f32 or f64, got {self.dtype!r}")
        if self.dataset_kind not in ("blobs", "idx"):
            raise ConfigError(f"dataset.kind must be blobs or idx, got {self.dataset_kind!r}")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive in training configs, got {self.eps}")
        if not 0 < self.lr_decay_factor <= 1:
            raise ConfigError(f"lr_decay_factor must lie in (0,1], got {self.lr_decay_factor}")
        try:
            self.opt_config()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        # the schedule only shrinks tau, so its last epoch holds the smallest
        last = self.epochs - 1
        try:
            self.opt_config(tau=decayed_tau(self.tau, last, self.decay_every,
                                            self.lr_decay_factor))
        except ValueError as e:
            raise ConfigError(
                f"lr_decay_factor={self.lr_decay_factor} every {self.decay_every} epochs "
                f"decays tau by epoch {last}: {e}") from None

    def opt_config(self, tau: float | None = None) -> SgdPhConfig:
        """The optimizer hyperparameters, with tau replaced by a scheduled
        value when one is given; SgdPhConfig checks their ranges."""
        return SgdPhConfig(tau=self.tau if tau is None else tau, tau_so=self.tau_so,
                           alpha=self.alpha, beta_m=self.beta_m, eta=self.eta, eps=self.eps)

    @property
    def decay_every(self) -> int:
        return self.lr_decay_every if self.lr_decay_every > 0 else max(1, self.epochs * 3 // 10)


# file keys use dots for the grouped fields
_KEY_TO_FIELD = {}
for f in fields(RunConfig):
    if f.name.startswith("dataset_"):
        _KEY_TO_FIELD["dataset." + f.name[len("dataset_"):]] = f
    elif f.name.startswith("out_"):
        _KEY_TO_FIELD["out." + f.name[len("out_"):]] = f
    else:
        _KEY_TO_FIELD[f.name] = f


def _coerce(f, raw: str, key: str):
    if f.type in ("int", int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if f.type in ("float", float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if f.type in ("bool", bool):
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected true/false, got {raw!r}")
    return raw


def parse_kv_lines(lines, source: str = "<config>") -> dict:
    """key=value lines -> field dict; blank lines and # comments skipped."""
    out = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line.strip()!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        f = _KEY_TO_FIELD[key]
        out[f.name] = _coerce(f, raw, key)
    return out


def load_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    """Reads a config file (none when path is empty) and applies --set
    key=value overrides on top."""
    values = {}
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            values = parse_kv_lines(fh, source=path)
    for item in overrides or []:
        values.update(parse_kv_lines([item], source=f"--set {item}"))
    return RunConfig(**values)
