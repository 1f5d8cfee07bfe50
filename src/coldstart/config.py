"""Experiment configuration: a flat key=value text file, CLI overrides, and a
content fingerprint that stamps every stage artifact so mismatched pipelines
refuse to chain."""

import hashlib
from dataclasses import dataclass, fields

TASK_CODES = ("Rg", "Cg", "Rp", "Cp")
GNN_TASKS = ("Rg", "Cg")  # the other two run the transformer over walks


@dataclass
class ExperimentConfig:
    dataset_path: str = "data/toy.tsv"
    dataset_format: str = "tsv"
    d: int = 32
    lr: float = 0.003
    layers: int = 4
    path_len: int = 6
    k_intrinsic: int = 3
    k_extrinsic: int = 8
    tau: float = 0.2
    delete_ratio: float = 0.2
    subst_ratio: float = 0.2
    aug: str = "delete"
    user_threshold: int = 25
    item_threshold: int = 15
    intrinsic_ratio: float = 0.7
    c_frac: float = 0.2
    k_eval: int = 20
    seed: int = 7
    tasks: str = "Rg,Cg,Rp,Cp"
    sampler: str = "dynamic"
    gt_epochs: int = 30
    pretrain_epochs: int = 10
    finetune_epochs: int = 10
    recon_batch: int = 128
    contrast_batch: int = 64
    finetune_batch: int = 64
    blocks: int = 2
    heads: int = 2
    freeze_encoders: bool = False
    replan_each_epoch: bool = False

    def task_list(self) -> list[str]:
        return [t.strip() for t in self.tasks.split(",") if t.strip()]

    def fingerprint(self) -> str:
        """sha256 over the sorted, canonically typed key=value lines; file
        ordering and formatting do not matter, every semantic field does."""
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name}={getattr(self, f.name)!r}")
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def parse_config_file(path) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


_CHOICES = {"sampler": ("random", "importance", "dynamic"),
            "aug": ("delete", "substitute", "both")}
# smallest accepted value of each integer key
_MIN = {"d": 1, "layers": 1, "k_intrinsic": 1, "k_extrinsic": 1, "k_eval": 1,
        "user_threshold": 0, "item_threshold": 0, "gt_epochs": 0, "pretrain_epochs": 0,
        "finetune_epochs": 0, "recon_batch": 1, "contrast_batch": 1, "finetune_batch": 1,
        "blocks": 0, "heads": 1}


def _check_values(cfg: ExperimentConfig) -> None:
    """Reject values that no stage can run with, naming the key."""
    def bad(key, why):
        raise ValueError(f"config key {key!r}: {why}, got {getattr(cfg, key)!r}")

    for key, low in _MIN.items():
        if getattr(cfg, key) < low:
            bad(key, f"must be >= {low}")
    for key in ("lr", "tau"):
        if not getattr(cfg, key) > 0.0:
            bad(key, "must be > 0")
    for key in ("c_frac", "intrinsic_ratio"):
        if not 0.0 < getattr(cfg, key) < 1.0:
            bad(key, "must be strictly between 0 and 1")
    for key in ("delete_ratio", "subst_ratio"):
        if not 0.0 <= getattr(cfg, key) <= 1.0:
            bad(key, "must be in [0, 1]")
    for key, options in _CHOICES.items():
        if getattr(cfg, key) not in options:
            bad(key, f"expected one of {', '.join(options)}")
    tasks = cfg.task_list()
    if not tasks or any(t not in TASK_CODES for t in tasks):
        bad("tasks", f"expected a comma-joined subset of {','.join(TASK_CODES)}")
    if any(t not in GNN_TASKS for t in tasks):  # the walk tasks' transformer
        if cfg.path_len < 2:
            bad("path_len", "walks need at least 2 nodes")
        if cfg.d % cfg.heads != 0:
            bad("heads", f"the transformer width d={cfg.d} must be divisible by the head count")
    if cfg.aug == "both" and cfg.subst_ratio != cfg.delete_ratio:
        raise ValueError(f"config keys 'subst_ratio' and 'delete_ratio': aug=both applies "
                         f"delete_ratio to both of its steps, so subst_ratio "
                         f"{cfg.subst_ratio!r} must equal delete_ratio {cfg.delete_ratio!r}")


_BOOLS = {"1": True, "true": True, "True": True, "0": False, "false": False, "False": False}


def build_config(file_values: dict[str, str] | None = None,
                 overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Typed config from defaults, then file values, then CLI overrides.
    Unknown keys and values that no stage can run with are errors."""
    cfg = ExperimentConfig()
    typed = {f.name: f.type for f in fields(cfg)}
    for source in (file_values or {}, overrides or {}):
        for key, val in source.items():
            if key not in typed:
                raise KeyError(f"unknown config key: {key!r}")
            current = getattr(cfg, key)
            if isinstance(current, bool):
                if val not in _BOOLS:
                    raise ValueError(f"config key {key!r}: expected one of "
                                     f"{', '.join(_BOOLS)}, got {val!r}")
                setattr(cfg, key, _BOOLS[val])
            elif isinstance(current, int):
                setattr(cfg, key, int(val))
            elif isinstance(current, float):
                setattr(cfg, key, float(val))
            else:
                setattr(cfg, key, str(val))
    _check_values(cfg)
    return cfg
