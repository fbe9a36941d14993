"""End-to-end recognition pipeline over paired thermal/visual images.

A dataset is a directory of class subdirectories, each holding PGM pairs
named ``<id>_thermal.pgm`` and ``<id>_visual.pgm``. Training fuses every
training pair, fits an eigenface basis on the fused images, projects them,
and trains an MLP on the features against 0.1/0.9 one-hot targets (soft
targets keep the sigmoid outputs out of saturation). Evaluation runs test
pairs through the same chain and reports per-class and overall recognition
rates plus a confusion grid.

Evaluation can also run in a single-modality baseline mode that feeds one
channel duplicated (thermal/thermal or visual/visual) through the identical
fuse-project-predict chain, which makes the benefit of fusing both
modalities directly measurable against the same trained model.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .eigen import AUTO, EigenspaceModel, fit_eigenspace, project
from .errors import DataError
from .fusion import FusionPolicy, FusionRule, fuse_images
from .imgio import load_image, save_image
from .mlp import MlpConfig, MlpModel, predict, train
from .wavelet import WaveletKind

MODALITIES = ("fused", "thermal", "visual")
MODEL_FORMAT_VERSION = 1

_NOISE_SIGMA = 0.02
_TEXTURE_SIGMA = 0.02


@dataclass
class Sample:
    id: str
    thermal: np.ndarray
    visual: np.ndarray
    train: bool = False


@dataclass
class ClassRecord:
    label: str
    samples: list[Sample]


@dataclass
class Dataset:
    classes: list[ClassRecord]
    unpaired: list[str] = field(default_factory=list)

    def counts(self) -> tuple[int, int]:
        flags = [s.train for rec in self.classes for s in rec.samples]
        return sum(flags), len(flags) - sum(flags)


@dataclass(frozen=True)
class PipelineConfig:
    wavelet: WaveletKind = WaveletKind.DB2
    levels: int = 5
    policy: FusionPolicy = FusionPolicy()
    pca_k: int | str = AUTO
    hidden: int = 100
    learning_rate: float = 0.1
    momentum: float = 0.9
    epochs: int = 1000
    target_error: float = 1e-3
    seed: int = 0
    split_fraction: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "wavelet", WaveletKind(self.wavelet))
        if isinstance(self.pca_k, str):
            if self.pca_k.lower() != AUTO:
                raise DataError(f"pca_k must be a positive integer or '{AUTO}'")
            object.__setattr__(self, "pca_k", AUTO)
        else:
            object.__setattr__(self, "pca_k", int(self.pca_k))
            if self.pca_k < 1:
                raise DataError(f"pca_k must be >= 1, got {self.pca_k}")
        if self.hidden < 1:
            raise DataError(f"hidden size must be >= 1, got {self.hidden}")


@dataclass
class PipelineModel:
    """Everything a recognition run needs: fusion config, eigenspace, MLP."""

    config: PipelineConfig
    class_labels: list[str]
    eigenspace: EigenspaceModel
    mlp: MlpModel

    def __post_init__(self):
        if self.mlp.config.layer_sizes[-1] != len(self.class_labels):
            raise DataError(
                f"MLP output size {self.mlp.config.layer_sizes[-1]} does not match "
                f"{len(self.class_labels)} classes"
            )
        if self.mlp.config.layer_sizes[0] != self.eigenspace.k:
            raise DataError(
                f"MLP input size {self.mlp.config.layer_sizes[0]} does not match "
                f"eigenspace size {self.eigenspace.k}"
            )

    @property
    def wavelet(self) -> WaveletKind:
        return self.config.wavelet

    @property
    def levels(self) -> int:
        return self.config.levels

    @property
    def policy(self) -> FusionPolicy:
        return self.config.policy


@dataclass
class ClassResult:
    label: str
    tested: int
    correct: int
    rate: float


@dataclass
class EvaluationReport:
    modality: str
    split: str
    per_class: list[ClassResult]
    overall_tested: int
    overall_correct: int
    overall_rate: float
    confusion: np.ndarray
    labels: list[str]
    unpaired: list[str]
    config: PipelineConfig


def ingest_dataset(root, split=0.5, seed: int = 0) -> Dataset:
    """Scan a dataset directory and assign each sample to train or test.

    ``split`` is either a train fraction in (0, 1), assigned per class from
    a generator seeded with ``seed``, or a mapping from class label to the
    collection of train sample ids (every other id becomes a test sample).
    Files lacking their partner modality are skipped and listed in
    ``Dataset.unpaired``.
    """
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    classes: list[ClassRecord] = []
    unpaired: list[str] = []
    for class_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        thermal = {p.name[: -len("_thermal.pgm")]: p for p in class_dir.glob("*_thermal.pgm")}
        visual = {p.name[: -len("_visual.pgm")]: p for p in class_dir.glob("*_visual.pgm")}
        for sid in sorted(set(thermal) ^ set(visual)):
            path = thermal.get(sid) or visual[sid]
            unpaired.append(str(path.relative_to(root)))
        samples = []
        for sid in sorted(set(thermal) & set(visual)):
            t = load_image(thermal[sid])
            v = load_image(visual[sid])
            if t.shape != v.shape:
                raise DataError(
                    f"pair {class_dir.name}/{sid}: thermal dims {t.shape} differ "
                    f"from visual dims {v.shape}"
                )
            samples.append(Sample(id=sid, thermal=t, visual=v))
        if samples:
            classes.append(ClassRecord(label=class_dir.name, samples=samples))
    if not classes:
        raise DataError(f"no classes with usable samples found under {root}")

    if isinstance(split, (int, float)):
        fraction = float(split)
        if not 0.0 < fraction < 1.0:
            raise DataError(f"split fraction must lie in (0, 1), got {split}")
        rng = np.random.default_rng(seed)
        for rec in classes:
            n_train = int(fraction * len(rec.samples) + 0.5)
            for pos in rng.permutation(len(rec.samples))[:n_train]:
                rec.samples[pos].train = True
    else:
        for rec in classes:
            wanted = set(split.get(rec.label, ()))
            unknown = wanted - {s.id for s in rec.samples}
            if unknown:
                raise DataError(
                    f"train ids not present in class {rec.label}: {sorted(unknown)}"
                )
            for s in rec.samples:
                s.train = s.id in wanted
    return Dataset(classes=classes, unpaired=unpaired)


def _rendered_pair(sample: Sample, modality: str) -> tuple[np.ndarray, np.ndarray]:
    if modality == "thermal":
        return sample.thermal, sample.thermal
    if modality == "visual":
        return sample.visual, sample.visual
    return sample.thermal, sample.visual


def train_pipeline(data: Dataset, cfg: PipelineConfig | None = None) -> PipelineModel:
    """Fuse the training pairs, fit the eigenspace, and train the classifier."""
    cfg = cfg or PipelineConfig()
    if len(data.classes) < 2:
        raise DataError(f"need at least 2 classes to train, got {len(data.classes)}")
    labels = [rec.label for rec in data.classes]
    fused: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for ci, rec in enumerate(data.classes):
        chosen = [s for s in rec.samples if s.train]
        if not chosen:
            raise DataError(f"class {rec.label} has no training samples")
        for s in chosen:
            fused.append(fuse_images(s.thermal, s.visual, cfg.wavelet, cfg.levels, cfg.policy))
            one_hot = np.full(len(labels), 0.1)
            one_hot[ci] = 0.9
            targets.append(one_hot)
    eigenspace = fit_eigenspace(fused, k=cfg.pca_k)
    features = [project(eigenspace, img) for img in fused]
    net = train(
        MlpConfig(
            layer_sizes=(eigenspace.k, cfg.hidden, len(labels)),
            learning_rate=cfg.learning_rate,
            momentum=cfg.momentum,
            epochs=cfg.epochs,
            seed=cfg.seed,
            target_error=cfg.target_error,
        ),
        list(zip(features, targets)),
    )
    return PipelineModel(config=cfg, class_labels=labels, eigenspace=eigenspace, mlp=net)


def evaluate(
    model: PipelineModel, data: Dataset, modality: str = "fused", split: str = "test"
) -> EvaluationReport:
    """Score one split of a dataset against a trained model.

    ``modality`` selects what is fed to the fusion stage: the actual pair,
    or one channel duplicated as a single-modality baseline. ``split`` may
    be ``"train"`` for a sanity run on the training samples; the report
    labels the mode either way.
    """
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r}, expected one of {MODALITIES}")
    if split not in ("test", "train"):
        raise DataError(f"unknown split {split!r}, expected 'test' or 'train'")
    index = {label: i for i, label in enumerate(model.class_labels)}
    n = len(model.class_labels)
    confusion = np.zeros((n, n), dtype=int)
    for rec in data.classes:
        if rec.label not in index:
            raise DataError(f"class {rec.label} is not known to the model")
        ci = index[rec.label]
        for s in rec.samples:
            if s.train != (split == "train"):
                continue
            t, v = _rendered_pair(s, modality)
            img = fuse_images(t, v, model.wavelet, model.levels, model.policy)
            predicted, _ = predict(model.mlp, project(model.eigenspace, img))
            confusion[ci, predicted] += 1
    total = int(confusion.sum())
    if total == 0:
        raise DataError(f"{split} split is empty")
    per_class = []
    for ci, label in enumerate(model.class_labels):
        tested = int(confusion[ci].sum())
        correct = int(confusion[ci, ci])
        per_class.append(
            ClassResult(label, tested, correct, correct / tested if tested else 0.0)
        )
    overall_correct = int(np.trace(confusion))
    return EvaluationReport(
        modality=modality,
        split=split,
        per_class=per_class,
        overall_tested=total,
        overall_correct=overall_correct,
        overall_rate=overall_correct / total,
        confusion=confusion,
        labels=list(model.class_labels),
        unpaired=list(data.unpaired),
        config=model.config,
    )


def generate_synthetic_dataset(
    classes: int, per_class: int, dims: tuple[int, int], seed: int, out_dir
) -> Path:
    """Write a deterministic paired dataset whose modalities complement each other.

    Each image splits into quadrants: the thermal channel lights the
    top-left and bottom-right, the visual channel the other two. A class c
    renders signature c // 2 in its thermal quadrants and c mod m (with
    m about classes/2) in its visual quadrants, as an amplitude level plus a
    smooth signature-specific texture. Distinct classes share each
    single-channel signature with one other class, so one modality alone
    cannot separate them while the pair identifies the class uniquely, and
    fused recognition beats either baseline by construction. Per-sample
    Gaussian noise makes samples within a class distinct.
    """
    if classes < 1:
        raise DataError(f"class count must be >= 1, got {classes}")
    if per_class < 1:
        raise DataError(f"per-class count must be >= 1, got {per_class}")
    rows, cols = dims
    if rows < 2 or cols < 2:
        raise DataError(f"dims must be at least 2x2, got {dims}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    half_r, half_c = rows // 2, cols // 2
    t_mask = np.zeros((rows, cols))
    t_mask[:half_r, :half_c] = 1.0
    t_mask[half_r:, half_c:] = 1.0
    v_mask = 1.0 - t_mask

    m = max(2, math.ceil(classes / 2))
    f_count = (classes - 1) // 2 + 1
    g_count = min(classes, m)

    def _levels(count):
        # Narrow spread: gaps stay far above the noise floor while the
        # fused-image PCA features stay small enough not to saturate the
        # downstream sigmoid network.
        return np.array([0.65]) if count == 1 else np.linspace(0.60, 0.70, count)

    def _texture(tag, value):
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag, value]))
        rough = rng.standard_normal((rows, cols))
        smooth = gaussian_filter(rough, sigma=max(2.0, min(rows, cols) / 16.0), mode="wrap")
        return _TEXTURE_SIGMA * smooth / smooth.std()

    f_amps, g_amps = _levels(f_count), _levels(g_count)
    f_tex = [_texture(1, v) for v in range(f_count)]
    g_tex = [_texture(2, v) for v in range(g_count)]

    class_width = max(2, len(str(classes - 1)))
    id_width = max(2, len(str(per_class - 1)))
    for c in range(classes):
        f_val, g_val = c // 2, c % m
        t_base = (f_amps[f_val] + f_tex[f_val]) * t_mask
        v_base = (g_amps[g_val] + g_tex[g_val]) * v_mask
        class_dir = out / f"class{c:0{class_width}d}"
        class_dir.mkdir(exist_ok=True)
        for s in range(per_class):
            rng = np.random.default_rng(np.random.SeedSequence([seed, 3, c, s]))
            t_img = t_base + _NOISE_SIGMA * rng.standard_normal((rows, cols))
            v_img = v_base + _NOISE_SIGMA * rng.standard_normal((rows, cols))
            save_image(t_img, class_dir / f"{s:0{id_width}d}_thermal.pgm")
            save_image(v_img, class_dir / f"{s:0{id_width}d}_visual.pgm")
    return out


def _config_dict(cfg: PipelineConfig) -> dict:
    return {
        "wavelet": cfg.wavelet.value,
        "levels": cfg.levels,
        "approx_rule": cfg.policy.approx_rule.value,
        "detail_rule": cfg.policy.detail_rule.value,
        "pca_k": cfg.pca_k,
        "hidden": cfg.hidden,
        "learning_rate": cfg.learning_rate,
        "momentum": cfg.momentum,
        "epochs": cfg.epochs,
        "target_error": cfg.target_error,
        "seed": cfg.seed,
        "split_fraction": cfg.split_fraction,
    }


def _config_from_dict(doc: dict) -> PipelineConfig:
    return PipelineConfig(
        wavelet=WaveletKind(doc["wavelet"]),
        levels=int(doc["levels"]),
        policy=FusionPolicy(
            approx_rule=FusionRule(doc["approx_rule"]),
            detail_rule=FusionRule(doc["detail_rule"]),
        ),
        pca_k=doc["pca_k"],
        hidden=int(doc["hidden"]),
        learning_rate=float(doc["learning_rate"]),
        momentum=float(doc["momentum"]),
        epochs=int(doc["epochs"]),
        target_error=float(doc["target_error"]),
        seed=int(doc["seed"]),
        split_fraction=float(doc["split_fraction"]),
    )


def save_model(model: PipelineModel, path) -> None:
    """Persist a model as one JSON document with full-precision decimal arrays."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": _config_dict(model.config),
        "class_labels": list(model.class_labels),
        "eigenspace": {
            "input_dims": list(model.eigenspace.input_dims),
            "mean": model.eigenspace.mean.tolist(),
            "eigenvalues": model.eigenspace.eigenvalues.tolist(),
            "basis": model.eigenspace.basis.tolist(),
        },
        "mlp": {
            "layer_sizes": list(model.mlp.config.layer_sizes),
            "activation": "sigmoid",
            "weights": [w.tolist() for w in model.mlp.weights],
            "biases": [b.tolist() for b in model.mlp.biases],
            "epochs_run": model.mlp.epochs_run,
            "final_error": model.mlp.final_error,
        },
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def load_model(path) -> PipelineModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"model file {path} must hold a JSON object, got {type(doc).__name__}")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    try:
        cfg = _config_from_dict(doc["config"])
        eig = doc["eigenspace"]
        eigenspace = EigenspaceModel(
            input_dims=tuple(eig["input_dims"]),
            mean=np.asarray(eig["mean"], dtype=np.float64),
            eigenvalues=np.asarray(eig["eigenvalues"], dtype=np.float64),
            basis=np.asarray(eig["basis"], dtype=np.float64),
        )
        mlp_doc = doc["mlp"]
        net = MlpModel(
            config=MlpConfig(
                layer_sizes=tuple(mlp_doc["layer_sizes"]),
                learning_rate=cfg.learning_rate,
                momentum=cfg.momentum,
                epochs=cfg.epochs,
                seed=cfg.seed,
                target_error=cfg.target_error,
            ),
            weights=[np.asarray(w, dtype=np.float64) for w in mlp_doc["weights"]],
            biases=[np.asarray(b, dtype=np.float64) for b in mlp_doc["biases"]],
            epochs_run=int(mlp_doc["epochs_run"]),
            final_error=float(mlp_doc["final_error"]),
        )
        labels = [str(lab) for lab in doc["class_labels"]]
    except (KeyError, TypeError) as exc:
        raise DataError(f"model file {path} is missing field: {exc}") from exc
    return PipelineModel(config=cfg, class_labels=labels, eigenspace=eigenspace, mlp=net)


def report_dict(report: EvaluationReport) -> dict:
    return {
        "modality": report.modality,
        "split": report.split,
        "config": _config_dict(report.config),
        "labels": list(report.labels),
        "per_class": [
            {"label": r.label, "tested": r.tested, "correct": r.correct, "rate": r.rate}
            for r in report.per_class
        ],
        "overall": {
            "tested": report.overall_tested,
            "correct": report.overall_correct,
            "rate": report.overall_rate,
        },
        "confusion": report.confusion.tolist(),
        "unpaired": list(report.unpaired),
    }


def save_report(report: EvaluationReport, path) -> None:
    Path(path).write_text(json.dumps(report_dict(report), indent=2) + "\n")


def format_report(report: EvaluationReport) -> str:
    """Render the per-class table that mirrors the JSON report."""
    width = max([len("overall")] + [len(r.label) for r in report.per_class])
    lines = [
        f"modality: {report.modality}  split: {report.split}  "
        f"wavelet: {report.config.wavelet.value}  levels: {report.config.levels}",
        f"{'class'.ljust(width)}  tested  correct    rate",
    ]
    for r in report.per_class:
        lines.append(f"{r.label.ljust(width)}  {r.tested:6d}  {r.correct:7d}  {r.rate:6.3f}")
    lines.append(
        f"{'overall'.ljust(width)}  {report.overall_tested:6d}  "
        f"{report.overall_correct:7d}  {report.overall_rate:6.3f}"
    )
    if report.unpaired:
        lines.append(f"unpaired files skipped: {len(report.unpaired)}")
    return "\n".join(lines)
