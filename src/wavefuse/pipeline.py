"""Recognition over paired thermal/visual images: dataset index, training, evaluation, reports.

A dataset is a directory of class subdirectories, each holding PGM pairs
named ``<id>_thermal.pgm`` and ``<id>_visual.pgm``. Ingesting it only pairs
the file names. Training draws the split from its config (``Dataset.split``)
and the model records the samples it trained on; evaluation tests the rest.
Pixels are read where an image is used: training reads the training pairs,
evaluation the test images of the modality it scores. Training fuses every
training pair, fits an eigenface basis on the fused images, projects them,
and trains an MLP on the features against 0.1/0.9 one-hot targets (soft
targets keep the sigmoid outputs out of saturation). Evaluation runs test
pairs through the same chain and reports per-class and overall recognition
rates plus a confusion grid.

Evaluation can also score one sensor on its own: the thermal or visual image
of each test sample, unfused, goes through the same project-predict chain of
the fused-trained model. Fusing a channel with itself would give back the
same image up to rounding, so the wavelet stage is skipped.

Model and report files are read and written by ``store``, synthetic datasets by ``synth``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .eigen import EigenspaceModel, fit_eigenspace, project
from .errors import DataError
from .fusion import FusionPolicy, FusionRule, fuse_images
from .imgio import load_image
from .mlp import MlpConfig, MlpModel, parameter_count, predict, train
from .settings import AUTO, typed_fields
from .wavelet import WaveletKind

MODALITIES = ("fused", "thermal", "visual")


@dataclass
class Sample:
    """One co-registered pair, by the paths of its two PGM files."""

    id: str
    thermal: Path
    visual: Path

    @property
    def name(self) -> str:
        """``class/id``, as the sample is named in messages."""
        return f"{self.thermal.parent.name}/{self.id}"


@dataclass
class ClassRecord:
    label: str
    samples: list[Sample]


@dataclass
class Dataset:
    classes: list[ClassRecord]
    unpaired: list[str] = field(default_factory=list)

    def split(self, cfg: PipelineConfig) -> tuple[list, list]:
        """``cfg``'s (train, test) samples: lists of (class index, sample), in dataset order.

        Each class is permuted by its own generator, seeded with ``cfg.seed``
        and the bytes of its label; the first ``int(split_fraction * n + 0.5)``
        of its n positions train. So a class's split depends only on its own
        files, not on the classes beside it.
        """
        trained, tested = [], []
        for ci, rec in enumerate(self.classes):
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, *rec.label.encode()]))
            n = len(rec.samples)
            chosen = set(rng.permutation(n)[: int(cfg.split_fraction * n + 0.5)].tolist())
            for pos, s in enumerate(rec.samples):
                (trained if pos in chosen else tested).append((ci, s))
        return trained, tested


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting of a run, in the key order of the model file's ``config``."""

    wavelet: WaveletKind = WaveletKind.DB2
    levels: int = 5
    approx_rule: FusionRule = FusionPolicy.approx_rule
    detail_rule: FusionRule = FusionPolicy.detail_rule
    pca_k: int | str = AUTO
    hidden: int = 100
    learning_rate: float = MlpConfig.learning_rate
    momentum: float = MlpConfig.momentum
    epochs: int = MlpConfig.epochs
    target_error: float = MlpConfig.target_error
    seed: int = MlpConfig.seed
    split_fraction: float = 0.5

    def __post_init__(self):
        typed_fields(self)
        if self.levels < 1:
            raise DataError(f"levels must be >= 1, got {self.levels}")
        if self.pca_k != AUTO and self.pca_k < 1:
            raise DataError(f"pca_k must be >= 1, got {self.pca_k}")
        if self.hidden < 1:
            raise DataError(f"hidden size must be >= 1, got {self.hidden}")
        if not 0.0 < self.split_fraction < 1.0:
            raise DataError(f"split_fraction must lie in (0, 1), got {self.split_fraction}")
        self.mlp_config((1, self.hidden, 1))  # MlpConfig's checks of the training fields

    @functools.cached_property  # built once per config, not once per fused pair
    def policy(self) -> FusionPolicy:
        return FusionPolicy(self.approx_rule, self.detail_rule)

    def mlp_config(self, layer_sizes) -> MlpConfig:
        """The network config for ``layer_sizes``; MlpConfig's other fields are read from here."""
        shared = {f.name: getattr(self, f.name) for f in fields(MlpConfig)[1:]}  # after layer_sizes
        return MlpConfig(layer_sizes=tuple(layer_sizes), **shared)


@dataclass
class PipelineModel:
    """Everything a recognition run needs: config, eigenspace, MLP, and what it trained on."""

    config: PipelineConfig
    class_labels: list[str]
    eigenspace: EigenspaceModel
    mlp: MlpModel
    trained: list[str]  # the ``class/id`` names of the training samples, in split order

    def __post_init__(self):
        seen = set()
        for label in self.class_labels:
            if label in seen:
                raise DataError(f"class label {label!r} appears more than once")
            seen.add(label)
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
        shared = self.config.mlp_config(self.mlp.config.layer_sizes)
        if self.mlp.config != shared:
            raise DataError(f"mlp.config {self.mlp.config} does not match config's {shared}")


@dataclass
class ClassResult:
    label: str
    tested: int
    correct: int
    rate: float


@dataclass
class Tally:
    tested: int
    correct: int
    rate: float


@dataclass
class EvaluationReport:
    """One scored split; its fields are the report file's keys, in file order."""

    modality: str
    split: str
    config: PipelineConfig
    labels: list[str]
    per_class: list[ClassResult]
    overall: Tally
    confusion: list[list[int]]  # row: true class, column: predicted class, in ``labels`` order
    unpaired: list[str]

    @property
    def overall_tested(self) -> int:  # the name bench/tracing.py's evaluate hook reads
        return self.overall.tested


def ingest_dataset(root) -> Dataset:
    """Pair a dataset directory's file names, class by class in name order.

    No pixels are read here: a sample holds its two paths, and each command
    reads only the images it uses. Which pairs train is not decided here but
    by ``Dataset.split`` from a run's config. Files lacking their partner
    modality are skipped and listed in ``Dataset.unpaired``.
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
        paired = sorted(set(thermal) & set(visual))
        samples = [Sample(sid, thermal[sid], visual[sid]) for sid in paired]
        if samples:
            classes.append(ClassRecord(label=class_dir.name, samples=samples))
    if not classes:
        raise DataError(f"no classes with usable samples found under {root}")
    return Dataset(classes=classes, unpaired=unpaired)


def _image(cfg: PipelineConfig, sample: Sample, modality: str) -> np.ndarray:
    """Read the image a sample shows the eigenspace: its fused pair, or one sensor's own image."""
    if modality != "fused":
        return load_image(getattr(sample, modality))
    thermal, visual = load_image(sample.thermal), load_image(sample.visual)
    if thermal.shape != visual.shape:
        raise DataError(
            f"pair {sample.name}: thermal dims {thermal.shape} "
            f"differ from visual dims {visual.shape}"
        )
    return fuse_images(thermal, visual, cfg.wavelet, cfg.levels, cfg.policy)


def train_pipeline(data: Dataset, cfg: PipelineConfig | None = None) -> PipelineModel:
    """Fuse the training pairs, fit the eigenspace, and train the classifier."""
    cfg = cfg or PipelineConfig()
    if len(data.classes) < 2:
        raise DataError(f"need at least 2 classes to train, got {len(data.classes)}")
    labels = [rec.label for rec in data.classes]
    pairs, _ = data.split(cfg)
    trained = {ci for ci, _ in pairs}
    for ci, label in enumerate(labels):
        if ci not in trained:
            raise DataError(f"class {label} has no training samples")
    # Size the network for the largest k the fit can keep (it rejects a k above
    # the data's rank) before any image is read, so a hidden layer too large
    # to allocate fails at once.
    n_train = len(pairs)
    k_max = n_train - 1 if cfg.pca_k == AUTO else min(cfg.pca_k, n_train)
    count = parameter_count((k_max, cfg.hidden, len(labels)))
    try:
        np.empty(count)
    except ValueError:  # more bytes than NumPy can size, so it does not say "allocate"
        raise MemoryError(f"Unable to allocate a network of {count} float64 parameters") from None
    # one (N, R, C) array, allocated once the first fused image fixes the dims
    fused = None
    targets: list[np.ndarray] = []
    for row, (ci, s) in enumerate(pairs):
        img = _image(cfg, s, "fused")
        if fused is None:
            fused = np.empty((n_train, *img.shape))
        elif img.shape != fused.shape[1:]:
            raise DataError(
                f"pair {s.name}: fused dims {img.shape} differ from "
                f"pair {pairs[0][1].name}'s {fused.shape[1:]}"
            )
        fused[row] = img
        one_hot = np.full(len(labels), 0.1)
        one_hot[ci] = 0.9
        targets.append(one_hot)
    eigenspace = fit_eigenspace(fused, k=cfg.pca_k)
    # The fit centred ``fused`` in place, so each row is already what
    # ``project`` subtracts the mean to get; this is project's product.
    features = [eigenspace.basis @ centered for centered in fused.reshape(n_train, -1)]
    net = train(
        cfg.mlp_config((eigenspace.k, cfg.hidden, len(labels))), list(zip(features, targets))
    )
    return PipelineModel(cfg, labels, eigenspace, net, [s.name for _, s in pairs])


def evaluate(
    model: PipelineModel, data: Dataset, modality: str = "fused", split: str = "test"
) -> EvaluationReport:
    """Score one split of a dataset against a trained model.

    The test split is every present sample the model did not train on, by
    its ``class/id`` name in ``model.trained``; ``split="train"`` scores the
    present samples it did train on, as a sanity run. No split is drawn
    here, so a pair added or removed after training moves no sample across.
    ``modality`` picks the image each sample is scored on: the fused pair, or
    one sensor's own image as a single-sensor baseline for the same model.
    The report labels both.
    """
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r}, expected one of {MODALITIES}")
    if split not in ("test", "train"):
        raise DataError(f"unknown split {split!r}, expected 'test' or 'train'")
    index = {label: i for i, label in enumerate(model.class_labels)}
    present = {rec.label for rec in data.classes}
    for rec in data.classes:
        if rec.label not in index:
            raise DataError(f"class {rec.label} is not known to the model")
    # a report that tested no sample of a model class would pass for one of the whole model
    for label in model.class_labels:
        if label not in present:
            raise DataError(f"model class {label} is missing from the dataset")
    confusion = np.zeros((len(index), len(index)), dtype=int)
    trained = set(model.trained)
    for label, s in [(rec.label, s) for rec in data.classes for s in rec.samples
                     if (s.name in trained) == (split == "train")]:
        img = _image(model.config, s, modality)
        if img.shape != model.eigenspace.input_dims:
            raise DataError(
                f"pair {s.name}: {modality} dims {img.shape} differ from "
                f"model {model.eigenspace.input_dims}"
            )
        predicted, _ = predict(model.mlp, project(model.eigenspace, img))
        confusion[index[label], predicted] += 1
    overall = Tally(*_tally(confusion, np.trace(confusion)))
    if overall.tested == 0:
        raise DataError(f"{split} split is empty")
    return EvaluationReport(
        modality=modality,
        split=split,
        config=model.config,
        labels=list(model.class_labels),
        per_class=[ClassResult(label, *_tally(confusion[ci], confusion[ci, ci]))
                   for ci, label in enumerate(model.class_labels)],
        overall=overall,
        confusion=confusion.tolist(),
        unpaired=list(data.unpaired),
    )


def _tally(counts: np.ndarray, correct) -> tuple[int, int, float]:
    """(tested, correct, rate) of a confusion row, or of the whole grid; rate 0.0 if none tested."""
    tested, correct = int(counts.sum()), int(correct)
    return tested, correct, correct / tested if tested else 0.0


def format_report(report: EvaluationReport) -> str:
    """Render the per-class table that mirrors the JSON report."""
    width = max([len("overall")] + [len(r.label) for r in report.per_class])
    lines = [
        f"modality: {report.modality}  split: {report.split}  "
        f"wavelet: {report.config.wavelet.value}  levels: {report.config.levels}",
        f"{'class'.ljust(width)}  tested  correct    rate",
    ]
    for label, r in [(r.label, r) for r in report.per_class] + [("overall", report.overall)]:
        lines.append(f"{label.ljust(width)}  {r.tested:6d}  {r.correct:7d}  {r.rate:6.3f}")
    if report.unpaired:
        lines.append(f"unpaired files skipped: {len(report.unpaired)}")
    return "\n".join(lines)
