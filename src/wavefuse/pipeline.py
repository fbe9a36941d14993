"""End-to-end recognition pipeline over paired thermal/visual images.

A dataset is a directory of class subdirectories, each holding PGM pairs
named ``<id>_thermal.pgm`` and ``<id>_visual.pgm``. Ingesting it only pairs
the file names, and a run's config draws the split (``Dataset.split``).
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
"""

from __future__ import annotations

import base64
import binascii
import functools
import json
import math
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .eigen import AUTO, EigenspaceModel, fit_eigenspace, project
from .errors import DataError
from .fusion import FusionPolicy, FusionRule, fuse_images
from .imgio import load_image, save_image
from .mlp import (
    MlpConfig, MlpModel, field_types, parameter_count, predict, train, typed, typed_fields,
)
from .wavelet import WaveletKind

MODALITIES = ("fused", "thermal", "visual")
MODEL_FORMAT_VERSION = 3

_NOISE_SIGMA = 0.02
_TEXTURE_SIGMA = 0.02
# bytes a model file's base64 is written or read in at a time; whole 3-byte groups
_PIECE = 3 << 16


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
    approx_rule: FusionRule = FusionRule.MAX_ABS
    detail_rule: FusionRule = FusionRule.MIN_ABS
    pca_k: int | str = AUTO
    hidden: int = 100
    learning_rate: float = 0.1
    momentum: float = 0.9
    epochs: int = 1000
    target_error: float = 1e-3
    seed: int = 0
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
    """Everything a recognition run needs: fusion config, eigenspace, MLP."""

    config: PipelineConfig
    class_labels: list[str]
    eigenspace: EigenspaceModel
    mlp: MlpModel

    def __post_init__(self):
        for i, label in enumerate(self.class_labels):
            if label in self.class_labels[:i]:
                raise DataError(f"class label {label!r} appears more than once")
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
    return PipelineModel(config=cfg, class_labels=labels, eigenspace=eigenspace, mlp=net)


def evaluate(
    model: PipelineModel, data: Dataset, modality: str = "fused", split: str = "test"
) -> EvaluationReport:
    """Score one split of a dataset against a trained model.

    ``modality`` picks the image each sample is scored on: the fused pair, or
    one sensor's own image as a single-sensor baseline for the same model.
    ``split`` may be ``"train"`` for a sanity run on the training samples;
    the report labels the mode either way.
    """
    if modality not in MODALITIES:
        raise DataError(f"unknown modality {modality!r}, expected one of {MODALITIES}")
    if split not in ("test", "train"):
        raise DataError(f"unknown split {split!r}, expected 'test' or 'train'")
    index = {label: i for i, label in enumerate(model.class_labels)}
    present = [rec.label for rec in data.classes]
    for label in present:
        if label not in index:
            raise DataError(f"class {label} is not known to the model")
    # a report that tested no sample of a model class would pass for one of the whole model
    for label in model.class_labels:
        if label not in present:
            raise DataError(f"model class {label} is missing from the dataset")
    confusion = np.zeros((len(index), len(index)), dtype=int)
    for di, s in data.split(model.config)[("train", "test").index(split)]:
        img = _image(model.config, s, modality)
        if img.shape != model.eigenspace.input_dims:
            raise DataError(
                f"pair {s.name}: {modality} dims {img.shape} differ from "
                f"model {model.eigenspace.input_dims}"
            )
        predicted, _ = predict(model.mlp, project(model.eigenspace, img))
        confusion[index[data.classes[di].label], predicted] += 1
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


@dataclass(frozen=True)
class SynthConfig:
    """Every setting of ``generate_synthetic_dataset``; the ``synth`` flags are its fields."""

    classes: int = 10
    per_class: int = 20
    rows: int = 64
    cols: int = 64
    seed: int = 0

    def __post_init__(self):
        typed_fields(self)
        if self.classes < 1:
            raise DataError(f"class count must be >= 1, got {self.classes}")
        if self.per_class < 1:
            raise DataError(f"per-class count must be >= 1, got {self.per_class}")
        if self.rows < 2 or self.cols < 2:
            raise DataError(f"dims must be at least 2x2, got {(self.rows, self.cols)}")


def generate_synthetic_dataset(cfg: SynthConfig, out_dir) -> Path:
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
    classes, per_class, rows, cols, seed = cfg.classes, cfg.per_class, cfg.rows, cfg.cols, cfg.seed

    half_r, half_c = rows // 2, cols // 2
    t_mask = np.zeros((rows, cols))
    t_mask[:half_r, :half_c] = 1.0
    t_mask[half_r:, half_c:] = 1.0
    v_mask = 1.0 - t_mask

    m = max(2, -(-classes // 2))
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
    # made only now, so a size that fails to allocate leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

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


def _json_fields(value):
    """``value`` as a JSON document: a dataclass becomes its fields in order, a list is
    mapped, an enum becomes its value, and other values stay as they are.

    An array becomes its shape and the array itself as ``f64le``; ``save_model``
    writes the base64 of its C-order little-endian float64 bytes there, piece
    by piece (``_write_base64``). A report holds no array.
    """
    if is_dataclass(value):
        return {f.name: _json_fields(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, list):
        return [_json_fields(item) for item in value]
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return {"shape": list(value.shape), "f64le": value}
    return value


def _write_base64(f, values: np.ndarray) -> None:
    """Write the base64 of ``values``' C-order little-endian float64 bytes to a binary file.

    Every piece but the last covers whole 3-byte groups, so the pieces join
    to exactly one ``b64encode`` of the bytes. A C-contiguous array is read
    through its buffer; any other (the trained basis is Fortran-ordered) is
    copied three rows at a time, which is a whole number of groups.
    """
    values = np.asarray(values, dtype="<f8")
    blocks = ([values] if values.flags.c_contiguous else
              (np.ascontiguousarray(values[i : i + 3]) for i in range(0, len(values), 3)))
    for block in blocks:
        raw = memoryview(block.reshape(-1)).cast("B")  # a view: the block is C-contiguous
        for start in range(0, len(raw), _PIECE):
            f.write(binascii.b2a_base64(raw[start : start + _PIECE], newline=False))


def _array(name: str, value) -> np.ndarray:
    """Decode one stored array, a ``{shape, f64le}`` object, piece by piece into its result.

    The buffer is sized from the text, never from the shape, so a shape that
    claims more than the text holds allocates nothing. Each piece is
    4-character aligned and only the text's last quantum may hold ``=``, so
    the pieces are valid exactly when the whole text is.
    """
    if not isinstance(value, dict) or set(value) != {"shape", "f64le"}:
        raise DataError(f"{name} must be a JSON object with keys shape, f64le")
    shape, text = value["shape"], value["f64le"]
    if not isinstance(shape, list) or not all(type(n) is int and n >= 0 for n in shape):
        raise DataError(f"{name}: shape must be a list of non-negative integers, got {shape!r}")
    if not isinstance(text, str):
        raise DataError(f"{name}: f64le must be a base64 string")
    if text.find("=", 0, len(text) - 4) != -1:  # a piece ending there would decode alone
        raise DataError(f"{name}: f64le is not valid base64: '=' before the last quantum")
    buf = bytearray(len(text) // 4 * 3)
    size, step = 0, _PIECE // 3 * 4
    for start in range(0, len(text), step):
        try:
            piece = base64.b64decode(text[start : start + step], validate=True)
        except ValueError as exc:
            raise DataError(f"{name}: f64le is not valid base64: {exc}") from None
        buf[size : size + len(piece)] = piece
        size += len(piece)
    if size != 8 * math.prod(shape):
        raise DataError(f"{name}: {size} bytes do not hold float64 shape {shape}")
    return np.frombuffer(buf, "<f8", size // 8).astype(np.float64, copy=False).reshape(shape)


def _from_json(kind, value, name: str):
    """``value``, read from a model file, as a ``kind``: the inverse of ``_json_fields``.

    ``name`` is the value's path in the document, "" for the document itself.
    A dataclass's keys must be exactly its fields; each field is decoded by
    its type, then the dataclass is built, so its own checks run. Anything
    malformed is a DataError naming the field.
    """
    where = f"field {name}" if name else "the document"
    if is_dataclass(kind):
        keys = [f.name for f in fields(kind)]
        if not isinstance(value, dict) or set(value) != set(keys):
            raise DataError(f"{where} must be a JSON object with keys {', '.join(keys)}")
        hints = field_types(kind)
        decoded = {key: _from_json(hints[key], value[key], f"{name}.{key}" if name else key)
                   for key in keys}
        try:
            return kind(**decoded)
        except DataError as exc:
            raise DataError(f"{where}: {exc}" if name else str(exc)) from exc
    if kind is np.ndarray:
        return _array(where, value)
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise DataError(f"{where} must be a list, got {type(value).__name__}")
        return [_from_json(typing.get_args(kind)[0], item, f"{name}[{i}]")
                for i, item in enumerate(value)]
    return typed(where, kind, value)


def save_model(model: PipelineModel, path) -> None:
    """Persist a model as one JSON document: ``format_version``, then ``_json_fields(model)``.

    Arrays are stored as exact float64 bytes. The document goes to the file as
    ``json`` encodes it, and each array's base64 is written in pieces straight
    from the array's buffer (a Fortran-ordered one three rows at a time), so
    neither the file's text nor a second copy of an array is ever held.
    """
    doc = {"format_version": MODEL_FORMAT_VERSION, **_json_fields(model)}
    # json.dump's chunks, except for the arrays: the encoder calls ``default``
    # on reaching one and next yields the encoding of what it returned, so
    # that chunk is the array's place, whatever text the labels hold
    arrays = []

    def default(value):
        if not isinstance(value, np.ndarray):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        arrays.append(value)
        return ""

    with Path(path).open("wb") as f:
        for chunk in json.JSONEncoder(default=default).iterencode(doc):
            if arrays:
                f.write(b'"')
                _write_base64(f, arrays.pop())
                f.write(b'"')
            else:
                f.write(chunk.encode("ascii"))
        f.write(b"\n")


def load_model(path) -> PipelineModel:
    """Read a model file of format 3; anything malformed is a DataError naming the file.

    Parsing holds the file's text and the parsed document, about twice the
    file's size; each array is then decoded piece by piece into the array it
    becomes. Formats 1 and 2 are rejected: retrain to upgrade.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: bad bytes, bad syntax or int's digit limit; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise DataError(f"model file {path} is not valid JSON: {exc}") from exc
    try:
        if not isinstance(doc, dict):
            raise DataError(f"must hold a JSON object, got {type(doc).__name__}")
        version = doc.pop("format_version", None)
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise DataError(
                f"unsupported model format version {version!r}, expected {MODEL_FORMAT_VERSION}"
            )
        return _from_json(PipelineModel, doc, "")
    except DataError as exc:
        raise DataError(f"model file {path}: {exc}") from exc


def save_report(report: EvaluationReport, path) -> None:
    Path(path).write_text(json.dumps(_json_fields(report), indent=2) + "\n")


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
