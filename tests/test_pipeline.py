"""Dataset ingestion, training, evaluation, generation, and persistence."""

import functools
import json
import math
import re
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavefuse import pipeline, store
from wavefuse.cli import main
from wavefuse.eigen import EigenspaceModel, fit_eigenspace, project
from wavefuse.errors import DataError
from wavefuse.fusion import FusionPolicy, FusionRule, fuse_images
from wavefuse.mlp import MlpConfig, MlpModel, parameter_count, predict, train
from wavefuse.imgio import load_image, save_image
from wavefuse.settings import field_types
from wavefuse.wavelet import WaveletKind
from wavefuse.pipeline import (
    ClassRecord,
    Dataset,
    EvaluationReport,
    PipelineConfig,
    PipelineModel,
    Sample,
    evaluate,
    format_report,
    ingest_dataset,
    train_pipeline,
)
from wavefuse.store import load_model, save_model, save_report
from wavefuse.synth import SynthConfig, generate_synthetic_dataset

SMALL_CFG = PipelineConfig(levels=3, epochs=200, hidden=20, seed=0)
DATA = Path(__file__).parent / "data"
# A small format-4 model file (2 classes x 4 samples at 8x8, db2 at 2 levels,
# k 2, hidden 3, 20 epochs); loading it and saving it must give its bytes.
MODEL_V4 = DATA / "model_v4.bin"
# The same model in format 3, which no longer loads.
MODEL_V3 = DATA / "model_v3.json"


def _count_reads(monkeypatch) -> list:
    """Record the path of every image the pipeline module reads from now on."""
    reads = []

    def counted(path):
        reads.append(path)
        return load_image(path)

    monkeypatch.setattr(pipeline, "load_image", counted)
    return reads


@pytest.fixture(scope="module")
def small_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    generate_synthetic_dataset(SynthConfig(4, 6, rows=16, cols=16, seed=5), root)
    return root


@pytest.fixture(scope="module")
def small_model(small_root):
    data = ingest_dataset(small_root)
    return train_pipeline(data, SMALL_CFG), data


class TestIngest:
    def test_class_and_sample_counts(self, small_root):
        data = ingest_dataset(small_root)
        assert len(data.classes) == 4
        assert all(len(rec.samples) == 6 for rec in data.classes)
        assert data.unpaired == []

    def test_split_counts_and_determinism(self, small_root):
        cfg = PipelineConfig(seed=3)
        split = ingest_dataset(small_root).split(cfg)
        assert ingest_dataset(small_root).split(cfg) == split
        assert [ci for ci, _ in split[0]] == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_samples_hold_the_pair_paths(self, small_root):
        sample = ingest_dataset(small_root).classes[1].samples[2]
        assert sample.thermal == small_root / "class01" / "02_thermal.pgm"
        assert sample.visual == small_root / "class01" / "02_visual.pgm"

    def test_no_pixels_are_read(self, small_root, monkeypatch):
        reads = _count_reads(monkeypatch)
        ingest_dataset(small_root)
        assert reads == []

    def test_unpaired_files_listed_and_skipped(self, tmp_path):
        cdir = tmp_path / "a"
        cdir.mkdir()
        save_image(np.full((8, 8), 0.5), cdir / "x_thermal.pgm")
        save_image(np.full((8, 8), 0.5), cdir / "x_visual.pgm")
        save_image(np.full((8, 8), 0.5), cdir / "lonely_thermal.pgm")
        data = ingest_dataset(tmp_path)
        assert data.unpaired == ["a/lonely_thermal.pgm"]
        assert [s.id for s in data.classes[0].samples] == ["x"]

    def test_only_unpaired_files_means_no_classes(self, tmp_path):
        cdir = tmp_path / "a"
        cdir.mkdir()
        save_image(np.full((8, 8), 0.5), cdir / "lonely_thermal.pgm")
        with pytest.raises(DataError, match="no classes"):
            ingest_dataset(tmp_path)

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(DataError, match="no classes"):
            ingest_dataset(tmp_path)

    def test_file_root_rejected(self, tmp_path):
        path = tmp_path / "data.pgm"
        save_image(np.full((8, 8), 0.5), path)
        with pytest.raises(DataError, match=re.escape(f"dataset root {path} is not a directory")):
            ingest_dataset(path)


def _classes(*sizes) -> Dataset:
    """A dataset of classes with ``sizes`` samples each, as paths alone (no files)."""
    return Dataset([
        ClassRecord(f"c{ci}", [Sample(f"{i:02d}", Path(f"c{ci}/{i:02d}_thermal.pgm"),
                                      Path(f"c{ci}/{i:02d}_visual.pgm")) for i in range(n)])
        for ci, n in enumerate(sizes)
    ])


def _reference_split(data: Dataset, fraction: float, seed: int):
    """The split rule written out: a generator per class, seeded with the seed and the
    label's bytes, one permutation of the class, a flag per sample."""
    sides = ([], [])
    for ci, rec in enumerate(data.classes):
        entropy = [seed] + list(rec.label.encode("utf-8"))
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        flags = [False] * len(rec.samples)
        for pos in rng.permutation(len(rec.samples))[: int(fraction * len(rec.samples) + 0.5)]:
            flags[pos] = True
        for s, flag in zip(rec.samples, flags):
            sides[0 if flag else 1].append((ci, s))
    return sides


SPLIT_CASES = [(0.5, 0), (0.5, 1), (0.4, 0), (0.7, 3), (0.25, 2), (0.6, 2), (0.99, 5), (0.01, 7)]


class TestSplit:
    @pytest.mark.parametrize("fraction, seed", SPLIT_CASES)
    def test_matches_the_reference_rule(self, fraction, seed):
        data = _classes(1, 6, 3, 1, 7, 2, 10)
        cfg = PipelineConfig(split_fraction=fraction, seed=seed)
        assert data.split(cfg) == _reference_split(data, fraction, seed)

    @pytest.mark.parametrize("fraction, seed", SPLIT_CASES)
    def test_sides_partition_each_class(self, fraction, seed):
        data = _classes(1, 6, 3, 1, 7, 2, 10)
        trained, tested = data.split(PipelineConfig(split_fraction=fraction, seed=seed))
        for ci, rec in enumerate(data.classes):
            train_ids = [s.id for c, s in trained if c == ci]
            test_ids = [s.id for c, s in tested if c == ci]
            assert len(train_ids) == int(fraction * len(rec.samples) + 0.5)
            assert sorted(train_ids + test_ids) == [s.id for s in rec.samples]

    @pytest.mark.parametrize("fraction, seed", SPLIT_CASES)
    def test_a_class_count_change_moves_no_other_class(self, fraction, seed):
        cfg = PipelineConfig(split_fraction=fraction, seed=seed)
        before = _classes(1, 6, 3, 1, 7, 2, 10).split(cfg)
        after = _classes(1, 5, 3, 1, 7, 2, 10).split(cfg)  # class c1 loses its last sample
        for side_before, side_after in zip(before, after):
            assert ([(ci, s) for ci, s in side_before if ci != 1]
                    == [(ci, s) for ci, s in side_after if ci != 1])

    def test_one_dataset_serves_two_configs(self, small_root, monkeypatch):
        data = ingest_dataset(small_root)
        reads = _count_reads(monkeypatch)
        a, b = PipelineConfig(seed=0), PipelineConfig(split_fraction=0.7, seed=3)
        split_a, split_b = data.split(a), data.split(b)
        assert split_a != split_b
        assert data.split(a) == split_a == _reference_split(data, 0.5, 0)
        assert split_b == _reference_split(data, 0.7, 3)
        assert data == ingest_dataset(small_root)  # splitting leaves the dataset as ingested
        assert reads == []


class TestTrainPipeline:
    def test_model_shape_invariants(self, small_model):
        model, _ = small_model
        assert model.class_labels == ["class00", "class01", "class02", "class03"]
        assert model.mlp.config.layer_sizes[0] == model.eigenspace.k
        assert model.mlp.config.layer_sizes[-1] == 4
        assert model.eigenspace.input_dims == (16, 16)

    def test_single_class_rejected(self, tmp_path):
        generate_synthetic_dataset(SynthConfig(1, 4, rows=16, cols=16, seed=0), tmp_path)
        data = ingest_dataset(tmp_path)
        with pytest.raises(DataError, match="classes"):
            train_pipeline(data, SMALL_CFG)

    def test_class_without_training_samples_rejected(self, tmp_path):
        # a 1-sample class at fraction 0.4 keeps its sample for testing (0.4 + 0.5 < 1)
        generate_synthetic_dataset(SynthConfig(3, 3, rows=16, cols=16, seed=0), tmp_path)
        for path in (tmp_path / "class01").glob("0[12]_*.pgm"):
            path.unlink()
        data = ingest_dataset(tmp_path)
        with pytest.raises(DataError, match="class class01 has no training samples"):
            train_pipeline(data, replace(SMALL_CFG, split_fraction=0.4))

    def test_pair_dim_mismatch_rejected(self, tmp_path):
        for label, visual_dims in (("a", (8, 10)), ("b", (8, 8))):
            cdir = tmp_path / label
            cdir.mkdir()
            save_image(np.full((8, 8), 0.5), cdir / "x_thermal.pgm")
            save_image(np.full(visual_dims, 0.5), cdir / "x_visual.pgm")
        data = ingest_dataset(tmp_path)
        # one sample per class: all are trained on
        assert [s for _, s in data.split(SMALL_CFG)[0]] == [rec.samples[0] for rec in data.classes]
        with pytest.raises(DataError, match=re.escape(
                "pair a/x: thermal dims (8, 8) differ from visual dims (8, 10)")):
            train_pipeline(data, SMALL_CFG)

    def test_reads_each_training_pair_once(self, small_root, monkeypatch):
        data = ingest_dataset(small_root)
        reads = _count_reads(monkeypatch)
        cfg = PipelineConfig(levels=3, epochs=5, hidden=4)
        train_pipeline(data, cfg)
        assert reads == [path for _, s in data.split(cfg)[0] for path in (s.thermal, s.visual)]
        assert len(reads) == 24  # 2 per training pair

    @pytest.mark.parametrize("pca_k", ["auto", 5])
    def test_oversized_network_fails_before_any_image_is_read(self, small_root, monkeypatch,
                                                             pca_k):
        data = ingest_dataset(small_root)
        reads = _count_reads(monkeypatch)
        with pytest.raises(MemoryError, match="Unable to allocate"):
            train_pipeline(data, PipelineConfig(levels=3, hidden=10**15, pca_k=pca_k))
        assert reads == []

    # 1.6e18 parameters are too many bytes for NumPy to size, and 1.6e19 too
    # many elements; both are a ValueError from np.empty, not a MemoryError
    @pytest.mark.parametrize("hidden", [10**17, 10**18])
    def test_network_numpy_cannot_size_fails_as_memory_error(self, small_root, monkeypatch,
                                                             hidden):
        data = ingest_dataset(small_root)
        reads = _count_reads(monkeypatch)
        count = parameter_count((11, hidden, 4))  # 12 training pairs, 4 classes
        with pytest.raises(MemoryError, match=f"^Unable to allocate a network of {count} float64 "):
            train_pipeline(data, PipelineConfig(levels=3, hidden=hidden))
        assert reads == []

    def test_fixed_pca_k_is_respected(self, small_root):
        data = ingest_dataset(small_root)
        model = train_pipeline(data, PipelineConfig(levels=3, epochs=20, hidden=8, pca_k=5))
        assert model.eigenspace.k == 5
        assert model.mlp.config.layer_sizes[0] == 5

    def test_reproducible_models(self, small_root):
        data1 = ingest_dataset(small_root)
        data2 = ingest_dataset(small_root)
        m1 = train_pipeline(data1, SMALL_CFG)
        m2 = train_pipeline(data2, SMALL_CFG)
        assert np.array_equal(m1.eigenspace.basis, m2.eigenspace.basis)
        assert all(np.array_equal(a, b) for a, b in zip(m1.mlp.weights, m2.mlp.weights))

    @pytest.mark.parametrize("wavelet", list(WaveletKind))
    def test_model_equals_reference_from_public_pieces(self, tmp_path, wavelet):
        # train_pipeline takes the features from the rows the fit centred in
        # place; the reference fits a list and projects each fused image.
        generate_synthetic_dataset(SynthConfig(3, 4, rows=19, cols=23, seed=2), tmp_path)
        data = ingest_dataset(tmp_path)
        cfg = PipelineConfig(wavelet=wavelet, levels=3, epochs=30, hidden=6)
        images, targets = [], []
        for ci, s in _reference_split(data, cfg.split_fraction, cfg.seed)[0]:
            images.append(fuse_images(load_image(s.thermal), load_image(s.visual),
                                      cfg.wavelet, cfg.levels, cfg.policy))
            targets.append(np.where(np.arange(3) == ci, 0.9, 0.1))
        eigenspace = fit_eigenspace(images, k=cfg.pca_k)
        features = [project(eigenspace, img) for img in images]
        net = train(cfg.mlp_config((eigenspace.k, cfg.hidden, 3)), list(zip(features, targets)))

        model = train_pipeline(data, cfg)
        assert model.eigenspace.input_dims == eigenspace.input_dims
        for name in ("mean", "eigenvalues", "basis"):
            assert np.array_equal(getattr(model.eigenspace, name), getattr(eigenspace, name))
        for got, want in zip(model.mlp.weights + model.mlp.biases, net.weights + net.biases):
            assert np.array_equal(got, want)
        assert (model.mlp.epochs_run, model.mlp.final_error) == (net.epochs_run, net.final_error)


class TestEvaluate:
    def test_report_arithmetic_invariants(self, small_model):
        model, data = small_model
        report = evaluate(model, data)
        assert report.overall.tested == sum(r.tested for r in report.per_class)
        assert report.overall.correct == sum(r.correct for r in report.per_class)
        for ci, row in enumerate(report.confusion):
            assert sum(row) == report.per_class[ci].tested
        for r in report.per_class:
            if r.tested:
                assert r.rate == pytest.approx(r.correct / r.tested)
        assert report.overall.rate == pytest.approx(
            report.overall.correct / report.overall.tested
        )

    def test_modalities_accepted_and_labeled(self, small_model):
        model, data = small_model
        for modality in ("fused", "thermal", "visual"):
            report = evaluate(model, data, modality=modality)
            assert report.modality == modality
        with pytest.raises(DataError, match="modality"):
            evaluate(model, data, modality="sonar")

    @pytest.mark.parametrize("modality, calls_per_sample", [
        ("fused", 1), ("thermal", 0), ("visual", 0),
    ])
    def test_only_the_fused_modality_runs_fusion(self, small_model, monkeypatch, modality,
                                                 calls_per_sample):
        model, data = small_model
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fuse_images(*args, **kwargs)

        monkeypatch.setattr(pipeline, "fuse_images", counted)
        report = evaluate(model, data, modality=modality)
        assert len(calls) == calls_per_sample * report.overall.tested == calls_per_sample * 12

    @pytest.mark.parametrize("modality, sensors", [
        ("fused", ("thermal", "visual")), ("thermal", ("thermal",)), ("visual", ("visual",)),
    ], ids=["fused", "thermal", "visual"])
    def test_reads_only_the_scored_test_images(self, small_model, monkeypatch, modality,
                                               sensors):
        model, data = small_model
        reads = _count_reads(monkeypatch)
        report = evaluate(model, data, modality=modality)
        assert reads == [getattr(s, sensor) for _, s in data.split(model.config)[1]
                         for sensor in sensors]
        assert len(reads) == len(sensors) * report.overall.tested == len(sensors) * 12

    @pytest.mark.parametrize("modality", ["thermal", "visual"])
    def test_sensor_image_predicts_as_its_self_fusion(self, small_model, modality):
        # fusing an image with itself gives it back up to rounding, so skipping
        # the fusion must not move any prediction
        model, data = small_model
        cfg = model.config
        for rec in data.classes:
            for s in rec.samples:
                raw = load_image(getattr(s, modality))
                self_fused = fuse_images(raw, raw, cfg.wavelet, cfg.levels, cfg.policy)
                assert (predict(model.mlp, project(model.eigenspace, raw))[0]
                        == predict(model.mlp, project(model.eigenspace, self_fused))[0])

    def test_train_split_sanity_mode_labeled(self, small_model):
        model, data = small_model
        report = evaluate(model, data, split="train")
        assert report.split == "train"
        assert report.overall.tested == 12  # 4 classes x 3 training samples
        with pytest.raises(DataError, match="unknown split 'x', expected 'test' or 'train'"):
            evaluate(model, data, split="x")

    def test_empty_test_split_rejected(self, small_model, tmp_path):
        # a copy of the set that holds only the pairs the model trained on
        model, _ = small_model
        generate_synthetic_dataset(SynthConfig(4, 6, rows=16, cols=16, seed=5), tmp_path)
        for rec in ingest_dataset(tmp_path).classes:
            for s in rec.samples:
                if s.name not in model.trained:
                    s.thermal.unlink()
                    s.visual.unlink()
        data = ingest_dataset(tmp_path)
        assert evaluate(model, data, split="train").overall.tested == 12
        with pytest.raises(DataError, match="^test split is empty$"):
            evaluate(model, data)

    def test_evaluation_reads_no_image_training_read(self, small_root, monkeypatch):
        data = ingest_dataset(small_root)
        cfg = PipelineConfig(levels=3, epochs=5, hidden=4, split_fraction=0.7, seed=3)
        reads = _count_reads(monkeypatch)
        model = train_pipeline(data, cfg)
        trained = set(reads)
        reads.clear()
        for modality in ("fused", "thermal", "visual"):
            evaluate(model, data, modality=modality)
        assert len(trained) == 2 * 4 * 4  # 4 of each class's 6 pairs train at 0.7
        assert trained.isdisjoint(reads)
        assert trained | set(reads) == set(small_root.glob("*/*.pgm"))

    def test_unknown_class_rejected(self, small_model, tmp_path):
        model, _ = small_model
        generate_synthetic_dataset(SynthConfig(2, 2, rows=16, cols=16, seed=9), tmp_path)
        (tmp_path / "class00").rename(tmp_path / "stranger")
        data = ingest_dataset(tmp_path)
        with pytest.raises(DataError, match="not known"):
            evaluate(model, data)

    def test_missing_model_class_rejected_before_any_read(self, tmp_path, monkeypatch):
        # a report without class01 would read as that class recognised at 0 %
        generate_synthetic_dataset(SynthConfig(3, 6, rows=16, cols=16, seed=0), tmp_path)
        cfg = PipelineConfig(levels=2, epochs=5, hidden=4)
        model = train_pipeline(ingest_dataset(tmp_path), cfg)
        for p in (tmp_path / "class01").iterdir():
            p.unlink()
        data = ingest_dataset(tmp_path)
        reads = _count_reads(monkeypatch)
        with pytest.raises(DataError, match="^model class class01 is missing from the dataset$"):
            evaluate(model, data)
        assert reads == []

    def test_class_that_lost_a_pair_scores_no_training_image(self, tmp_path, monkeypatch):
        # With one generator shared across classes, this scored class01/05, a
        # training image, among the test images. Now no other class can move.
        # class00 itself re-draws its split at 5 samples; this draw keeps its
        # three training pairs, which another draw need not do.
        generate_synthetic_dataset(SynthConfig(3, 6, rows=16, cols=16, seed=0), tmp_path)
        cfg = PipelineConfig(levels=2, epochs=5, hidden=4)
        reads = _count_reads(monkeypatch)
        model = train_pipeline(ingest_dataset(tmp_path), cfg)
        trained = set(reads)
        for p in (tmp_path / "class00").glob("05_*.pgm"):
            p.unlink()
        reads.clear()
        report = evaluate(model, ingest_dataset(tmp_path))
        assert report.overall.tested == 8  # class00 held out 3 of 6, and lost one of them
        assert len(trained) == 2 * 9 and trained.isdisjoint(reads)


    def test_pair_removed_from_each_side_scores_no_training_image(self, tmp_path, monkeypatch):
        # At 4 pairs, class01 re-draws its split with one of its training
        # pairs on the test side; the model's record of them keeps it there.
        generate_synthetic_dataset(SynthConfig(3, 6, rows=16, cols=16, seed=0), tmp_path)
        cfg = PipelineConfig(levels=2, epochs=5, hidden=4)
        data = ingest_dataset(tmp_path)
        reads = _count_reads(monkeypatch)
        model = train_pipeline(data, cfg)
        trained = set(reads)
        for side in data.split(cfg):
            gone = next(s for ci, s in side if ci == 1)
            gone.thermal.unlink()
            gone.visual.unlink()
        reads.clear()
        report = evaluate(model, ingest_dataset(tmp_path))
        assert trained.isdisjoint(reads)
        assert report.overall.tested == 8  # class01 held out 3 of 6, and lost one of them
        assert len(reads) == 2 * 8

    def test_model_records_its_training_samples_in_split_order(self, small_model):
        model, data = small_model
        assert model.trained == [s.name for _, s in data.split(model.config)[0]]
        assert model.trained[:3] == ["class00/00", "class00/02", "class00/04"]


class TestGenerator:
    def test_file_counts_and_layout(self, tmp_path):
        out = generate_synthetic_dataset(
            SynthConfig(10, 20, rows=64, cols=64, seed=0), tmp_path / "d")
        dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert len(dirs) == 10
        files = list(out.glob("*/*.pgm"))
        assert len(files) == 400
        img = load_image(out / "class00" / "00_thermal.pgm")
        assert img.shape == (64, 64)

    def test_same_seed_identical_files(self, tmp_path):
        a = generate_synthetic_dataset(SynthConfig(3, 2, rows=32, cols=32, seed=4), tmp_path / "a")
        b = generate_synthetic_dataset(SynthConfig(3, 2, rows=32, cols=32, seed=4), tmp_path / "b")
        for pa in sorted(a.glob("*/*.pgm")):
            pb = b / pa.relative_to(a)
            assert pa.read_bytes() == pb.read_bytes()

    def test_smallest_fixture_runs_end_to_end(self, tmp_path):
        out = generate_synthetic_dataset(
            SynthConfig(2, 2, rows=16, cols=16, seed=1), tmp_path / "d")
        data = ingest_dataset(out)
        model = train_pipeline(data, PipelineConfig(levels=2, epochs=5, hidden=4))
        report = evaluate(model, data)
        assert report.overall.tested == 2

    def test_modalities_complement_each_other(self, tmp_path):
        out = generate_synthetic_dataset(
            SynthConfig(6, 4, rows=32, cols=32, seed=2), tmp_path / "d")
        thermal_means = {}
        visual_means = {}
        for c in range(6):
            t = load_image(out / f"class{c:02d}" / "00_thermal.pgm")
            v = load_image(out / f"class{c:02d}" / "00_visual.pgm")
            thermal_means[c] = t[:16, :16].mean()  # thermal quadrant
            visual_means[c] = v[:16, 16:].mean()  # visual quadrant
        # class pairs share thermal signatures but not visual ones
        assert abs(thermal_means[0] - thermal_means[1]) < 0.02
        assert abs(visual_means[0] - visual_means[1]) > 0.02

    def test_bad_counts_rejected(self, tmp_path):
        with pytest.raises(DataError):
            generate_synthetic_dataset(SynthConfig(0, 2, rows=16, cols=16, seed=0), tmp_path)
        with pytest.raises(DataError):
            generate_synthetic_dataset(SynthConfig(2, 0, rows=16, cols=16, seed=0), tmp_path)


class TestSynthConfig:
    """The ``synth`` settings are typed by the rule every config uses."""

    def test_fields_and_defaults_are_the_synth_flags(self):
        assert [f.name for f in fields(SynthConfig)] == [
            "classes", "per_class", "rows", "cols", "seed"]
        assert SynthConfig() == SynthConfig(classes=10, per_class=20, rows=64, cols=64, seed=0)

    @pytest.mark.parametrize("field", ["classes", "per_class", "rows", "cols", "seed"])
    @pytest.mark.parametrize("value, match", [
        (True, "must be an integer, got True"),
        (2.5, "must be an integer, got 2.5"),
        ("3", "must be an integer, got '3'"),
        (float("inf"), "must be finite, got infinity"),
    ])
    def test_bad_values_name_the_field(self, field, value, match):
        with pytest.raises(DataError, match=re.escape(f"{field} {match}")):
            SynthConfig(**{field: value})

    @pytest.mark.parametrize("field", ["classes", "per_class", "rows", "cols", "seed"])
    def test_integer_beyond_float_range_stays_an_integer(self, field):
        # every field is an integer, and typed converts no integer to float
        assert getattr(SynthConfig(**{field: 10**400}), field) == 10**400

    def test_numbers_normalised(self):
        cfg = SynthConfig(classes=np.int64(3))
        assert type(cfg.classes) is int and cfg.classes == 3

    @pytest.mark.parametrize("field, value, message", [
        ("classes", 0, "class count must be >= 1, got 0"),
        ("per_class", -1, "per-class count must be >= 1, got -1"),
        ("rows", 1, "dims must be at least 2x2, got (1, 64)"),
        ("cols", 0, "dims must be at least 2x2, got (64, 0)"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_out_of_range_values_rejected(self, field, value, message):
        with pytest.raises(DataError, match=re.escape(message)):
            SynthConfig(**{field: value})


def _read_model_file(path) -> tuple[dict, bytes]:
    """A model file's header document and the payload that follows its line."""
    header, payload = Path(path).read_bytes().split(b"\n", 1)
    return json.loads(header), payload


def _write_model_file(path, doc, payload: bytes) -> None:
    Path(path).write_bytes(json.dumps(doc).encode() + b"\n" + payload)


def _pin_dataset(tmp_path) -> Path:
    """The set the format-4 pin and the report pins are scored on: 2 x 4 at 8x8, one unpaired."""
    root = tmp_path / "data"
    generate_synthetic_dataset(SynthConfig(2, 4, rows=8, cols=8, seed=0), root)
    save_image(np.full((8, 8), 0.5), root / "class00" / "lonely_thermal.pgm")
    return root


# each array's place in a model's header document, in payload order
_ARRAYS = [("eigenspace", name) for name in ("mean", "eigenvalues", "basis")] + [
    ("mlp", name, i) for name in ("weights", "biases") for i in (0, 1)
]


def _pin_arrays() -> tuple[dict, dict]:
    """The pin's header document, and its arrays by their place, read with the layout
    written out here: each array's C-order float64 bytes in turn."""
    doc, payload = _read_model_file(MODEL_V4)
    arrays, at = {}, 0
    for place in _ARRAYS:
        shape = functools.reduce(lambda part, key: part[key], place, doc)
        count = math.prod(shape)
        arrays[place] = np.frombuffer(payload, "<f8", count, at).reshape(shape)
        at += 8 * count
    assert at == len(payload)
    return doc, arrays


def _first_component(doc, arrays) -> None:
    """Cut the pin's eigenspace to k = 1."""
    for name in ("eigenvalues", "basis"):
        arrays[("eigenspace", name)] = cut = arrays[("eigenspace", name)][:1]
        doc["eigenspace"][name] = list(cut.shape)


def _one_weight(doc, arrays) -> None:
    """Drop the pin's second weight matrix, its shape and its bytes both."""
    del doc["mlp"]["weights"][1], arrays[("mlp", "weights", 1)]


class TestPersistence:
    def test_model_roundtrip_exact(self, small_model, tmp_path, monkeypatch):
        model, data = small_model
        path = tmp_path / "m.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.class_labels == model.class_labels
        assert loaded.trained == model.trained
        np.testing.assert_array_equal(loaded.eigenspace.mean, model.eigenspace.mean)
        np.testing.assert_array_equal(loaded.eigenspace.basis, model.eigenspace.basis)
        for a, b in zip(loaded.mlp.weights, model.mlp.weights):
            np.testing.assert_array_equal(a, b)
        r1 = evaluate(model, data)
        r2 = evaluate(loaded, data)
        np.testing.assert_array_equal(r1.confusion, r2.confusion)

        cfg = model.config

        def fused(s):
            return fuse_images(load_image(s.thermal), load_image(s.visual),
                               cfg.wavelet, cfg.levels, cfg.policy)

        # the trained model and its loaded copy project every image to the same bits
        for rec in data.classes:
            for s in rec.samples:
                image = fused(s)
                assert (project(model.eigenspace, image).tobytes()
                        == project(loaded.eigenspace, image).tobytes()), s.name
        # and training fitted the MLP on exactly the loaded model's projections
        fitted = []

        def recording_train(config, samples):
            fitted.extend(x for x, _ in samples)
            return train(config, samples)

        monkeypatch.setattr(pipeline, "train", recording_train)
        retrained = train_pipeline(data, cfg)
        np.testing.assert_array_equal(retrained.eigenspace.basis, model.eigenspace.basis)
        pairs, _ = data.split(cfg)
        assert len(fitted) == len(pairs)
        for x, (_, s) in zip(fitted, pairs):
            assert x.tobytes() == project(loaded.eigenspace, fused(s)).tobytes(), s.name

    def test_model_file_has_version_and_config_echo(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.bin"
        save_model(model, path)
        doc, _ = _read_model_file(path)
        assert doc["format_version"] == 4
        assert doc["config"]["wavelet"] == "db2"
        assert doc["config"]["split_fraction"] == 0.5
        assert doc["mlp"]["config"] == {"layer_sizes": [model.eigenspace.k, 20, 4],
                                        "learning_rate": 0.1, "momentum": 0.9, "epochs": 200,
                                        "seed": 0, "target_error": 0.001}
        assert doc["trained"] == model.trained

    def test_model_file_keys_are_the_model_fields(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.bin"
        save_model(model, path)
        doc, _ = _read_model_file(path)
        assert list(doc) == ["format_version"] + [f.name for f in fields(PipelineModel)]
        assert list(doc["mlp"]) == [f.name for f in fields(MlpModel)]
        assert list(doc["mlp"]["config"]) == [f.name for f in fields(MlpConfig)]

    def test_wrong_version_rejected(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.bin"
        save_model(model, path)
        doc, payload = _read_model_file(path)
        doc["format_version"] = 99
        _write_model_file(path, doc, payload)
        with pytest.raises(DataError, match=re.escape(
                f"model file {path}: unsupported model format version 99, expected 4")) as info:
            load_model(path)
        assert "retrain" not in str(info.value)

    def test_report_json_and_table(self, small_model, tmp_path):
        model, data = small_model
        report = evaluate(model, data)
        path = tmp_path / "r.json"
        save_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["overall"]["tested"] == report.overall.tested
        assert doc["modality"] == "fused"
        assert len(doc["per_class"]) == 4
        assert doc["confusion"] == report.confusion
        table = format_report(report)
        assert "overall" in table
        assert "class00" in table

    def test_report_document_round_trips_through_json(self, small_model):
        model, data = small_model
        doc = store._json_fields(evaluate(model, data))
        assert doc == json.loads(json.dumps(doc))

    def test_report_keys_are_the_report_fields(self, small_model, tmp_path):
        model, data = small_model
        path = tmp_path / "r.json"
        save_report(evaluate(model, data), path)
        assert list(json.loads(path.read_text())) == [f.name for f in fields(EvaluationReport)]

    @pytest.mark.parametrize("modality", ["fused", "thermal", "visual"])
    def test_report_bytes_are_pinned(self, tmp_path, modality):
        # pinned from report_dict, the hand-written encoder before _json_fields
        pin = DATA / f"report_{modality}"
        report = evaluate(load_model(MODEL_V4), ingest_dataset(_pin_dataset(tmp_path)),
                          modality=modality)
        path = tmp_path / "r.json"
        save_report(report, path)
        assert path.read_bytes() == pin.with_suffix(".json").read_bytes()
        assert format_report(report) + "\n" == pin.with_suffix(".txt").read_text()

    def test_pin_records_the_split_its_config_draws(self, tmp_path):
        model = load_model(MODEL_V4)
        data = ingest_dataset(_pin_dataset(tmp_path))
        assert model.trained == [s.name for _, s in data.split(model.config)[0]]

    def test_trained_model_save_load_save_is_byte_identical(self, small_model, tmp_path):
        # A trained basis and a loaded one are both C-ordered; the
        # model_v4.bin pin below covers only a loaded model.
        model, _ = small_model
        assert model.eigenspace.basis.flags.c_contiguous
        first, second = tmp_path / "first.bin", tmp_path / "second.bin"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_v4_model_file_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(load_model(MODEL_V4), path)
        assert path.read_bytes() == MODEL_V4.read_bytes()

    @pytest.mark.parametrize("labels, repeated", [
        (["class00", "class00"], "class00"),
        # the only repeat is the last of 100,001: a quadratic check would take minutes
        ([f"class{i:06d}" for i in range(100_000)] + ["class000007"], "class000007"),
    ], ids=["two", "100k"])
    def test_repeated_class_label_rejected(self, labels, repeated, tmp_path):
        doc, payload = _read_model_file(MODEL_V4)
        doc["class_labels"] = labels
        path = tmp_path / "m.bin"
        _write_model_file(path, doc, payload)
        with pytest.raises(DataError, match=re.escape(
                f"model file {path}: class label '{repeated}' appears more than once")):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc, arrays: doc["class_labels"].append("class02"),
         "MLP output size 2 does not match 3 classes"),
        (_first_component, "MLP input size 2 does not match eigenspace size 1"),
    ], ids=["classes", "eigenspace"])
    def test_layer_size_that_differs_from_the_model_rejected(self, edit, message, tmp_path):
        doc, arrays = _pin_arrays()
        edit(doc, arrays)
        path = tmp_path / "m.bin"
        _write_model_file(path, doc, b"".join(a.tobytes() for a in arrays.values()))
        with pytest.raises(DataError, match=re.escape(f"model file {path}: {message}")):
            load_model(path)

    def test_mlp_config_that_differs_from_the_config_rejected(self, tmp_path):
        doc, payload = _read_model_file(MODEL_V4)
        doc["mlp"]["config"]["learning_rate"] = 0.2
        path = tmp_path / "m.bin"
        _write_model_file(path, doc, payload)
        with pytest.raises(DataError, match=re.escape(
                f"model file {path}: mlp.config MlpConfig(layer_sizes=(2, 3, 2), "
                "learning_rate=0.2,")) as info:
            load_model(path)
        assert "does not match config's MlpConfig(layer_sizes=(2, 3, 2), learning_rate=0.1," \
            in str(info.value)

    def test_config_keys_are_the_config_fields(self, small_model, tmp_path):
        model, data = small_model
        path = tmp_path / "m.bin"
        save_model(model, path)
        doc, _ = _read_model_file(path)
        assert list(doc["config"]) == [f.name for f in fields(PipelineConfig)]
        assert list(doc["eigenspace"]) == ["input_dims", "mean", "eigenvalues", "basis"]
        assert list(store._json_fields(evaluate(model, data))["per_class"][0]) == [
            "label", "tested", "correct", "rate"
        ]

    @pytest.mark.parametrize("section, key, value, match", [
        ("mlp", "config", "x", "field mlp.config must be a JSON object with keys layer_sizes"),
        ("mlp", "epochs_run", 2.5, "epochs_run"),
        ("config", "extra", 1, "field config must be a JSON object with keys"),
        ("eigenspace", "basis", [-2, 64], "shape must be a list of non-negative integers"),
        ("eigenspace", "mean", [64.0], "shape must be a list of non-negative integers"),
        ("eigenspace", "mean", "x", "shape must be a list of non-negative integers, got 'x'"),
        ("mlp.config", "layer_sizes", [float("inf"), 3, 2], "infinity"),
        ("mlp.config", "layer_sizes", [2.7, 3.9, 2.2], "layer_sizes[0] must be an integer"),
        ("config", "levels", 0, "levels must be >= 1"),
        ("config", "split_fraction", 1.5, "split_fraction must lie in (0, 1)"),
        ("config", "learning_rate", -1.0, "learning rate must be positive"),
        ("config", "momentum", 1.0, "momentum must lie in [0, 1)"),
        ("config", "seed", -1, "seed must be >= 0"),
        ("class_labels", 0, 5, "class_labels[0] must be a string, got 5"),
        ("trained", 1, ["class00/02"], "trained[1] must be a string"),
    ])
    def test_malformed_section_names_file_and_field(self, tmp_path, section, key, value, match):
        doc, payload = _read_model_file(MODEL_V4)
        _edit(doc, (*section.split("."), key), value)
        path = tmp_path / "bad.bin"
        _write_model_file(path, doc, payload)
        with pytest.raises(DataError, match=f"model file {path}: field {section}") as info:
            load_model(path)
        assert match in str(info.value)

    @pytest.mark.parametrize("edit, field, match", [
        (lambda doc, arrays: arrays.update({("eigenspace", "basis"): np.full((2, 64), np.nan)}),
         "eigenspace", "non-finite"),
        (_one_weight, "mlp", "need 2 weight"),
    ], ids=["nan", "one-weight"])
    def test_malformed_array_names_file_and_field(self, tmp_path, edit, field, match):
        doc, arrays = _pin_arrays()
        edit(doc, arrays)
        path = tmp_path / "bad.bin"
        _write_model_file(path, doc, b"".join(a.tobytes() for a in arrays.values()))
        with pytest.raises(DataError, match=f"model file {path}: field {field}") as info:
            load_model(path)
        assert match in str(info.value)


def _haar_64_model(rng) -> PipelineModel:
    """A model of protocol-haar's sizes (64x64, k 95, 100 hidden, 10 classes, 200 trained)."""
    cfg = PipelineConfig(wavelet="haar", pca_k=95)
    sizes = (95, 100, 10)
    eigenspace = EigenspaceModel((64, 64), rng.random(4096), rng.random(95),
                                 rng.standard_normal((95, 4096)))
    net = MlpModel(cfg.mlp_config(sizes),
                   [rng.standard_normal((n_out, n_in)) for n_in, n_out in zip(sizes, sizes[1:])],
                   [rng.standard_normal(n_out) for n_out in sizes[1:]], 300, 0.01)
    labels = [f"class{i:02d}" for i in range(10)]
    return PipelineModel(cfg, labels, eigenspace, net,
                         [f"{label}/{i:02d}" for label in labels for i in range(20)])


def _rejected(path, message: str, capsys) -> None:
    """``load_model(path)`` and ``wavefuse evaluate`` both reject ``path`` with ``message``,
    which follows the file's name; evaluate exits 2."""
    with pytest.raises(DataError) as info:
        load_model(path)
    assert str(info.value) == f"model file {path}: {message}"
    capsys.readouterr()
    assert main(["evaluate", "--data", str(path.parent), "--model", str(path),
                 "--report", str(path.parent / "r.json")]) == 2
    assert capsys.readouterr().err == f"error: model file {path}: {message}\n"


class TestModelPayload:
    """A model file is one JSON header line, then each array's C-order float64 bytes."""

    def test_payload_is_each_arrays_c_order_bytes_in_field_order(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.bin"
        save_model(model, path)
        doc, payload = _read_model_file(path)
        arrays = [model.eigenspace.mean, model.eigenspace.eigenvalues, model.eigenspace.basis,
                  *model.mlp.weights, *model.mlp.biases]
        assert payload == b"".join(a.astype("<f8").tobytes(order="C") for a in arrays)
        assert doc["eigenspace"]["basis"] == list(model.eigenspace.basis.shape)
        assert doc["mlp"]["weights"] == [list(w.shape) for w in model.mlp.weights]

    def test_fortran_ordered_weights_are_stored_in_c_order(self, tmp_path):
        model = _haar_64_model(np.random.default_rng(1))
        c_path, f_path = tmp_path / "c.bin", tmp_path / "f.bin"
        save_model(model, c_path)
        model.mlp.weights = [np.asfortranarray(w) for w in model.mlp.weights]
        save_model(model, f_path)
        assert c_path.read_bytes() == f_path.read_bytes()

    def test_loaded_arrays_are_writeable_float64_views(self, tmp_path):
        loaded = load_model(MODEL_V4)
        arrays = [loaded.eigenspace.mean, loaded.eigenspace.basis, *loaded.mlp.weights]
        for a in arrays:
            assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
            assert not a.flags.owndata  # a view of the buffer the payload was read into

    def test_labels_and_names_that_look_like_the_layout_stay_text(self, small_model, tmp_path):
        model, _ = small_model
        labels = ["", "\n", '"]}\n', "{}"]
        trained = ["\n/\n", '{"format_version": 4}']
        path = tmp_path / "m.bin"
        save_model(PipelineModel(model.config, labels, model.eigenspace, model.mlp, trained),
                   path)
        loaded = load_model(path)
        assert (loaded.class_labels, loaded.trained) == (labels, trained)

    def test_header_line_shows_the_config(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.bin"
        save_model(model, path)
        with path.open("rb") as f:
            first = json.loads(f.readline())
        assert first["config"] == store._json_fields(model.config)

    @pytest.mark.parametrize("change, message", [
        (lambda payload: payload[:-1], "the header's arrays take 1688 bytes, "
         "but 1687 follow the header line"),
        (lambda payload: payload + b"\0", "the header's arrays take 1688 bytes, "
         "but 1689 follow the header line"),
    ], ids=["one-byte-short", "one-byte-long"])
    def test_payload_of_the_wrong_length(self, tmp_path, capsys, change, message):
        doc, payload = _read_model_file(MODEL_V4)
        path = tmp_path / "m.bin"
        _write_model_file(path, doc, change(payload))
        _rejected(path, message, capsys)

    def test_header_line_over_the_bound(self, tmp_path, capsys):
        path = tmp_path / "m.bin"
        # a JSON string of the bound's length: no newline within the bound
        path.write_bytes(b'"' + b"x" * store._HEADER_LIMIT + b'"\n')
        _rejected(path, f"header line is over {store._HEADER_LIMIT} bytes (a model file of "
                  "format 3 or older is one such line: retrain to upgrade)", capsys)

    def test_header_line_at_the_bound_is_read(self, tmp_path):
        doc, payload = _read_model_file(MODEL_V4)
        header = json.dumps(doc).encode()
        pad = store._HEADER_LIMIT - len(header) - 1
        path = tmp_path / "m.bin"
        path.write_bytes(header[:-1] + b" " * pad + b"}\n" + payload)
        assert load_model(path).trained == doc["trained"]
        path.write_bytes(header[:-1] + b" " * (pad + 1) + b"}\n" + payload)
        with pytest.raises(DataError, match="header line is over"):
            load_model(path)

    @pytest.mark.parametrize("content", [b"", b'{"format_version": 4}'])
    def test_header_line_without_a_newline(self, tmp_path, capsys, content):
        path = tmp_path / "m.bin"
        path.write_bytes(content)
        _rejected(path, "has no header line: the file ends before a newline", capsys)

    @pytest.mark.parametrize("content, message", [
        (b"{not json\n", "header line is not valid JSON: Expecting property name enclosed in "
         "double quotes: line 1 column 2 (char 1)"),
        (b"\xff\xfe{\n", "header line is not valid JSON: 'utf-8' codec can't decode byte 0xff "
         "in position 0: invalid start byte"),
        (b"[1, 2]\n", "header line must hold a JSON object, got list"),
        (b'"x"\n' + bytes(16), "header line must hold a JSON object, got str"),
    ], ids=["syntax", "bytes", "list", "string"])
    def test_header_that_is_not_a_json_object(self, tmp_path, capsys, content, message):
        path = tmp_path / "m.bin"
        path.write_bytes(content)
        _rejected(path, message, capsys)

    def test_deeply_nested_header_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        with pytest.raises(DataError, match=f"model file {path}: header line is not valid JSON"):
            load_model(path)

    def test_huge_shape_is_rejected_without_allocating(self, tmp_path, capsys, traced_peak):
        doc, payload = _read_model_file(MODEL_V4)
        doc["eigenspace"]["mean"] = [2**40]
        path = tmp_path / "m.bin"
        _write_model_file(path, doc, payload)
        message = "the header's arrays take 8796093023384 bytes, but 1688 follow the header line"

        def load():
            with pytest.raises(DataError, match=re.escape(message)):
                load_model(path)

        assert traced_peak(load) < 100_000
        _rejected(path, message, capsys)

    @pytest.mark.parametrize("shape, got", [
        ([-2, 64], "[-2, 64]"), ([2, 64.0], "[2, 64.0]"), ([2, True], "[2, True]"), (128, "128"),
    ], ids=["negative", "float", "bool", "not-a-list"])
    def test_shape_that_is_no_list_of_sizes(self, tmp_path, capsys, shape, got):
        doc, payload = _read_model_file(MODEL_V4)
        doc["eigenspace"]["basis"] = shape
        path = tmp_path / "m.bin"
        _write_model_file(path, doc, payload)
        _rejected(path, "field eigenspace.basis: shape must be a list of non-negative "
                  f"integers, got {got}", capsys)

    def test_shape_numpy_cannot_make_names_the_field(self, tmp_path):
        doc, payload = _read_model_file(MODEL_V4)
        doc["eigenspace"]["mean"] = [0, 2**70]
        doc["eigenspace"]["eigenvalues"] = [66]  # the bytes the mean gave up
        path = tmp_path / "m.bin"
        _write_model_file(path, doc, payload)
        with pytest.raises(DataError, match=re.escape(
                f"model file {path}: field eigenspace.mean: ")):
            load_model(path)

    def test_format_3_file_asks_for_a_retrain(self, tmp_path, capsys):
        path = tmp_path / "model_v3.json"
        path.write_bytes(MODEL_V3.read_bytes())
        _rejected(path, "unsupported model format version 3, expected 4; retrain to upgrade",
                  capsys)

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_formats_ask_for_a_retrain(self, tmp_path, version):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format_version": version}) + "\n")
        with pytest.raises(DataError, match=re.escape(
                f"version {version}, expected 4; retrain to upgrade")):
            load_model(path)

    def test_header_over_the_bound_is_not_written(self, small_model, tmp_path):
        model, _ = small_model
        names = [f"class00/{i:07d}" + "x" * 100 for i in range(150_000)]
        path = tmp_path / "m.bin"
        with pytest.raises(DataError, match="over the 16777216 a model file may hold"):
            save_model(PipelineModel(model.config, model.class_labels, model.eigenspace,
                                     model.mlp, names), path)
        assert not path.exists()

    def test_save_model_allocates_under_1_mb_above_the_model(self, tmp_path, traced_peak):
        # 12 MB while the document held each array's base64 as one string
        model = _haar_64_model(np.random.default_rng(5))
        assert traced_peak(save_model, model, tmp_path / "m.bin") < 1_000_000

    def test_load_model_peaks_near_the_file_size(self, tmp_path, traced_peak):
        # the payload buffer, then the eigenspace's finiteness check, whose bool
        # temporary of the basis is 1/8 of its bytes; a base64 file parsed by
        # json.loads took 2x
        path = tmp_path / "m.bin"
        save_model(_haar_64_model(np.random.default_rng(5)), path)
        assert traced_peak(load_model, path) <= 1.15 * path.stat().st_size


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_DROP = object()
_SHAPES = _JSON | st.lists(st.integers(-2, 2**70), max_size=3)
_V4_DOC = _read_model_file(MODEL_V4)[0]
_FIELDS = [(key,) for key in _V4_DOC] + [("extra",)] + [
    (key, name) for key, section in _V4_DOC.items() if isinstance(section, dict)
    for name in section
] + [("mlp", "config", name) for name in _V4_DOC["mlp"]["config"]]


def _edit(doc, path, value):
    """Set (or with _DROP delete) the entry of ``doc`` at the key path ``path``."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is _DROP:
        doc.pop(last, None)
    else:
        doc[last] = value


def _loads_or_is_data_error(path, doc, payload):
    _write_model_file(path, doc, payload)
    try:
        load_model(path)
    except DataError as exc:
        assert str(exc).startswith(f"model file {path}")


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoadModelFuzz:
    """Every mutated model file loads or raises DataError; nothing else escapes."""

    @_FUZZ
    @given(edits=st.lists(st.tuples(st.sampled_from(_ARRAYS), _SHAPES), min_size=1, max_size=3),
           cut=st.integers(-16, 16))
    def test_mutated_shapes_and_payload(self, tmp_path, edits, cut):
        doc, payload = _read_model_file(MODEL_V4)
        for place, shape in edits:
            _edit(doc, place, shape)
        payload = payload[:cut] if cut < 0 else payload + bytes(cut)
        _loads_or_is_data_error(tmp_path / "m.bin", doc, payload)

    @_FUZZ
    @given(path=st.sampled_from(_FIELDS), value=_JSON | st.just(_DROP))
    def test_mutated_field(self, tmp_path, path, value):
        doc, payload = _read_model_file(MODEL_V4)
        _edit(doc, path, value)
        _loads_or_is_data_error(tmp_path / "m.bin", doc, payload)


class TestConfig:
    def test_policy_is_built_from_the_rule_fields(self):
        cfg = PipelineConfig(approx_rule="average", detail_rule=FusionRule.MAX_ABS)
        assert cfg.policy == FusionPolicy(FusionRule.AVERAGE, FusionRule.MAX_ABS)
        assert PipelineConfig().policy == FusionPolicy()

    def test_mlp_config_shares_the_training_fields(self):
        cfg = PipelineConfig(learning_rate=0.3, momentum=0.5, epochs=7, seed=4, target_error=0.2)
        assert cfg.mlp_config([5, 4, 3]) == MlpConfig((5, 4, 3), 0.3, 0.5, 7, 4, 0.2)
        assert PipelineConfig().mlp_config((5, 4, 3)) == MlpConfig((5, 4, 3))

    @pytest.mark.parametrize("value", [2.5, "x", True, "3", None])
    def test_int_field_rejects_non_integers(self, value):
        with pytest.raises(DataError, match="levels must be an integer"):
            PipelineConfig(levels=value)

    @pytest.mark.parametrize("value", ["x", False, [0.1]])
    def test_float_field_rejects_non_numbers(self, value):
        with pytest.raises(DataError, match="learning_rate must be a number"):
            PipelineConfig(learning_rate=value)

    def test_numbers_normalised(self):
        cfg = PipelineConfig(levels=np.int64(3), learning_rate=1, pca_k="AUTO")
        assert type(cfg.levels) is int and cfg.levels == 3
        assert type(cfg.learning_rate) is float and cfg.learning_rate == 1.0
        assert cfg.pca_k == "auto"

    @pytest.mark.parametrize("field, value", [
        ("wavelet", "db3"), ("approx_rule", "max"), ("detail_rule", 1),
        ("pca_k", "all"), ("pca_k", 2.5), ("pca_k", 0),
    ])
    def test_bad_values_name_the_field(self, field, value):
        with pytest.raises(DataError, match=field):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("field, value, match", [
        ("levels", 0, "levels must be >= 1"),
        ("split_fraction", 0.0, "split_fraction must lie in"),
        ("split_fraction", 1.0, "split_fraction must lie in"),
        ("learning_rate", -1.0, "learning rate must be positive"),
        ("learning_rate", float("nan"), "learning_rate must be finite, got nan"),
        ("target_error", float("inf"), "target_error must be finite, got infinity"),
        ("momentum", 1.0, "momentum must lie in"),
        ("epochs", 0, "epochs must be >= 1"),
        ("seed", -1, "seed must be >= 0"),
        ("hidden", 0, "hidden size must be >= 1, got 0"),
    ])
    def test_out_of_range_values_rejected(self, field, value, match):
        with pytest.raises(DataError, match=re.escape(match)):
            PipelineConfig(**{field: value})

    def test_pca_k_message_names_auto(self):
        with pytest.raises(DataError, match="pca_k must be an integer or 'auto', got 'all'"):
            PipelineConfig(pca_k="all")

    def test_hints_are_evaluated_once_per_class(self, monkeypatch):
        configs = [lambda: FusionPolicy("average"), PipelineConfig, SynthConfig,
                   lambda: MlpConfig((2, 1))]
        for make in configs:
            make()

        def evaluate_hints(*args, **kwargs):
            raise AssertionError("type hints evaluated again")

        monkeypatch.setattr(typing, "get_type_hints", evaluate_hints)
        for make in configs:
            make()
        assert field_types(SynthConfig) == {name: int for name in (
            "classes", "per_class", "rows", "cols", "seed")}

    def test_integer_beyond_float_range(self):
        with pytest.raises(DataError, match="learning_rate must be finite"):
            PipelineConfig(learning_rate=10**400)
        assert PipelineConfig(seed=10**400).seed == 10**400

    def test_model_file_integer_beyond_float_range_names_the_field(self, tmp_path):
        doc, payload = _read_model_file(MODEL_V4)
        doc["config"]["learning_rate"] = 10**400
        path = tmp_path / "bad.bin"
        _write_model_file(path, doc, payload)
        with pytest.raises(DataError, match=re.escape(
                f"model file {path}: field config.learning_rate must be finite")):
            load_model(path)
