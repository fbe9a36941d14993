"""Dataset ingestion, training, evaluation, generation, and persistence."""

import base64
import io
import json
import re
import typing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavefuse import pipeline
from wavefuse.eigen import EigenspaceModel, fit_eigenspace, project
from wavefuse.errors import DataError
from wavefuse.fusion import FusionPolicy, FusionRule, fuse_images
from wavefuse.mlp import MlpConfig, MlpModel, field_types, parameter_count, predict, train
from wavefuse.imgio import load_image, save_image
from wavefuse.wavelet import WaveletKind
from wavefuse.pipeline import (
    ClassRecord,
    Dataset,
    EvaluationReport,
    PipelineConfig,
    PipelineModel,
    Sample,
    SynthConfig,
    evaluate,
    format_report,
    generate_synthetic_dataset,
    ingest_dataset,
    load_model,
    save_model,
    save_report,
    train_pipeline,
)

SMALL_CFG = PipelineConfig(levels=3, epochs=200, hidden=20, seed=0)
# A small format-3 model file (2 classes x 4 samples at 8x8, db2 at 2 levels,
# k 2, hidden 3, 20 epochs); loading it and saving it must give its bytes.
MODEL_V3 = Path(__file__).parent / "data" / "model_v3.json"
_V3_DOC = json.loads(MODEL_V3.read_text())


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

    def test_empty_test_split_rejected(self, small_model, tmp_path):
        # 1-sample classes at fraction 0.5 train on every sample (0.5 + 0.5 = 1)
        model, _ = small_model
        generate_synthetic_dataset(SynthConfig(4, 1, rows=16, cols=16, seed=5), tmp_path)
        data = ingest_dataset(tmp_path)
        assert data.split(model.config)[1] == []
        with pytest.raises(DataError, match="empty"):
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
    ])
    def test_out_of_range_values_rejected(self, field, value, message):
        with pytest.raises(DataError, match=re.escape(message)):
            SynthConfig(**{field: value})


class TestPersistence:
    def test_model_roundtrip_exact(self, small_model, tmp_path):
        model, data = small_model
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.class_labels == model.class_labels
        np.testing.assert_array_equal(loaded.eigenspace.mean, model.eigenspace.mean)
        np.testing.assert_array_equal(loaded.eigenspace.basis, model.eigenspace.basis)
        for a, b in zip(loaded.mlp.weights, model.mlp.weights):
            np.testing.assert_array_equal(a, b)
        r1 = evaluate(model, data)
        r2 = evaluate(loaded, data)
        np.testing.assert_array_equal(r1.confusion, r2.confusion)

    def test_model_file_has_version_and_config_echo(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 3
        assert doc["config"]["wavelet"] == "db2"
        assert doc["config"]["split_fraction"] == 0.5
        assert doc["mlp"]["config"] == {"layer_sizes": [model.eigenspace.k, 20, 4],
                                        "learning_rate": 0.1, "momentum": 0.9, "epochs": 200,
                                        "seed": 0, "target_error": 0.001}

    def test_model_file_keys_are_the_model_fields(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert list(doc) == ["format_version"] + [f.name for f in fields(PipelineModel)]
        assert list(doc["mlp"]) == [f.name for f in fields(MlpModel)]
        assert list(doc["mlp"]["config"]) == [f.name for f in fields(MlpConfig)]

    def test_wrong_version_rejected(self, small_model, tmp_path):
        model, _ = small_model
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_model(path)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b"\xff\xfe{")
        with pytest.raises(DataError, match=f"model file {path} is not valid JSON"):
            load_model(path)

    def test_deeply_nested_json_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(path)

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
        doc = pipeline._json_fields(evaluate(model, data))
        assert doc == json.loads(json.dumps(doc))

    def test_report_keys_are_the_report_fields(self, small_model, tmp_path):
        model, data = small_model
        path = tmp_path / "r.json"
        save_report(evaluate(model, data), path)
        assert list(json.loads(path.read_text())) == [f.name for f in fields(EvaluationReport)]

    @pytest.mark.parametrize("modality", ["fused", "thermal", "visual"])
    def test_report_bytes_are_pinned(self, tmp_path, modality):
        # pinned from report_dict, the hand-written encoder before _json_fields
        pin = MODEL_V3.parent / f"report_{modality}"
        root = tmp_path / "data"
        generate_synthetic_dataset(SynthConfig(2, 4, rows=8, cols=8, seed=0), root)
        save_image(np.full((8, 8), 0.5), root / "class00" / "lonely_thermal.pgm")
        report = evaluate(load_model(MODEL_V3), ingest_dataset(root), modality=modality)
        path = tmp_path / "r.json"
        save_report(report, path)
        assert path.read_bytes() == pin.with_suffix(".json").read_bytes()
        assert format_report(report) + "\n" == pin.with_suffix(".txt").read_text()

    def test_trained_model_save_load_save_is_byte_identical(self, small_model, tmp_path):
        # A trained basis is Fortran-ordered and a loaded one C-ordered; the
        # model_v3.json pin below covers only the loaded layout.
        model, _ = small_model
        assert not model.eigenspace.basis.flags.c_contiguous
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_v3_model_file_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "m.json"
        save_model(load_model(MODEL_V3), path)
        assert path.read_bytes() == MODEL_V3.read_bytes()

    def test_repeated_class_label_rejected(self, tmp_path):
        doc = json.loads(MODEL_V3.read_text())
        doc["class_labels"] = ["class00", "class00"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(
                f"model file {path}: class label 'class00' appears more than once")):
            load_model(path)

    def test_mlp_config_that_differs_from_the_config_rejected(self, tmp_path):
        doc = json.loads(MODEL_V3.read_text())
        doc["mlp"]["config"]["learning_rate"] = 0.2
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(
                f"model file {path}: mlp.config MlpConfig(layer_sizes=(2, 3, 2), "
                "learning_rate=0.2,")) as info:
            load_model(path)
        assert "does not match config's MlpConfig(layer_sizes=(2, 3, 2), learning_rate=0.1," \
            in str(info.value)

    def test_huge_shape_is_rejected_without_allocating(self, tmp_path, traced_peak):
        doc = json.loads(MODEL_V3.read_text())
        doc["eigenspace"]["mean"] = {"shape": [2**40], "f64le": "AAAAAAAAAAA="}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))

        def load():
            with pytest.raises(DataError, match=re.escape(
                    "field eigenspace.mean: 8 bytes do not hold float64 shape [1099511627776]")):
                load_model(path)

        assert traced_peak(load) < 1_000_000

    def test_config_keys_are_the_config_fields(self, small_model, tmp_path):
        model, data = small_model
        path = tmp_path / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        assert list(doc["config"]) == [f.name for f in fields(PipelineConfig)]
        assert list(doc["eigenspace"]) == ["input_dims", "mean", "eigenvalues", "basis"]
        assert list(pipeline._json_fields(evaluate(model, data))["per_class"][0]) == [
            "label", "tested", "correct", "rate"
        ]

    @pytest.mark.parametrize("section, key, value, match", [
        ("mlp", "config", "x", "field mlp.config must be a JSON object with keys layer_sizes"),
        ("mlp", "weights", [_V3_DOC["mlp"]["weights"][0]], "need 2 weight"),
        ("mlp", "epochs_run", 2.5, "epochs_run"),
        ("eigenspace", "basis",
         {"shape": [2, 64], "f64le": base64.b64encode(np.full(128, np.nan).tobytes()).decode()},
         "non-finite"),
        ("config", "extra", 1, "field config must be a JSON object with keys"),
        # 64 zeros, which a decoder that skips non-alphabet characters would accept
        ("eigenspace", "mean", {"shape": [64], "f64le": "*" + "A" * 683 + "="}, "not valid base64"),
        ("eigenspace", "mean", {"shape": [64], "f64le": "AAAAAAAAAAA="}, "8 bytes do not hold"),
        ("eigenspace", "basis", {"shape": [-2, 64], "f64le": ""}, "non-negative integers"),
        ("eigenspace", "mean", {"shape": [64], "f64le": "", "dtype": "<f8"}, "keys shape, f64le"),
        ("mlp.config", "layer_sizes", [float("inf"), 3, 2], "infinity"),
        ("mlp.config", "layer_sizes", [2.7, 3.9, 2.2], "layer_sizes[0] must be an integer"),
        ("config", "levels", 0, "levels must be >= 1"),
        ("config", "split_fraction", 1.5, "split_fraction must lie in (0, 1)"),
        ("config", "learning_rate", -1.0, "learning rate must be positive"),
        ("config", "momentum", 1.0, "momentum must lie in [0, 1)"),
        ("config", "seed", -1, "seed must be >= 0"),
    ])
    def test_malformed_section_names_file_and_field(self, tmp_path, section, key, value, match):
        doc = json.loads(MODEL_V3.read_text())
        _edit(doc, (*section.split("."), key), value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"model file {path}: field {section}") as info:
            load_model(path)
        assert match in str(info.value)


# float64 values in one piece of a model file's base64, and the characters of one piece
_PIECE_VALUES = pipeline._PIECE // 8
_PIECE_CHARS = pipeline._PIECE // 3 * 4


def _haar_64_model(rng) -> PipelineModel:
    """A model of protocol-haar's sizes (64x64, k 95, 100 hidden, 10 classes).

    The basis is Fortran-ordered, as a trained one is.
    """
    cfg = PipelineConfig(wavelet="haar", pca_k=95)
    sizes = (95, 100, 10)
    eigenspace = EigenspaceModel((64, 64), rng.random(4096), rng.random(95),
                                 np.asfortranarray(rng.standard_normal((95, 4096))))
    net = MlpModel(cfg.mlp_config(sizes),
                   [rng.standard_normal((n_out, n_in)) for n_in, n_out in zip(sizes, sizes[1:])],
                   [rng.standard_normal(n_out) for n_out in sizes[1:]], 300, 0.01)
    return PipelineModel(cfg, [f"class{i:02d}" for i in range(10)], eigenspace, net)


class TestStreamedArrays:
    """Arrays are written to and read from a model file's base64 in pieces."""

    @pytest.mark.parametrize("shape", [
        (_PIECE_VALUES - 1,), (_PIECE_VALUES,), (_PIECE_VALUES + 1,), (2 * _PIECE_VALUES + 1,),
        (1,), (1, 1), (0,), (3, 0), (5, 7), (4, _PIECE_VALUES + 1),
    ])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_payload_is_one_b64encode_and_decodes_back(self, shape, order):
        values = np.asarray(np.random.default_rng(3).standard_normal(shape), order=order)
        text = base64.b64encode(values.tobytes(order="C"))
        written = io.BytesIO()
        pipeline._write_base64(written, values)
        assert written.getvalue() == text
        loaded = pipeline._array("x", {"shape": list(shape), "f64le": text.decode()})
        assert loaded.shape == shape and loaded.flags.writeable
        assert loaded.tobytes() == values.tobytes(order="C")

    def test_trained_basis_payload_is_its_c_order_bytes(self, small_model, tmp_path):
        model, _ = small_model
        basis = model.eigenspace.basis
        assert basis.flags.f_contiguous and not basis.flags.c_contiguous
        path = tmp_path / "m.json"
        save_model(model, path)
        stored = json.loads(path.read_text())["eigenspace"]["basis"]
        assert stored == {"shape": list(basis.shape),
                          "f64le": base64.b64encode(basis.tobytes(order="C")).decode()}

    def test_labels_that_look_like_payloads_stay_labels(self, small_model, tmp_path):
        model, _ = small_model
        labels = ["", '""', "f64le", "="]
        path = tmp_path / "m.json"
        save_model(PipelineModel(model.config, labels, model.eigenspace, model.mlp), path)
        assert json.loads(path.read_text())["class_labels"] == labels
        assert load_model(path).class_labels == labels

    @pytest.mark.parametrize("at, char", [
        (_PIECE_CHARS - 1, "="),  # the first piece alone is valid base64 with padding
        (2 * _PIECE_CHARS - 10, "*"),
    ])
    def test_bad_character_in_a_piece_is_invalid_base64(self, at, char):
        count = 2 * _PIECE_VALUES
        text = base64.b64encode(np.ones(count).tobytes()).decode()
        text = text[:at] + char + text[at + 1:]
        with pytest.raises(DataError, match="^x: f64le is not valid base64"):
            pipeline._array("x", {"shape": [count], "f64le": text})

    def test_save_model_allocates_under_1_mb_above_the_model(self, tmp_path, traced_peak):
        # 12 MB while the document held each array's base64 as one string
        model = _haar_64_model(np.random.default_rng(5))
        assert traced_peak(save_model, model, tmp_path / "m.json") < 1_000_000

    def test_load_model_peaks_at_most_2_25_times_the_file(self, tmp_path, traced_peak):
        # json.loads holds the file's text and the parsed document, 2x; the
        # whole-string decode and its float64 copy came to 2.7x
        path = tmp_path / "m.json"
        save_model(_haar_64_model(np.random.default_rng(5)), path)
        assert traced_peak(load_model, path) <= 2.25 * path.stat().st_size


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_DROP = object()
_ARRAYS = [("eigenspace", name) for name in ("mean", "eigenvalues", "basis")] + [
    ("mlp", name, i) for name in ("weights", "biases") for i in (0, 1)
]
_ARRAY_EDITS = st.one_of(
    st.tuples(st.sampled_from(["shape", "f64le", "dtype"]), _JSON | st.just(_DROP)),
    st.tuples(st.just("shape"), st.lists(st.integers(-2, 2**70), max_size=3)),
    st.tuples(st.just("f64le"), st.binary(max_size=40).map(lambda b: base64.b64encode(b).decode())),
)
_FIELDS = [(key,) for key in _V3_DOC] + [("extra",)] + [
    (key, name) for key, section in _V3_DOC.items() if isinstance(section, dict)
    for name in section
] + [("mlp", "config", name) for name in _V3_DOC["mlp"]["config"]]


def _edit(doc, path, value):
    """Set (or with _DROP delete) the entry of ``doc`` at the key path ``path``."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    if value is _DROP:
        doc.pop(last, None)
    else:
        doc[last] = value


def _loads_or_is_data_error(doc, path):
    path.write_text(json.dumps(doc))
    try:
        load_model(path)
    except DataError as exc:
        assert str(exc).startswith(f"model file {path}")


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestLoadModelFuzz:
    """Every mutated model file loads or raises DataError; nothing else escapes."""

    @_FUZZ
    @given(array=st.sampled_from(_ARRAYS), edits=st.lists(_ARRAY_EDITS, min_size=1, max_size=3))
    def test_mutated_array_object(self, tmp_path, array, edits):
        doc = json.loads(MODEL_V3.read_text())
        for key, value in edits:
            _edit(doc, (*array, key), value)
        _loads_or_is_data_error(doc, tmp_path / "m.json")

    @_FUZZ
    @given(path=st.sampled_from(_FIELDS), value=_JSON | st.just(_DROP))
    def test_mutated_field(self, tmp_path, path, value):
        doc = json.loads(MODEL_V3.read_text())
        _edit(doc, path, value)
        _loads_or_is_data_error(doc, tmp_path / "m.json")


class TestConfig:
    def test_policy_is_built_from_the_rule_fields(self):
        cfg = PipelineConfig(approx_rule="average", detail_rule=FusionRule.MAX_ABS)
        assert cfg.policy == FusionPolicy(FusionRule.AVERAGE, FusionRule.MAX_ABS)
        assert PipelineConfig().policy == FusionPolicy()

    def test_mlp_config_shares_the_training_fields(self):
        cfg = PipelineConfig(learning_rate=0.3, momentum=0.5, epochs=7, seed=4, target_error=0.2)
        assert cfg.mlp_config([5, 4, 3]) == MlpConfig((5, 4, 3), 0.3, 0.5, 7, 4, 0.2)

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
        doc = json.loads(MODEL_V3.read_text())
        doc["config"]["learning_rate"] = 10**400
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=re.escape(
                f"model file {path}: field config.learning_rate must be finite")):
            load_model(path)
