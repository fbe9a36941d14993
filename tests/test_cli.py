"""Command-line interface: flags, outputs, and exit codes."""

import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from wavefuse import cli, pipeline, wavelet
from wavefuse.cli import main
from wavefuse.errors import NumericError
from wavefuse.fusion import FusionPolicy, FusionRule, fuse_images
from wavefuse.imgio import load_image, save_image
from wavefuse.mlp import parameter_count
from wavefuse.pipeline import PipelineConfig, ingest_dataset
from wavefuse.synth import SynthConfig, generate_synthetic_dataset
from wavefuse.wavelet import WaveletKind


@pytest.fixture()
def pair(tmp_path):
    rng = np.random.default_rng(7)
    t_path = tmp_path / "t.pgm"
    v_path = tmp_path / "v.pgm"
    save_image(rng.random((32, 32)), t_path)
    save_image(rng.random((32, 32)), v_path)
    return t_path, v_path


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["decompose", "--out", "x"]) == 1
        assert "--input" in capsys.readouterr().err

    def test_bad_choice_value(self, capsys):
        assert main(["fuse", "--thermal", "a", "--visual", "b", "--out", "c",
                     "--wavelet", "sym4"]) == 1

    def test_non_integer_levels(self, capsys):
        assert main(["decompose", "--input", "a", "--out", "b",
                     "--levels", "two"]) == 1


class TestDecompose:
    def test_exports_tree(self, pair, tmp_path, capsys):
        t_path, _ = pair
        out = tmp_path / "tree"
        assert main(["decompose", "--input", str(t_path), "--wavelet", "haar",
                     "--levels", "3", "--out", str(out)]) == 0
        meta = json.loads((out / "tree.json").read_text())
        assert meta["wavelet"] == "haar"
        assert meta["levels"] == 3
        assert (out / "L3_cA.f64").exists()
        assert (out / "L1_cH.f64").exists()
        assert "3 levels" in capsys.readouterr().out

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        assert main(["decompose", "--input", str(tmp_path / "nope.pgm"),
                     "--out", str(tmp_path / "tree")]) == 2

    def test_bad_levels_value_is_data_error(self, pair, tmp_path, capsys):
        t_path, _ = pair
        assert main(["decompose", "--input", str(t_path), "--levels", "0",
                     "--out", str(tmp_path / "tree")]) == 2


class TestFuse:
    def test_writes_fused_image(self, pair, tmp_path, capsys):
        t_path, v_path = pair
        out = tmp_path / "fused.pgm"
        assert main(["fuse", "--thermal", str(t_path), "--visual", str(v_path),
                     "--out", str(out)]) == 0
        assert load_image(out).shape == (32, 32)

    def test_self_fusion_preserves_image(self, pair, tmp_path):
        t_path, _ = pair
        out = tmp_path / "fused.pgm"
        assert main(["fuse", "--thermal", str(t_path), "--visual", str(t_path),
                     "--wavelet", "haar", "--levels", "2", "--out", str(out)]) == 0
        # quantization to 8 bits is the only loss in the round trip
        np.testing.assert_allclose(load_image(out), load_image(t_path), atol=1 / 255)

    def test_rule_flags_accepted(self, pair, tmp_path):
        t_path, v_path = pair
        out = tmp_path / "fused.pgm"
        assert main(["fuse", "--thermal", str(t_path), "--visual", str(v_path),
                     "--approx-rule", "average", "--detail-rule", "maxabs",
                     "--out", str(out)]) == 0

    def test_malformed_file_is_named(self, pair, tmp_path, capsys):
        t_path, _ = pair
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 x\n255\n\x01\x02")
        assert main(["fuse", "--thermal", str(t_path), "--visual", str(bad),
                     "--out", str(tmp_path / "f.pgm")]) == 2
        assert capsys.readouterr().err == (
            f"error: {bad}: malformed header: expected height, got b'x' (byte offset 5)\n")

    def test_mismatched_dims_is_data_error(self, pair, tmp_path, capsys):
        t_path, _ = pair
        small = tmp_path / "small.pgm"
        save_image(np.zeros((16, 16)), small)
        assert main(["fuse", "--thermal", str(t_path), "--visual", str(small),
                     "--out", str(tmp_path / "f.pgm")]) == 2
        assert "error" in capsys.readouterr().err

    def test_cached_parser_carries_nothing_between_calls(self, pair, tmp_path, capsys):
        t_path, v_path = pair
        assert main(["fuse", "--thermal", str(t_path), "--levels", "two"]) == 1
        assert main(_fuse_argv(t_path, v_path, tmp_path / "haar.pgm")
                    + ["--wavelet", "haar", "--levels", "3", "--approx-rule", "average"]) == 0
        assert main(_fuse_argv(t_path, v_path, tmp_path / "bare.pgm")) == 0
        save_image(fuse_images(load_image(t_path), load_image(v_path)), tmp_path / "lib.pgm")
        assert (tmp_path / "bare.pgm").read_bytes() == (tmp_path / "lib.pgm").read_bytes()

    def test_mismatched_dims_names_both_files(self, pair, tmp_path, capsys):
        t_path, _ = pair
        small = tmp_path / "small.pgm"
        save_image(np.zeros((16, 16)), small)
        assert main(["fuse", "--thermal", str(t_path), "--visual", str(small),
                     "--out", str(tmp_path / "f.pgm")]) == 2
        assert capsys.readouterr().err == (
            f"error: thermal {t_path} dims (32, 32) differ from visual {small} dims (16, 16)\n")


def _fuse_argv(thermal, visual, out):
    return ["fuse", "--thermal", str(thermal), "--visual", str(visual), "--out", str(out)]


FUSE_DIGESTS = Path(__file__).parent / "data" / "fuse_digests.json"
SYNTH_DIGESTS = Path(__file__).parent / "data" / "synth_digests.json"
# case name -> (rows, cols, extra fuse flags); 509 and 240 need padding to 2^5
FUSE_CASES = {
    "db2-509x509-default": (509, 509, []),
    "haar-240x320-maxabs": (240, 320, ["--wavelet", "haar", "--approx-rule", "maxabs",
                                       "--detail-rule", "maxabs"]),
    "db2-509x509-average": (509, 509, ["--approx-rule", "average", "--detail-rule", "average"]),
    "db2-509x509-swapped": (509, 509, ["--approx-rule", "minabs", "--detail-rule", "maxabs"]),
    # no power-of-two length at any level: blocks 600/300/150 x 392/196/98
    "db2-600x392-levels3": (600, 392, ["--levels", "3"]),
}


class TestFuseBytes:
    """The fused PGM's bytes are pinned, so a kernel change that moves one pixel fails."""

    @pytest.mark.parametrize("case", sorted(FUSE_CASES))
    def test_fused_pgm_matches_pinned_digest(self, case, tmp_path, capsys):
        rows, cols, flags = FUSE_CASES[case]
        data = generate_synthetic_dataset(
            SynthConfig(1, 1, rows=rows, cols=cols, seed=0), tmp_path / "data")
        out = tmp_path / "fused.pgm"
        argv = _fuse_argv(data / "class00" / "00_thermal.pgm",
                          data / "class00" / "00_visual.pgm", out) + flags
        assert main(argv) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == json.loads(FUSE_DIGESTS.read_text())[case]


class TestTwoThreadFuse:
    """The pinned 509x509 fuse with its large levels and selection on two threads."""

    @pytest.fixture()
    def pinned(self, splits, tmp_path, capsys):
        """A call that fuses the pinned db2-509x509-default pair by the CLI and
        says whether the bytes match; its two images are ``pinned.images``."""
        data = generate_synthetic_dataset(
            SynthConfig(1, 1, rows=509, cols=509, seed=0), tmp_path / "data") / "class00"
        thermal, visual = data / "00_thermal.pgm", data / "00_visual.pgm"
        digest = json.loads(FUSE_DIGESTS.read_text())["db2-509x509-default"]
        splits.at(1 << 16)

        def fuse_pinned() -> bool:
            out = tmp_path / "fused.pgm"
            assert main(_fuse_argv(thermal, visual, out)) == 0
            return hashlib.sha256(out.read_bytes()).hexdigest() == digest

        fuse_pinned.images = load_image(thermal), load_image(visual)
        return fuse_pinned

    @pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_part_raises_its_error(self, pinned, splits, monkeypatch, error, failing):
        product = wavelet._product

        def failing_product(*args):
            if (threading.current_thread().name == "wavefuse-split") == (failing == "worker"):
                raise error(f"{failing} part")
            return product(*args)

        monkeypatch.setattr(wavelet, "_product", failing_product)
        raised = []

        def fuse():
            try:
                fuse_images(*pinned.images)
            except BaseException as exc:
                raised.append(exc)

        # the caller's part runs on a thread of the test's, so a hang fails the
        # test, and a daemon one, so it does not hold the test process open
        caller = threading.Thread(target=fuse, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "the split hung"
        assert [type(exc) for exc in raised] == [error]
        assert str(raised[0]) == f"{failing} part"
        monkeypatch.setattr(wavelet, "_product", product)
        assert pinned()
        assert splits.count == 1 + 7

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_fuses_on_a_worker_of_its_own(self, pinned, splits):
        assert pinned()  # starts this process's worker
        assert splits.count == 7
        pid = os.fork()
        if pid == 0:  # the child: fuse once more, split, and report by exit code
            code = 2
            try:
                code = 0 if pinned() and splits.count == 14 else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if ended[0] == 0:  # leave no process running
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert ended[0] == pid, "the forked child's fuse hung"
        assert os.waitstatus_to_exitcode(ended[1]) == 0


def _no_libc(name):
    raise OSError("libc not found")


def _libc_without_mallopt(name):
    return object()


class TestFreedMemory:
    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc" or not hasattr(ctypes.CDLL(None), "mallopt"),
        reason="needs glibc's mallopt",
    )
    def test_repeated_large_fuse_reuses_freed_memory(self, tmp_path, capsys):
        # with glibc's defaults each 2 MB temporary of a 509x509 fuse maps fresh
        # pages: 7,950-9,400 minor faults per call
        rng = np.random.default_rng(3)
        save_image(rng.random((509, 509)), tmp_path / "t.pgm")
        save_image(rng.random((509, 509)), tmp_path / "v.pgm")
        argv = _fuse_argv(tmp_path / "t.pgm", tmp_path / "v.pgm", tmp_path / "f.pgm")
        assert main(argv) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 512  # the page count of one 512x512 float64 array

    @pytest.mark.parametrize("cdll", [_no_libc, _libc_without_mallopt])
    def test_fuse_runs_without_mallopt(self, cdll, pair, tmp_path, monkeypatch):
        t_path, v_path = pair
        assert main(_fuse_argv(t_path, v_path, tmp_path / "plain.pgm")) == 0
        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert main(_fuse_argv(t_path, v_path, tmp_path / "patched.pgm")) == 0
        assert (tmp_path / "patched.pgm").read_bytes() == (tmp_path / "plain.pgm").read_bytes()


class TestSynth:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--per-class", "2",
                     "--rows", "16", "--cols", "16", "--out", str(out)]) == 0
        assert len(list(out.glob("*/*.pgm"))) == 12
        assert "12 images" in capsys.readouterr().out

    def test_bad_count_is_data_error(self, tmp_path, capsys):
        assert main(["synth", "--classes", "0", "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize("flags, err", [
        (["--classes", "0"], "class count must be >= 1, got 0"),
        (["--per-class", "0"], "per-class count must be >= 1, got 0"),
        (["--rows", "1"], "dims must be at least 2x2, got (1, 64)"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        # ids as wide as the count: a name past 255 bytes fails before any directory exists
        (["--per-class", "1" + "0" * 400], "per-class count too large: file names would pass 255 bytes"),
        (["--per-class", "1" + "0" * 242 + "1"],
         "per-class count too large: file names would pass 255 bytes"),
        (["--classes", "1" + "0" * 400], "class count too large: file names would pass 255 bytes"),
    ])
    def test_bad_setting_message_and_no_directory(self, tmp_path, capsys, flags, err):
        out = tmp_path / "d"
        assert main(["synth", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"
        assert not out.exists()

    def test_files_match_pinned_digests(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--per-class", "2", "--rows", "19",
                     "--cols", "23", "--seed", "4", "--out", str(out)]) == 0
        got = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.rglob("*")) if p.is_file()}
        assert got == json.loads(SYNTH_DIGESTS.read_text())


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert main(["synth", "--classes", "3", "--per-class", "4",
                 "--rows", "16", "--cols", "16", "--seed", "2",
                 "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def model_path(dataset):
    path = dataset.parent / "model.json"
    code = main(["train", "--data", str(dataset), "--levels", "3",
                 "--hidden", "16", "--epochs", "300", "--model", str(path)])
    assert code == 0
    return path


def mixed_dims_dataset(tmp_path):
    """A 2-class set whose class00 images are 16x16 and class01 images 20x16.

    The all-16x16 set it starts from stays under ``tmp_path / "square"``.
    """
    square, tall, mixed = tmp_path / "square", tmp_path / "tall", tmp_path / "mixed"
    for out, rows in ((square, "16"), (tall, "20")):
        assert main(["synth", "--classes", "2", "--per-class", "2",
                     "--rows", rows, "--cols", "16", "--out", str(out)]) == 0
    shutil.copytree(square / "class00", mixed / "class00")
    shutil.copytree(tall / "class01", mixed / "class01")
    return mixed


class TestTrainEvaluate:
    def test_train_writes_model_and_summary(self, model_path, capsys):
        doc = json.loads(model_path.read_text())
        assert doc["format_version"] == 3
        assert len(doc["class_labels"]) == 3

    def test_format_2_model_file_is_rejected(self, dataset, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        # format 2's mlp section: layer_sizes and activation in place of config
        mlp = doc["mlp"]
        doc["format_version"] = 2
        doc["mlp"] = {"layer_sizes": mlp.pop("config")["layer_sizes"], "activation": "sigmoid",
                      **mlp}
        model = tmp_path / "v2.json"
        model.write_text(json.dumps(doc))
        assert main(["evaluate", "--data", str(dataset), "--model", str(model),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: model file {model}: unsupported model format version 2, expected 3\n")

    def test_evaluate_writes_report(self, dataset, model_path, capsys):
        report = dataset.parent / "report.json"
        assert main(["evaluate", "--data", str(dataset), "--model", str(model_path),
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["modality"] == "fused"
        assert doc["overall"]["tested"] == 6
        out = capsys.readouterr().out
        assert "overall" in out

    def test_evaluate_alternate_modality(self, dataset, model_path, tmp_path):
        report = tmp_path / "r.json"
        assert main(["evaluate", "--data", str(dataset), "--model", str(model_path),
                     "--report", str(report), "--modality", "thermal"]) == 0
        assert json.loads(report.read_text())["modality"] == "thermal"

    def test_train_summary_counts_the_config_split(self, dataset, tmp_path, capsys):
        capsys.readouterr()
        assert main(["train", "--data", str(dataset), "--levels", "2", "--hidden", "4",
                     "--epochs", "5", "--split", "0.25", "--model", str(tmp_path / "m.json")]) == 0
        # 3 classes x 4 samples; int(0.25 * 4 + 0.5) = 1 of each class trains
        assert "trained on 3 samples, 3 classes, 2 components (9 test samples held out)\n" in \
            capsys.readouterr().out

    def test_split_that_holds_out_nothing_is_rejected_before_any_read(self, tmp_path,
                                                                       monkeypatch, capsys):
        out, model = tmp_path / "data", tmp_path / "m.json"
        assert main(["synth", "--classes", "5", "--per-class", "3",
                     "--rows", "16", "--cols", "16", "--out", str(out)]) == 0
        reads = []
        monkeypatch.setattr(pipeline, "load_image", reads.append)
        capsys.readouterr()
        # int(0.9 * 3 + 0.5) = 3: every sample of every class would train
        assert main(["train", "--data", str(out), "--split", "0.9", "--model", str(model)]) == 2
        assert capsys.readouterr().err == "error: class class00 has no test samples at --split 0.9\n"
        assert not model.exists()
        assert reads == []

    def test_repeated_class_label_is_data_error(self, dataset, model_path, tmp_path, capsys):
        doc = json.loads(model_path.read_text())
        doc["class_labels"] = ["class00", "class00", "class02"]
        model = tmp_path / "repeated.json"
        model.write_text(json.dumps(doc))
        assert main(["evaluate", "--data", str(dataset), "--model", str(model),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: model file {model}: class label 'class00' appears more than once\n")

    def test_missing_model_file_is_data_error(self, dataset, tmp_path, capsys):
        assert main(["evaluate", "--data", str(dataset),
                     "--model", str(tmp_path / "missing.json"),
                     "--report", str(tmp_path / "r.json")]) == 2

    def test_integer_past_the_digit_limit_names_the_file(self, dataset, model_path, tmp_path,
                                                         capsys):
        # int() refuses strings of more than 4,300 digits, so json.loads raises
        # a ValueError that is not a JSONDecodeError
        text = model_path.read_text()
        assert '"seed": 0' in text
        model = tmp_path / "long-seed.json"
        model.write_text(text.replace('"seed": 0', '"seed": ' + "1" * 5001, 1))
        capsys.readouterr()
        assert main(["evaluate", "--data", str(dataset), "--model", str(model),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: model file {model} is not valid JSON: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_non_object_model_file_is_data_error(self, dataset, tmp_path, capsys):
        model = tmp_path / "list.json"
        model.write_text("[1, 2]")
        assert main(["evaluate", "--data", str(dataset), "--model", str(model),
                     "--report", str(tmp_path / "r.json")]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("config", [1]), ("config", "x"), ("levels", "x"), ("levels", 2.5), ("levels", True),
        ("levels", 0), ("split_fraction", 0.0),
    ])
    def test_malformed_model_file_names_file_and_field(self, dataset, model_path, tmp_path,
                                                       capsys, field, value):
        doc = json.loads(model_path.read_text())
        if field == "config":
            doc["config"] = value
        else:
            doc["config"][field] = value
        model = tmp_path / "bad.json"
        model.write_text(json.dumps(doc))
        assert main(["evaluate", "--data", str(dataset), "--model", str(model),
                     "--report", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: model file {model}: field config")
        assert field in err.split(":", 2)[2]

    def test_train_flags_fill_config_fields_by_name(self, dataset, monkeypatch, tmp_path):
        import wavefuse.cli as cli

        seen = []

        def capture(data, cfg):
            seen.append(cfg)
            raise NumericError("stop")

        monkeypatch.setattr(cli, "train_pipeline", capture)
        argv = ["train", "--data", str(dataset), "--model", str(tmp_path / "m.json")]
        assert main(argv) == 3
        assert main(argv + ["--wavelet", "haar", "--levels", "2", "--approx-rule", "average",
                            "--detail-rule", "maxabs", "--pca-k", "4", "--hidden", "7",
                            "--lr", "0.02", "--momentum", "0.5", "--epochs", "9",
                            "--seed", "3", "--split", "0.25"]) == 3
        assert seen == [
            PipelineConfig(),
            PipelineConfig("haar", 2, "average", "maxabs", 4, 7, 0.02, 0.5, 9, 1e-3, 3, 0.25),
        ]

    def test_bad_setting_fails_before_the_dataset_is_read(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "missing"), "--lr", "-1",
                     "--model", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == "error: learning rate must be positive, got -1.0\n"

    def test_bad_split_fraction_is_data_error(self, dataset, tmp_path, capsys):
        assert main(["train", "--data", str(dataset), "--split", "1.0",
                     "--model", str(tmp_path / "m.json")]) == 2

    def test_malformed_training_file_is_named(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "2",
                     "--rows", "16", "--cols", "16", "--out", str(out)]) == 0
        # one sample per class is trained on; break the first one's thermal file
        trained = ingest_dataset(out).split(PipelineConfig())[0][0][1]
        trained.thermal.write_bytes(b"P5\n2 x\n255\n\x01\x02")
        assert main(["train", "--data", str(out), "--model", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: {trained.thermal}: malformed header: expected height, got b'x' "
            "(byte offset 5)\n")

    def test_training_pair_dims_mismatch_names_the_pair(self, tmp_path, capsys):
        data = mixed_dims_dataset(tmp_path)
        trained = [s for _, s in ingest_dataset(data).split(PipelineConfig())[0]]
        assert main(["train", "--data", str(data), "--levels", "2",
                     "--model", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == (
            f"error: pair {trained[1].name}: fused dims (20, 16) differ from "
            f"pair {trained[0].name}'s (16, 16)\n")

    def test_evaluate_dims_mismatch_names_the_pair(self, tmp_path, capsys):
        data = mixed_dims_dataset(tmp_path)
        model = tmp_path / "m.json"
        assert main(["train", "--data", str(tmp_path / "square"), "--levels", "2",
                     "--hidden", "4", "--epochs", "5", "--model", str(model)]) == 0
        tested = next(s for ci, s in ingest_dataset(data).split(PipelineConfig())[1] if ci == 1)
        capsys.readouterr()
        assert main(["evaluate", "--data", str(data), "--model", str(model),
                     "--report", str(tmp_path / "r.json"), "--modality", "visual"]) == 2
        assert capsys.readouterr().err == (
            f"error: pair {tested.name}: visual dims (20, 16) differ from model (16, 16)\n")

    def test_unpaired_file_warns_on_stderr(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "4",
                     "--rows", "16", "--cols", "16", "--out", str(out)]) == 0
        (out / "class00" / "99_thermal.pgm").write_bytes(
            (out / "class00" / "00_thermal.pgm").read_bytes()
        )
        capsys.readouterr()
        code = main(["train", "--data", str(out), "--levels", "3", "--hidden", "8",
                     "--epochs", "50", "--model", str(tmp_path / "m.json")])
        assert code == 0
        assert "99_thermal.pgm" in capsys.readouterr().err


class TestExitCodeMapping:
    @pytest.mark.parametrize("command", ["evaluate", "fuse"])
    def test_directory_as_input_file_is_data_error(self, command, dataset, pair, tmp_path,
                                                   capsys):
        _, v_path = pair
        argv = {
            "evaluate": ["evaluate", "--data", str(dataset), "--model", str(tmp_path),
                         "--report", str(tmp_path / "r.json")],
            "fuse": ["fuse", "--thermal", str(tmp_path), "--visual", str(v_path),
                     "--out", str(tmp_path / "f.pgm")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_numeric_error_maps_to_3(self, monkeypatch, tmp_path, capsys):
        import wavefuse.cli as cli

        def explode(*args, **kwargs):
            raise NumericError("training diverged: non-finite loss or parameters at epoch 1")

        monkeypatch.setattr(cli, "train_pipeline", explode)
        out = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "2",
                     "--rows", "16", "--cols", "16", "--out", str(out)]) == 0
        code = main(["train", "--data", str(out), "--model", str(tmp_path / "m.json")])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    # sizes beyond the address space, so the allocation fails before any memory is touched
    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_failed_allocation_is_data_error(self, command, dataset, tmp_path, capsys):
        argv = {
            "train": ["train", "--data", str(dataset), "--levels", "3",
                      "--hidden", "1000000000000000", "--model", str(tmp_path / "m.json")],
            "synth": ["synth", "--rows", "1000000000", "--cols", "1000000000",
                      "--out", str(tmp_path / "d")],
        }[command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert not (tmp_path / "d").exists()

    def test_network_numpy_cannot_size_is_data_error(self, dataset, tmp_path, capsys):
        # 9e18 float64 parameters: np.empty rejects the byte count itself with
        # a ValueError, before any memory is asked for
        argv = ["train", "--data", str(dataset), "--levels", "3",
                "--hidden", str(10**18), "--model", str(tmp_path / "m.json")]
        assert main(argv) == 2
        count = parameter_count((5, 10**18, 3))
        assert capsys.readouterr().err == (
            f"error: Unable to allocate a network of {count} float64 parameters\n")

    @pytest.mark.parametrize("flag", ["--levels", "--hidden", "--pca-k"])
    def test_integer_beyond_float_range_is_data_error(self, flag, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "4",
                     "--rows", "16", "--cols", "16", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--levels", "3", flag, "1" + "0" * 400,
                     "--model", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_class_count_beyond_float_range_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["synth", "--classes", "1" + "0" * 400, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


_TRAIN_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --data DATA
  --split SPLIT_FRACTION
                        train fraction per class
  --wavelet {haar,db2}
  --levels LEVELS
  --approx-rule {maxabs,minabs,average}
  --detail-rule {maxabs,minabs,average}
  --pca-k AUTO|int
  --hidden HIDDEN
  --lr LEARNING_RATE
  --momentum MOMENTUM
  --epochs EPOCHS
  --seed SEED
  --model MODEL         output model JSON path
"""

_FUSE_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --thermal THERMAL
  --visual VISUAL
  --wavelet {haar,db2}
  --levels LEVELS
  --approx-rule {maxabs,minabs,average}
  --detail-rule {maxabs,minabs,average}
  --out OUT             output PGM path
"""

_DECOMPOSE_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --input INPUT
  --wavelet {haar,db2}
  --levels LEVELS
  --out OUT             output directory
"""

_SYNTH_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --classes CLASSES
  --per-class PER_CLASS
  --rows ROWS
  --cols COLS
  --seed SEED
  --out OUT             output directory
"""

_EVALUATE_OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --data DATA
  --model MODEL
  --report REPORT       output report JSON path
  --modality {fused,thermal,visual}
"""


class TestConfigFlags:
    """The decompose, fuse and train flags are PipelineConfig fields."""

    @pytest.mark.parametrize("flags, kind, levels, policy", [
        ([], PipelineConfig().wavelet, PipelineConfig().levels, PipelineConfig().policy),
        (["--wavelet", "haar", "--levels", "2", "--approx-rule", "average",
          "--detail-rule", "maxabs"],
         WaveletKind.HAAR, 2, FusionPolicy(FusionRule.AVERAGE, FusionRule.MAX_ABS)),
    ], ids=["defaults", "set"])
    def test_fuse_flags_reach_fuse_images_as_members(self, pair, monkeypatch, tmp_path,
                                                      flags, kind, levels, policy):
        seen = []

        def capture(thermal, visual, *args):
            seen.append(args)
            raise NumericError("stop")

        monkeypatch.setattr(cli, "fuse_images", capture)
        t_path, v_path = pair
        assert main(["fuse", "--thermal", str(t_path), "--visual", str(v_path),
                     "--out", str(tmp_path / "f.pgm"), *flags]) == 3
        [(got_kind, got_levels, got_policy)] = seen
        assert (got_kind, got_levels, got_policy) == (kind, levels, policy)
        assert type(got_kind) is WaveletKind and type(got_levels) is int
        assert type(got_policy.approx_rule) is FusionRule
        assert type(got_policy.detail_rule) is FusionRule

    @pytest.mark.parametrize("flags, kind, levels", [
        ([], PipelineConfig().wavelet, PipelineConfig().levels),
        (["--wavelet", "haar", "--levels", "2"], WaveletKind.HAAR, 2),
    ], ids=["defaults", "set"])
    def test_decompose_flags_reach_decompose_as_members(self, pair, monkeypatch, tmp_path,
                                                         flags, kind, levels):
        seen = []

        def capture(image, *args):
            seen.append(args)
            raise NumericError("stop")

        monkeypatch.setattr(cli, "decompose", capture)
        t_path, _ = pair
        assert main(["decompose", "--input", str(t_path), "--out", str(tmp_path / "tree"),
                     *flags]) == 3
        assert seen == [(kind, levels)]
        assert type(seen[0][0]) is WaveletKind and type(seen[0][1]) is int

    @pytest.mark.parametrize("flag, value, code, err", [
        ("--wavelet", "sym4", 1, "invalid choice: 'sym4' (choose from 'haar', 'db2')"),
        ("--approx-rule", "max", 1,
         "invalid choice: 'max' (choose from 'maxabs', 'minabs', 'average')"),
        ("--levels", "two", 1, "invalid int value: 'two'"),
        ("--pca-k", "abc", 1, ""),
        ("--epochs", "abc", 1, "invalid int value: 'abc'"),
        ("--hidden", "1.5", 1, "invalid int value: '1.5'"),
        ("--levels", "0", 2, "error: levels must be >= 1, got 0"),
        ("--pca-k", "0", 2, "error: pca_k must be >= 1, got 0"),
        ("--epochs", "0", 2, "error: epochs must be >= 1, got 0"),
        ("--momentum", "1.0", 2, "error: momentum must lie in [0, 1), got 1.0"),
        ("--split", "1.0", 2, "error: split_fraction must lie in (0, 1), got 1.0"),
        ("--seed", "-1", 2, "error: seed must be >= 0, got -1"),
    ])
    def test_flag_value_exit_codes(self, dataset, tmp_path, capsys, flag, value, code, err):
        assert main(["train", "--data", str(dataset), "--model", str(tmp_path / "m.json"),
                     flag, value]) == code
        got = capsys.readouterr().err
        if code == 1:  # argparse's message, after the flag it names
            assert got.startswith(f"wavefuse train: error: argument {flag}: {err}")
        else:
            assert got == err + "\n"

    def test_pca_k_word_is_typed_by_the_config_rule(self, dataset, monkeypatch, tmp_path,
                                                    capsys):
        seen = []

        def capture(data, cfg):
            seen.append(cfg.pca_k)
            raise NumericError("stop")

        monkeypatch.setattr(cli, "train_pipeline", capture)
        argv = ["train", "--data", str(dataset), "--model", str(tmp_path / "m.json"), "--pca-k"]
        assert main(argv + ["AUTO"]) == 3
        assert main(argv + ["12"]) == 3
        assert seen == ["auto", 12]
        capsys.readouterr()
        assert main(argv + ["abc"]) == 1
        assert capsys.readouterr().err == (
            "wavefuse train: error: argument --pca-k: pca_k must be an integer or 'auto', "
            "got 'abc'\n")

    @pytest.mark.parametrize("command, options", [
        ("train", _TRAIN_OPTIONS), ("fuse", _FUSE_OPTIONS), ("decompose", _DECOMPOSE_OPTIONS),
        ("synth", _SYNTH_OPTIONS), ("evaluate", _EVALUATE_OPTIONS),
    ])
    def test_help_option_lines_are_pinned(self, monkeypatch, capsys, command, options):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert out[out.index("options:"):] == options


class TestEntryPoints:
    def test_module_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wavefuse", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        for name in ("decompose", "fuse", "synth", "train", "evaluate"):
            assert name in proc.stdout

    def test_console_script_installed(self):
        proc = subprocess.run(["wavefuse", "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "wavefuse" in proc.stdout
