"""The synthetic data set's samples on two threads: bytes, failures and memory."""

import hashlib
import json
import os
import threading
from pathlib import Path

import pytest

from wavefuse import synth
from wavefuse.cli import main
from wavefuse.synth import SynthConfig, generate_synthetic_dataset

DATA = Path(__file__).parent / "data"
IMAGE = 509 * 509 * 8  # bytes in one 509x509 float64 image


def _digests(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _fuse_still_splits(splits, tmp_path) -> None:
    """A 509x509 fuse after a synth on two threads splits and keeps its pinned bytes."""
    data = generate_synthetic_dataset(
        SynthConfig(1, 1, rows=509, cols=509, seed=0), tmp_path / "pair") / "class00"
    before, out = splits.count, tmp_path / "fused.pgm"
    assert main(["fuse", "--thermal", str(data / "00_thermal.pgm"),
                 "--visual", str(data / "00_visual.pgm"), "--out", str(out)]) == 0
    digest = json.loads((DATA / "fuse_digests.json").read_text())["db2-509x509-default"]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    # the first level of each decomposition, the selection and the first synthesis level
    assert splits.count == before + 4


class TestSynthBytes:
    """Every file's bytes are the same whichever thread writes it."""

    @pytest.mark.parametrize("split", [True, False], ids=["split", "one-thread"])
    def test_pinned_digests_hold(self, splits, tmp_path, capsys, split):
        splits.synth(split)
        out = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--per-class", "2", "--rows", "19",
                     "--cols", "23", "--seed", "4", "--out", str(out)]) == 0
        assert _digests(out) == json.loads((DATA / "synth_digests.json").read_text())
        assert splits.count == (3 if split else 0)  # one split per class

    @pytest.mark.parametrize("cfg, count", [
        # parts of 2 and 1 samples
        (SynthConfig(2, 3, rows=509, cols=509, seed=1), 2),
        # the paper's frame size
        (SynthConfig(3, 4, rows=240, cols=320, seed=2), 3),
        # one sample per class: no split runs
        (SynthConfig(3, 1, rows=509, cols=509, seed=3), 0),
    ], ids=["509x509-3-per-class", "240x320", "1-per-class"])
    def test_split_writes_the_one_thread_bytes(self, splits, tmp_path, cfg, count):
        splits.synth(False)
        one = _digests(generate_synthetic_dataset(cfg, tmp_path / "one"))
        assert splits.count == 0
        splits.synth(True)
        two = _digests(generate_synthetic_dataset(cfg, tmp_path / "two"))
        assert splits.count == count
        assert len(one) == 2 * cfg.classes * cfg.per_class
        assert two == one

    @pytest.mark.parametrize("cpus, count", [({0}, 0), ({0, 1}, 2)])
    def test_affinity_decides(self, splits, monkeypatch, tmp_path, cpus, count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        generate_synthetic_dataset(SynthConfig(2, 2, rows=8, cols=8, seed=0), tmp_path)
        assert splits.count == count


class TestTwoThreadSynth:
    """A failure in either part of a class is raised once both parts stop."""

    @pytest.mark.parametrize("error", [ArithmeticError, KeyboardInterrupt])
    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_failing_part_raises_its_error(self, splits, monkeypatch, tmp_path, error,
                                             failing):
        write, written = synth._write_pgm, []

        def failing_write(img, path, out=None):
            if (threading.current_thread().name == "wavefuse-split") == (failing == "worker"):
                raise error(f"{failing} part")
            write(img, path, out)
            written.append(path.name)

        monkeypatch.setattr(synth, "_write_pgm", failing_write)
        splits.synth(True)
        raised = []

        def generate():
            try:
                generate_synthetic_dataset(SynthConfig(2, 5, rows=16, cols=16), tmp_path / "d")
            except BaseException as exc:
                raised.append(exc)

        # the caller's part runs on a thread of the test's, so a hang fails the
        # test, and a daemon one, so it does not hold the test process open
        caller = threading.Thread(target=generate, daemon=True)
        caller.start()
        caller.join(timeout=30)
        assert not caller.is_alive(), "the split hung"
        assert [type(exc) for exc in raised] == [error]
        assert str(raised[0]) == f"{failing} part"
        # the first class's other part ran to its end; no later class started
        other = [1, 3] if failing == "caller" else [0, 2, 4]
        assert written == [f"{s:02d}_{m}.pgm" for s in other for m in ("thermal", "visual")]
        assert splits.count == 1
        monkeypatch.setattr(synth, "_write_pgm", write)
        _fuse_still_splits(splits, tmp_path)

    @pytest.mark.parametrize("sample", ["00", "01"], ids=["caller", "worker"])
    def test_cli_names_the_path_it_cannot_write(self, splits, tmp_path, capsys, sample):
        splits.synth(True)
        out = tmp_path / "data"
        blocked = out / "class00" / f"{sample}_visual.pgm"
        blocked.mkdir(parents=True)  # a directory where a sample's file goes
        assert main(["synth", "--classes", "2", "--per-class", "3", "--rows", "16",
                     "--cols", "16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocked) in err
        assert "BrokenBarrierError" not in err
        assert splits.count == 1
        _fuse_still_splits(splits, tmp_path)


class TestSynthMemory:
    """Peaks of a 2 x 4 synth at 509x509, in images of 509 x 509 float64s.

    The peak is the third class signature: two made, and the third's noise,
    its smoothed copy, their scaled product and the signature itself. The
    samples need less: three signatures, one buffer per part and, per file,
    an ``isfinite`` mask and a uint8 raster of an eighth of an image each.
    Before the split the one-thread path peaked at 10.1 images, with two
    0/1 masks and the class bases; a split whose parts made their own
    temporaries read 11.3.
    """

    @pytest.mark.parametrize("split", [True, False], ids=["split", "one-thread"])
    def test_peak(self, splits, traced_peak, tmp_path, split):
        splits.synth(split)
        cfg = SynthConfig(2, 4, rows=509, cols=509, seed=1)
        assert traced_peak(generate_synthetic_dataset, cfg, tmp_path) <= 6.1 * IMAGE
        assert splits.count == (2 if split else 0)
