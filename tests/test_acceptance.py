"""Acceptance gate: one test per shipping criterion.

Each test prints a single `[criterion N] PASS/FAIL` line on the live
console (bypassing capture) in addition to pytest's own verdict, so a
plain `pytest -v` run shows the per-criterion scoreboard. Every numeric
check here is self-contained: oracles are rebuilt locally rather than
imported from the unit-test modules.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.linalg import subspace_angles
from scipy.special import expit

from wavefuse.cli import main as cli_main
from wavefuse.eigen import fit_eigenspace, project, reconstruct_from_features
from wavefuse.fusion import FusionPolicy, FusionRule, fuse_images, fuse_trees
from wavefuse.mlp import MlpConfig, MlpModel, forward, loss_and_gradients, train
from wavefuse.wavelet import WaveletKind, decompose, filter_bank, reconstruct


@contextmanager
def criterion(capsys, number, description):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    with capsys.disabled():
        print(f"[criterion {number:2d}] PASS  {description}")


def tree_grids(tree):
    yield tree.deepest_approx
    for triple in tree.details:
        yield from triple


# Recognition runs are shared between the end-to-end criteria; memoized
# so the determinism check can reuse the first run's artifacts.
_RUNS = {}


def recognition_run(base, tag, classes=10, per_class=20, wavelet="db2"):
    if tag in _RUNS:
        return _RUNS[tag]
    root = base / tag
    data = root / "data"
    assert cli_main(["synth", "--classes", str(classes), "--per-class", str(per_class),
                     "--rows", "64", "--cols", "64", "--seed", "0",
                     "--out", str(data)]) == 0
    model = root / "model.json"
    assert cli_main(["train", "--data", str(data), "--wavelet", wavelet,
                     "--model", str(model)]) == 0
    reports, rates = {}, {}
    for modality in ("fused", "thermal", "visual"):
        path = root / f"report_{modality}.json"
        assert cli_main(["evaluate", "--data", str(data), "--model", str(model),
                         "--report", str(path), "--modality", modality]) == 0
        reports[modality] = path
        rates[modality] = json.loads(path.read_text())["overall"]["rate"]
    _RUNS[tag] = {"data": data, "model": model, "reports": reports, "rates": rates}
    return _RUNS[tag]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_criterion_01_perfect_reconstruction(capsys):
    with criterion(capsys, 1, "decompose/reconstruct round trip <= 1e-9, 100 images"):
        dims_pool = [(8, 8), (37, 41), (64, 64), (240, 320)]
        rng = np.random.default_rng(20260825)
        start = time.monotonic()
        worst = 0.0
        for _ in range(100):
            dims = dims_pool[rng.integers(len(dims_pool))]
            img = rng.random(dims)
            for kind in WaveletKind:
                for levels in range(1, 6):
                    out = reconstruct(decompose(img, kind, levels))
                    worst = max(worst, float(np.max(np.abs(out - img))))
        elapsed = time.monotonic() - start
        assert worst <= 1e-9, f"max round-trip error {worst:.3e}"
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_filter_identities(capsys):
    with criterion(capsys, 2, "filter-bank identities within 1e-12"):
        for kind in WaveletKind:
            bank = filter_bank(kind)
            lo, hi = bank.lo_d, bank.hi_d
            assert abs(lo.sum() - math.sqrt(2.0)) <= 1e-12
            assert abs((lo ** 2).sum() - 1.0) <= 1e-12
            n = len(lo)
            mirror = np.array([(-1.0) ** k * lo[n - 1 - k] for k in range(n)])
            assert np.max(np.abs(hi - mirror)) <= 1e-12
        db2_hi = filter_bank(WaveletKind.DB2).hi_d
        assert abs(db2_hi.sum()) <= 1e-12
        assert abs((np.arange(len(db2_hi)) * db2_hi).sum()) <= 1e-12


def test_criterion_03_energy_conservation(capsys):
    with criterion(capsys, 3, "coefficient energy == pixel energy within 1e-9 rel"):
        rng = np.random.default_rng(3)
        for dims in [(16, 16), (32, 48), (64, 64), (8, 40)]:
            img = rng.random(dims)
            pixel_energy = float((img ** 2).sum())
            for kind in WaveletKind:
                for levels in (1, 2, 3):
                    tree = decompose(img, kind, levels, pad=False)
                    mass = sum(float((g ** 2).sum()) for g in tree_grids(tree))
                    assert abs(mass - pixel_energy) <= 1e-9 * pixel_energy


def flat_fuse(a, b, rule):
    out = np.empty_like(a)
    for idx in np.ndindex(a.shape):
        x, y = a[idx], b[idx]
        if rule is FusionRule.MAX_ABS:
            out[idx] = x if abs(x) >= abs(y) else y
        elif rule is FusionRule.MIN_ABS:
            out[idx] = x if abs(x) <= abs(y) else y
        else:
            out[idx] = (x + y) / 2.0
    return out


def test_criterion_04_fusion_oracle(capsys):
    with criterion(capsys, 4, "fuse_trees bitwise-matches flat oracle; self-fusion <= 1e-9"):
        rules = list(FusionRule)
        rng = np.random.default_rng(4)
        for _ in range(50):
            rows = 2 * int(rng.integers(4, 17))
            cols = 2 * int(rng.integers(4, 17))
            kind = WaveletKind.HAAR if rng.integers(2) else WaveletKind.DB2
            levels = int(rng.integers(1, 3))
            policy = FusionPolicy(rules[rng.integers(3)], rules[rng.integers(3)])
            ta = decompose(rng.standard_normal((rows, cols)), kind, levels)
            tb = decompose(rng.standard_normal((rows, cols)), kind, levels)
            fused = fuse_trees(ta, tb, policy)
            assert fused.deepest_approx.tobytes() == flat_fuse(
                ta.deepest_approx, tb.deepest_approx, policy.approx_rule
            ).tobytes()
            for da, db, df in zip(ta.details, tb.details, fused.details):
                for ga, gb, gf in zip(da, db, df):
                    assert gf.tobytes() == flat_fuse(ga, gb, policy.detail_rule).tobytes()
        img = np.random.default_rng(44).random((37, 41))
        for approx in rules:
            for detail in rules:
                out = fuse_images(img, img, WaveletKind.DB2, 3,
                                  FusionPolicy(approx, detail))
                assert np.max(np.abs(out - img)) <= 1e-9


def test_criterion_05_pca_oracle(capsys):
    with criterion(capsys, 5, "snapshot PCA matches dense covariance oracle"):
        rng = np.random.default_rng(5)
        images = [rng.random((8, 8)) for _ in range(10)]
        model = fit_eigenspace(images, k=9)
        flat = np.stack([im.ravel() for im in images])
        centered = flat - flat.mean(axis=0)

        for img in images:
            back = reconstruct_from_features(model, project(model, img))
            assert np.max(np.abs(back - img)) <= 1e-8
        gram_identity = model.basis @ model.basis.T
        assert np.max(np.abs(gram_identity - np.eye(9))) <= 1e-8

        feats = np.stack([project(model, im) for im in images])
        variances = (feats ** 2).mean(axis=0)  # features are mean-free
        rel = np.abs(variances - model.eigenvalues) / model.eigenvalues
        assert rel.max() <= 1e-8

        dense_cov = centered.T @ centered / len(images)
        evals, evecs = np.linalg.eigh(dense_cov)
        dense_basis = evecs[:, np.argsort(evals)[::-1][:9]]
        angles = subspace_angles(model.basis.T, dense_basis)
        assert angles.max() <= 1e-6


def test_criterion_06_gradient_check(capsys):
    with criterion(capsys, 6, "analytic gradients match central differences <= 1e-5"):
        rng = np.random.default_rng(6)
        cfg = MlpConfig(layer_sizes=(3, 5, 2), epochs=1)
        weights = [rng.uniform(-0.5, 0.5, (5, 3)), rng.uniform(-0.5, 0.5, (2, 5))]
        biases = [rng.uniform(-0.5, 0.5, 5), rng.uniform(-0.5, 0.5, 2)]

        def loss_at(x, t):
            a = x
            for w, b in zip(weights, biases):
                a = expit(w @ a + b)
            return 0.5 * float(((a - t) ** 2).sum())

        h = 1e-5
        model = MlpModel(cfg, [w.copy() for w in weights], [b.copy() for b in biases])
        for _ in range(10):
            x = rng.standard_normal(3)
            t = rng.random(2)
            _, grads_w, grads_b = loss_and_gradients(model, x, t)
            for params, grads in ((weights, grads_w), (biases, grads_b)):
                for layer, grad in zip(params, grads):
                    for idx in np.ndindex(layer.shape):
                        keep = layer[idx]
                        layer[idx] = keep + h
                        up = loss_at(x, t)
                        layer[idx] = keep - h
                        down = loss_at(x, t)
                        layer[idx] = keep
                        numeric = (up - down) / (2 * h)
                        denom = max(abs(grad[idx]), abs(numeric), 1e-8)
                        assert abs(grad[idx] - numeric) / denom <= 1e-5


def test_criterion_07_xor_across_seeds(capsys):
    with criterion(capsys, 7, "XOR learned by >= 8 of seeds 0-9 within 5000 epochs"):
        xs = [np.array(v, dtype=float) for v in ((0, 0), (0, 1), (1, 0), (1, 1))]
        ts = [np.array([v], dtype=float) for v in (0, 1, 1, 0)]
        wins = 0
        for seed in range(10):
            cfg = MlpConfig(layer_sizes=(2, 4, 1), learning_rate=0.5, momentum=0.9,
                            epochs=5000, seed=seed, target_error=1e-3)
            model = train(cfg, list(zip(xs, ts)))
            correct = all(
                (forward(model, x)[-1][0] > 0.5) == bool(t[0])
                for x, t in zip(xs, ts)
            )
            wins += correct
        assert wins >= 8, f"only {wins}/10 seeds learned XOR"


def test_criterion_08_end_to_end_recognition(capsys, workdir):
    with criterion(capsys, 8, "synthetic 10x20 recognition: fused >= 0.95 and >= singles"):
        start = time.monotonic()
        run = recognition_run(workdir, "det1")
        elapsed = time.monotonic() - start
        rates = run["rates"]
        assert rates["fused"] >= 0.95, f"fused rate {rates['fused']:.3f}"
        assert rates["fused"] >= rates["thermal"]
        assert rates["fused"] >= rates["visual"]
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_criterion_09_protocol_mechanics(capsys, workdir):
    with criterion(capsys, 9, "10-class x 20-test-image protocol runs for both wavelets"):
        for wavelet in ("haar", "db2"):
            run = recognition_run(workdir, f"protocol-{wavelet}",
                                  per_class=40, wavelet=wavelet)
            doc = json.loads(run["reports"]["fused"].read_text())
            assert doc["config"]["wavelet"] == wavelet
            assert len(doc["labels"]) == 10
            assert len(doc["per_class"]) == 10
            assert all(entry["tested"] == 20 for entry in doc["per_class"])
            assert doc["overall"]["tested"] == 200
            for row, entry in zip(doc["confusion"], doc["per_class"]):
                assert sum(row) == entry["tested"]
            for entry in doc["per_class"]:
                assert entry["rate"] == pytest.approx(entry["correct"] / entry["tested"])


def test_criterion_10_bitwise_determinism(capsys, workdir):
    with criterion(capsys, 10, "repeated run yields bitwise-identical model and report"):
        first = recognition_run(workdir, "det1")
        second = recognition_run(workdir, "det2")
        assert first["model"].read_bytes() == second["model"].read_bytes()
        for modality in ("fused", "thermal", "visual"):
            assert (first["reports"][modality].read_bytes()
                    == second["reports"][modality].read_bytes())
