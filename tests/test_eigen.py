"""Eigenface fitting, projection, and back-projection.

The oracle materializes the full pixel-by-pixel covariance matrix (fine at
8x8 scale) and eigendecomposes it directly, so the snapshot shortcut is
checked against the definition it is supposed to equal.
"""

import re

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from wavefuse.eigen import (
    AUTO,
    EigenspaceModel,
    fit_eigenspace,
    project,
    reconstruct_from_features,
)
from wavefuse.errors import DataError


def dense_oracle(images):
    """Eigenpairs of the explicit d x d covariance with the 1/N convention."""
    stack = np.stack([np.asarray(img, dtype=np.float64).ravel() for img in images])
    mean = stack.mean(axis=0)
    centered = stack - mean
    cov = (centered.T @ centered) / len(images)
    evals, evecs = np.linalg.eigh(cov)
    order = np.argsort(evals)[::-1]
    return mean, evals[order], evecs[:, order]


@pytest.fixture
def random_images():
    rng = np.random.default_rng(101)
    return [rng.random((8, 8)) for _ in range(10)]


class TestFitEigenspace:
    def test_two_point_example(self):
        model = fit_eigenspace([np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])], k=1)
        np.testing.assert_allclose(model.mean, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(model.basis, [[1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(model.eigenvalues, [1.0], atol=1e-12)

    def test_identical_images_have_rank_zero(self):
        images = [np.full((4, 4), 0.3)] * 5
        with pytest.raises(DataError, match="rank|identical"):
            fit_eigenspace(images, k=1)
        with pytest.raises(DataError, match="identical"):
            fit_eigenspace(images, k=AUTO)

    def test_k_exceeding_rank_rejected(self, random_images):
        with pytest.raises(DataError, match="rank"):
            fit_eigenspace(random_images, k=10)  # rank is at most N-1 = 9

    def test_too_few_images_rejected(self):
        with pytest.raises(DataError, match="at least 2"):
            fit_eigenspace([np.ones((4, 4))], k=1)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DataError, match="dims"):
            fit_eigenspace([np.ones((4, 4)), np.ones((4, 5))], k=1)

    def test_basis_orthonormal(self, random_images):
        model = fit_eigenspace(random_images, k=9)
        gram = model.basis @ model.basis.T
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-8)

    def test_eigenvalues_sorted_nonnegative(self, random_images):
        model = fit_eigenspace(random_images, k=9)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)
        assert np.all(model.eigenvalues >= 0.0)

    def test_matches_dense_covariance_oracle(self, random_images):
        model = fit_eigenspace(random_images, k=9)
        mean, evals, evecs = dense_oracle(random_images)
        np.testing.assert_allclose(model.mean, mean, atol=1e-12)
        np.testing.assert_allclose(model.eigenvalues, evals[:9], atol=1e-8)
        angles = subspace_angles(model.basis.T, evecs[:, :9])
        assert np.max(angles) <= 1e-6

    def test_sign_convention(self, random_images):
        model = fit_eigenspace(random_images, k=5)
        for vec in model.basis:
            lead = np.argmax(np.abs(vec) == np.abs(vec).max())
            assert vec[lead] > 0

    def test_auto_keeps_at_least_95_percent_mass(self, random_images):
        model = fit_eigenspace(random_images, k=AUTO)
        _, evals, _ = dense_oracle(random_images)
        total = evals[evals > 0].sum()
        assert model.eigenvalues.sum() >= 0.95 * total
        assert model.k <= 9
        if model.k > 1:
            smaller = fit_eigenspace(random_images, k=model.k - 1)
            assert smaller.eigenvalues.sum() < 0.95 * total


class TestProject:
    def test_mean_image_projects_to_zero(self, random_images):
        model = fit_eigenspace(random_images, k=4)
        feats = project(model, model.mean.reshape(model.input_dims))
        np.testing.assert_allclose(feats, np.zeros(4), atol=1e-10)

    def test_unit_basis_alignment(self):
        model = fit_eigenspace([np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]])], k=1)
        np.testing.assert_allclose(project(model, np.array([[1.0, 0.0]])), [1.0], atol=1e-12)

    def test_matches_oracle_projection(self, random_images):
        model = fit_eigenspace(random_images, k=9)
        _, _, evecs = dense_oracle(random_images)
        probe = np.random.default_rng(7).random((8, 8))
        got = project(model, probe)
        want = evecs[:, :9].T @ (probe.ravel() - model.mean)
        # dense eigenvectors may differ in sign; compare magnitudes
        np.testing.assert_allclose(np.abs(got), np.abs(want), atol=1e-8)

    def test_training_features_mean_zero_variance_matches(self, random_images):
        model = fit_eigenspace(random_images, k=9)
        feats = np.stack([project(model, img) for img in random_images])
        np.testing.assert_allclose(feats.mean(axis=0), np.zeros(9), atol=1e-10)
        variances = (feats**2).mean(axis=0)
        np.testing.assert_allclose(variances, model.eigenvalues, rtol=1e-8)

    def test_projection_is_affine(self, random_images):
        model = fit_eigenspace(random_images, k=3)
        rng = np.random.default_rng(55)
        x, y = rng.random((2, 8, 8))
        a, b = 0.6, 0.4  # affine combination keeps the mean term consistent
        left = project(model, a * x + b * y)
        right = a * project(model, x) + b * project(model, y)
        np.testing.assert_allclose(left, right, atol=1e-10)

    def test_dim_mismatch_rejected(self, random_images):
        model = fit_eigenspace(random_images, k=2)
        with pytest.raises(DataError, match="dims"):
            project(model, np.ones((4, 4)))


class TestReconstructFromFeatures:
    def test_zero_features_give_mean(self, random_images):
        model = fit_eigenspace(random_images, k=3)
        out = reconstruct_from_features(model, np.zeros(3))
        np.testing.assert_allclose(out.ravel(), model.mean, atol=1e-12)

    def test_full_rank_roundtrip(self, random_images):
        model = fit_eigenspace(random_images, k=9)
        for img in random_images:
            back = reconstruct_from_features(model, project(model, img))
            assert np.abs(back - img).max() <= 1e-8

    def test_error_nonincreasing_in_k(self, random_images):
        img = random_images[0]
        errors = []
        for k in range(1, 10):
            model = fit_eigenspace(random_images, k=k)
            back = reconstruct_from_features(model, project(model, img))
            errors.append(float(np.linalg.norm(back - img)))
        assert all(b <= a + 1e-10 for a, b in zip(errors, errors[1:]))

    def test_length_mismatch_rejected(self, random_images):
        model = fit_eigenspace(random_images, k=3)
        with pytest.raises(DataError, match="features"):
            reconstruct_from_features(model, np.zeros(4))


class TestInPlaceFit:
    """An owned (N, R, C) array is fitted without a copy; a list is never modified."""

    def test_array_and_list_fit_bitwise_equal(self, random_images):
        originals = [img.copy() for img in random_images]
        from_list = fit_eigenspace(random_images, k=AUTO)
        from_array = fit_eigenspace(np.stack(random_images), k=AUTO)
        for name in ("mean", "eigenvalues", "basis"):
            assert np.array_equal(getattr(from_array, name), getattr(from_list, name)), name
        assert from_array.input_dims == from_list.input_dims == (8, 8)
        assert all(np.array_equal(a, b) for a, b in zip(random_images, originals))

    def test_owned_array_is_centred_in_place(self, random_images):
        stack = np.stack(random_images)
        model = fit_eigenspace(stack, k=3)
        assert np.array_equal(stack, np.stack(random_images) - model.mean.reshape(8, 8))

    @pytest.mark.parametrize("make", [
        lambda s: s.astype(np.float32),
        lambda s: np.asfortranarray(s),
        lambda s: s[:, :, ::-1],
    ], ids=["float32", "fortran-order", "strided"])
    def test_other_arrays_are_left_unchanged(self, random_images, make):
        images = make(np.stack(random_images))
        before = images.copy()
        fit_eigenspace(images, k=3)
        assert np.array_equal(images, before)

    def test_read_only_array_is_left_unchanged(self, random_images):
        images = np.stack(random_images)
        images.flags.writeable = False
        fit_eigenspace(images, k=3)
        assert np.array_equal(images, np.stack(random_images))

    def test_dim_mismatch_names_the_image(self):
        with pytest.raises(DataError, match=re.escape("image 2 dims (4, 5) differ from (4, 4)")):
            fit_eigenspace([np.ones((4, 4)), np.zeros((4, 4)), np.ones((4, 5))], k=1)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_basis_bitwise_equal_to_whole_basis_expressions(self, k):
        # The reference normalizes with np.linalg.norm over the whole basis and
        # applies the sign rule to np.abs of the whole basis, each a D x k copy.
        n = 12
        images = np.random.default_rng(k).random((n, 40, 50))
        basis = fit_eigenspace(images.copy(), k=k).basis
        centred = images.reshape(n, -1) - images.reshape(n, -1).mean(axis=0)
        evals, evecs = np.linalg.eigh((centred @ centred.T) / n)
        reference = centred.T @ evecs[:, np.argsort(evals)[::-1]][:, :k]
        reference = (reference / np.linalg.norm(reference, axis=0)).T
        mags = np.abs(reference)
        lead = np.argmax(mags == mags.max(axis=1, keepdims=True), axis=1)
        reference = reference * np.where(reference[np.arange(k), lead] < 0, -1.0, 1.0)[:, None]
        assert basis.tobytes() == reference.tobytes()

    def test_peak_memory_stays_near_one_basis(self, traced_peak):
        # One D x k basis (0.18 MB here) plus the N x N eigenproblem; a D x k
        # temporary (0.54 MB peak) or an N x D copy of the data (1.1 MB)
        # exceeds the limit.
        n, rows, cols, k = 60, 48, 48, 10
        d = rows * cols
        images = np.random.default_rng(7).random((n, rows, cols))
        peak = traced_peak(fit_eigenspace, images, k)
        assert peak <= d * k * 8 + 8 * n * n * 8, peak


class TestModelValidation:
    """An EigenspaceModel read from a file is checked before any projection."""

    def fields(self, random_images):
        model = fit_eigenspace(random_images, k=3)
        return dict(input_dims=model.input_dims, mean=model.mean,
                    eigenvalues=model.eigenvalues, basis=model.basis)

    def test_lists_become_float64_arrays(self, random_images):
        fields = {k: np.asarray(v).tolist() for k, v in self.fields(random_images).items()}
        model = EigenspaceModel(**fields)
        assert model.input_dims == (8, 8)
        for name in ("mean", "eigenvalues", "basis"):
            assert getattr(model, name).dtype == np.float64
        assert model.k == 3

    @pytest.mark.parametrize("name, value, match", [
        ("basis", lambda b: np.where(b == b[1, 5], np.nan, b), "basis holds non-finite"),
        ("mean", lambda m: m[:-1], "mean has shape"),
        ("eigenvalues", lambda e: np.append(e, 0.5), "eigenvalues has shape"),
        ("basis", lambda b: b[:, :-1], "basis has shape"),
        ("input_dims", lambda d: (8, 8, 1), "input_dims"),
        ("input_dims", lambda d: (8.0, 8), "input_dims"),
    ], ids=["nan-basis", "short-mean", "extra-eigenvalue", "narrow-basis", "3-d", "float-dims"])
    def test_inconsistent_model_rejected(self, random_images, name, value, match):
        fields = self.fields(random_images)
        fields[name] = value(fields[name])
        with pytest.raises(DataError, match=match):
            EigenspaceModel(**fields)
