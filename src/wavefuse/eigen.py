"""Eigenface feature extraction by principal component analysis.

Training images are flattened to vectors, mean-centered, and an orthonormal
eigenbasis of their covariance (1/N convention) is computed via the snapshot
method: eigendecompose the N x N Gram matrix (1/N) A A^T instead of the
D x D covariance, then map each Gram eigenvector u back to image space as
A^T u and normalize. That keeps the cost O(N^2 D) for N images of D pixels,
which matters because D is the pixel count.

The fit works in place where it can, so beyond the training data it holds
little more than the k x D basis and no temporary of that size: a writeable
C-contiguous (N, rows, cols) float64 array is used as the data matrix
without a copy and is centred in place, and the basis is normalized and
sign-flipped in place, one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .settings import AUTO

_ENERGY_FRACTION = 0.95


@dataclass
class EigenspaceModel:
    """Mean image, eigenvalues, and row-stacked orthonormal basis (k x D)."""

    input_dims: tuple[int, int]
    mean: np.ndarray
    eigenvalues: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        dims = self.input_dims = tuple(self.input_dims)
        if len(dims) != 2 or not all(type(n) is int and n > 0 for n in dims):
            raise DataError(f"input_dims must be two positive integers, got {dims}")
        # C order whoever builds the model, so a trained model projects like a loaded one
        self.mean, self.eigenvalues, self.basis = (
            np.asarray(a, np.float64, "C") for a in (self.mean, self.eigenvalues, self.basis)
        )
        size, k = dims[0] * dims[1], len(self.basis) if self.basis.ndim else 0
        for name, shape in (("basis", (k, size)), ("mean", (size,)), ("eigenvalues", (k,))):
            values = getattr(self, name)
            if values.shape != shape:
                raise DataError(f"{name} has shape {values.shape}, expected {shape}")
            if not np.all(np.isfinite(values)):
                raise DataError(f"{name} holds non-finite values")

    @property
    def k(self) -> int:
        return self.basis.shape[0]


def _flatten_stack(images) -> tuple[np.ndarray, tuple[int, int]]:
    """The N x D data matrix: a view of an owned (N, R, C) array, else a fresh stack."""
    if len(images) == 0:
        raise DataError("no training images")
    dims = np.shape(images[0])
    for i, img in enumerate(images):
        if np.shape(img) != dims:
            raise DataError(f"image {i} dims {np.shape(img)} differ from {dims}")
    # the caller's array itself when it is float64, C-contiguous and writeable
    stack = np.require(images, np.float64, "CW")
    return stack.reshape(len(stack), -1), dims


def fit_eigenspace(images, k=AUTO) -> EigenspaceModel:
    """Fit an eigenface basis from same-shape images.

    ``images`` is a sequence of same-shape 2-D images, or one (N, R, C)
    array. A writeable C-contiguous float64 array is not copied: it is
    centred in place, so on return each of its images holds itself minus the
    fitted mean. Any other input is stacked into a fresh array and left
    unchanged.

    ``k`` is the number of components: a positive int, or ``"auto"`` to keep
    the smallest number of components capturing at least 95% of the total
    eigenvalue mass (capped at N - 1). Requesting more components than the
    data's rank supports is an error.
    """
    stack, dims = _flatten_stack(images)
    n = stack.shape[0]
    if n < 2:
        raise DataError(f"need at least 2 training images, got {n}")
    mean = stack.mean(axis=0)
    stack -= mean
    gram = (stack @ stack.T) / n
    evals, evecs = np.linalg.eigh(gram)
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]

    rank = int(np.count_nonzero(evals > evals[0] * 1e-9 + 1e-18))
    if k == AUTO:
        limit = min(n - 1, rank)
        if limit == 0:
            raise DataError("training images are all identical; eigenspace is empty")
        total = evals.sum()
        cum = np.cumsum(evals[:limit])
        keep = int(np.searchsorted(cum, _ENERGY_FRACTION * total) + 1)
        keep = min(keep, limit)
    else:
        keep = int(k)
        if keep < 1:
            raise DataError(f"component count must be >= 1, got {k}")
        if keep > rank:
            raise DataError(
                f"requested {keep} components but data rank is only {rank}"
            )

    basis = evecs[:, :keep].T @ stack
    # Each row normalized, then signed so its first entry of largest magnitude
    # is positive: a fitted model is reproducible rather than solver-dependent.
    # One row at a time, as the whole basis squared would be another k x D array.
    for row in basis:
        row /= np.sqrt(np.square(row).sum())
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return EigenspaceModel(
        input_dims=dims, mean=mean, eigenvalues=evals[:keep], basis=basis
    )


def project(model: EigenspaceModel, img: np.ndarray) -> np.ndarray:
    """Project one image onto the basis, returning its k feature weights."""
    img = np.asarray(img, dtype=np.float64)
    if img.shape != model.input_dims:
        raise DataError(f"image dims {img.shape} differ from model {model.input_dims}")
    return model.basis @ (img.reshape(-1) - model.mean)


def reconstruct_from_features(model: EigenspaceModel, features: np.ndarray) -> np.ndarray:
    """Synthesize the image the features encode: mean + weighted eigenfaces."""
    features = np.asarray(features, dtype=np.float64)
    if features.shape != (model.k,):
        raise DataError(f"expected {model.k} features, got shape {features.shape}")
    flat = model.mean + model.basis.T @ features
    return flat.reshape(model.input_dims)
