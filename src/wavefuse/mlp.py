"""Multilayer perceptron trained by online backpropagation with momentum.

Fixed conventions: logistic sigmoid on every non-input layer, squared error
E = 1/2 * sum((y - t)^2) per sample, per-sample (online) updates with the
momentum rule delta_w(n) = -lr * dE/dw + momentum * delta_w(n-1), and a
seeded shuffle of the sample order each epoch. Weight and bias values are
initialized uniformly in [-0.5, 0.5] from the same seeded generator, so a
fixed config and dataset reproduce the trained model bit for bit.

While training, a network's parameters are one flat float64 vector: every
weight matrix (fan-out x fan-in, C order) in layer order, then every bias.
Its gradients and momentum velocities share that layout, so one momentum
step is four whole-vector operations. The initial values are drawn in that
order too: all weights, then all biases.

Each weight gradient, the outer product of a layer's delta and its input
activations, is computed as a k = 1 matrix product, which BLAS writes as a
rank-1 update. numpy's broadcast ``multiply.outer`` does not vectorise it
(about 1.4 ns per entry) and was the largest single cost of a step: 12.9 us
of about 44 at 100 x 95, against 6.5 us as a matrix product. Each entry is
still the one rounded product ``delta_i * a_j``, so trained weights are
bitwise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import DataError, NumericError
from .settings import typed_fields


@dataclass(frozen=True)
class MlpConfig:
    layer_sizes: tuple[int, ...]
    learning_rate: float = 0.1
    momentum: float = 0.9
    epochs: int = 1000
    seed: int = 0
    target_error: float = 1e-3

    def __post_init__(self):
        typed_fields(self)
        sizes = self.layer_sizes
        if len(sizes) < 2:
            raise DataError(f"need at least 2 layers, got {sizes}")
        if any(s < 1 for s in sizes):
            raise DataError(f"layer sizes must be positive, got {sizes}")
        if self.learning_rate <= 0:
            raise DataError(f"learning rate must be positive, got {self.learning_rate}")
        if not 0 <= self.momentum < 1:
            raise DataError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.target_error < 0:
            raise DataError(f"target error must be >= 0, got {self.target_error}")


@dataclass
class MlpModel:
    """Trained network: per-layer weight matrices (fan-out x fan-in) and biases."""

    config: MlpConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    epochs_run: int = 0
    final_error: float = math.nan

    def __post_init__(self):
        sizes = self.config.layer_sizes
        if not len(self.weights) == len(self.biases) == len(sizes) - 1:
            raise DataError(f"layer sizes {sizes} need {len(sizes) - 1} weight and bias arrays")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (sizes[i + 1], sizes[i]) or b.shape != (sizes[i + 1],):
                raise DataError(
                    f"layer {i} parameter shapes {w.shape}/{b.shape} do not chain "
                    f"with layer sizes {sizes}"
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise DataError(f"non-finite parameters in layer {i}")


def forward(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Run one input through the network, returning all layer activations.

    The first entry is the input itself, the last the output scores, each
    score strictly inside (0, 1).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.config.layer_sizes[0],):
        raise DataError(
            f"input length {x.shape} does not match input size "
            f"{model.config.layer_sizes[0]}"
        )
    activations = [x]
    for w, b in zip(model.weights, model.biases):
        activations.append(expit(w @ activations[-1] + b))
    return activations


def loss_and_gradients(model: MlpModel, x, target):
    """Per-sample squared error and its analytic gradients.

    Returns (loss, weight gradients, bias gradients) where loss is
    1/2 * sum((y - t)^2). It runs ``train``'s step, so the gradient checks
    test the code that trains.
    """
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (model.config.layer_sizes[-1],):
        raise DataError(
            f"target length {target.shape} does not match output size "
            f"{model.config.layer_sizes[-1]}"
        )
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    return _backprop(model, x, target, grads_w, grads_b), grads_w, grads_b


def _backprop(model: MlpModel, x, target, grads_w, grads_b) -> float:
    """One sample's loss; every gradient goes into the caller's ``grads_w`` and ``grads_b``."""
    acts = forward(model, x)
    out = acts[-1]
    err = out - target
    loss = 0.5 * float((err**2).sum())
    delta = np.multiply(err * out, 1.0 - out, out=grads_b[-1])
    for layer in range(len(grads_w) - 1, -1, -1):
        # A k = 1 matrix product, twice as fast as np.multiply.outer and with the
        # same one product per entry. Only an exact zero's sign may differ (BLAS
        # writes +0.0 where the multiply may give -0.0, e.g. where 1 - a == 0).
        # In train that sign reaches a velocity only when momentum * velocity is
        # -0.0, and a parameter only when it is -0.0, which none is: the initial
        # draw gives no -0.0, and p + v is -0.0 only when both are.
        np.dot(delta[:, None], acts[layer][None, :], out=grads_w[layer])
        if layer:
            a = acts[layer]
            delta = np.multiply(model.weights[layer].T @ delta * a, 1.0 - a, out=grads_b[layer - 1])
    return loss


def parameter_count(sizes: tuple[int, ...]) -> int:
    """Weights plus biases of a network with these layer sizes."""
    return sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))


def _views(flat: np.ndarray, sizes: tuple[int, ...]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat vector laid out as the module docstring says."""
    shapes = [(n_out, n_in) for n_in, n_out in zip(sizes, sizes[1:])] + [(n,) for n in sizes[1:]]
    parts = np.split(flat, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    views = [part.reshape(shape) for part, shape in zip(parts, shapes)]
    return views[: len(sizes) - 1], views[len(sizes) - 1 :]


def _validate_data(config: MlpConfig, data):
    if len(data) == 0:
        raise DataError("no training samples")
    n_in, n_out = config.layer_sizes[0], config.layer_sizes[-1]
    xs = np.empty((len(data), n_in))
    ts = np.empty((len(data), n_out))
    for i, (x, t) in enumerate(data):
        x = np.asarray(x, dtype=np.float64)
        t = np.asarray(t, dtype=np.float64)
        if x.shape != (n_in,):
            raise DataError(f"sample {i} input shape {x.shape}, expected ({n_in},)")
        if t.shape != (n_out,):
            raise DataError(f"sample {i} target shape {t.shape}, expected ({n_out},)")
        xs[i], ts[i] = x, t
    for what, values in (("input", xs), ("target", ts)):
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            raise DataError(f"sample {bad[0]} {what} is not finite")
    return xs, ts


def train(config: MlpConfig, data) -> MlpModel:
    """Fit a network to (input, target) pairs by backpropagation with momentum.

    Rejects a non-finite input or target as a DataError naming the sample.
    Stops early once an epoch's mean per-sample error drops to
    ``config.target_error``; raises NumericError, naming the epoch, if the
    loss or any parameter turns non-finite (sigmoid outputs keep the loss
    itself bounded, so runaway weights are the usual divergence signal).
    """
    xs, ts = _validate_data(config, data)
    sizes = config.layer_sizes
    rng = np.random.default_rng(config.seed)
    params = rng.uniform(-0.5, 0.5, parameter_count(sizes))
    model = MlpModel(config, *_views(params, sizes))
    grads = np.empty_like(params)
    grads_w, grads_b = _views(grads, sizes)
    velocity = np.zeros_like(params)

    lr, mom = config.learning_rate, config.momentum
    epoch_error = math.nan
    epoch = 0
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        for i in rng.permutation(len(xs)):
            total += _backprop(model, xs[i], ts[i], grads_w, grads_b)
            velocity *= mom
            grads *= lr
            velocity -= grads
            params += velocity
        epoch_error = total / len(xs)
        if not math.isfinite(epoch_error) or not np.isfinite(params).all():
            raise NumericError(
                f"training diverged: non-finite loss or parameters at epoch {epoch}"
            )
        if epoch_error <= config.target_error:
            break
    model.epochs_run = epoch
    model.final_error = epoch_error
    return model


def predict(model: MlpModel, x) -> tuple[int, np.ndarray]:
    """Class index (argmax of output scores, ties to the lowest) plus the scores."""
    scores = forward(model, x)[-1]
    return int(np.argmax(scores)), scores
