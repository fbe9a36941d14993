"""MLP forward pass, backpropagation gradients, training, and prediction.

Gradients are checked parameter by parameter against central finite
differences of the loss, the one oracle that needs nothing but repeated
forward passes.
"""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from wavefuse.errors import DataError, NumericError
from wavefuse.mlp import (MlpConfig, MlpModel, _views, forward, loss_and_gradients, parameter_count,
                         predict, train)

XOR_DATA = [
    (np.array([0.0, 0.0]), np.array([0.0])),
    (np.array([0.0, 1.0]), np.array([1.0])),
    (np.array([1.0, 0.0]), np.array([1.0])),
    (np.array([1.0, 1.0]), np.array([0.0])),
]


def xor_config(seed):
    return MlpConfig(
        layer_sizes=(2, 4, 1),
        learning_rate=0.5,
        momentum=0.9,
        epochs=5000,
        seed=seed,
        target_error=1e-3,
    )


def random_model(sizes, seed):
    rng = np.random.default_rng(seed)
    weights = [rng.normal(size=(sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)]
    biases = [rng.normal(size=sizes[i + 1]) for i in range(len(sizes) - 1)]
    return MlpModel(config=MlpConfig(layer_sizes=sizes), weights=weights, biases=biases)


def numeric_gradients(model, x, target, h=1e-5):
    """Central finite differences over every weight and bias entry."""
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]

    def loss():
        out = forward(model, x)[-1]
        return 0.5 * float(np.sum((out - target) ** 2))

    for layer, w in enumerate(model.weights):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss()
            w[idx] = orig - h
            down = loss()
            w[idx] = orig
            grads_w[layer][idx] = (up - down) / (2 * h)
    for layer, b in enumerate(model.biases):
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            up = loss()
            b[idx] = orig - h
            down = loss()
            b[idx] = orig
            grads_b[layer][idx] = (up - down) / (2 * h)
    return grads_w, grads_b


def relative_error(a, n):
    return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)


MLP_DIGESTS = Path(__file__).parent / "data" / "mlp_digests.json"
# case name -> (layer sizes, momentum, input scale). The protocols' two nets at
# their learning rate; inputs of scale 100 drive most hidden units to a == 1.0,
# where 1 - a == 0 makes their deltas, and so their weight gradients, exactly zero
PIN_CASES = {
    "46-100-10": ((46, 100, 10), 0.9, 1.0),
    "95-100-10": ((95, 100, 10), 0.9, 1.0),
    "46-100-10-momentum-0": ((46, 100, 10), 0.0, 1.0),
    "46-100-10-saturated": ((46, 100, 10), 0.9, 100.0),
    "46-100-10-saturated-momentum-0": ((46, 100, 10), 0.0, 100.0),
}


def pin_model(case):
    """The network ``case`` trains: 4 samples per class, 10 epochs at lr 0.01."""
    sizes, momentum, scale = PIN_CASES[case]
    rng = np.random.default_rng(5)
    data = [(scale * rng.standard_normal(sizes[0]), np.eye(sizes[-1])[i % sizes[-1]])
            for i in range(4 * sizes[-1])]
    cfg = MlpConfig(layer_sizes=sizes, learning_rate=0.01, momentum=momentum, epochs=10,
                    seed=3, target_error=0.0)
    return cfg, data


def initial_model(cfg):
    """The network ``train`` starts from: its seeded draw of every parameter."""
    init = np.random.default_rng(cfg.seed).uniform(-0.5, 0.5, parameter_count(cfg.layer_sizes))
    return MlpModel(cfg, *_views(init, cfg.layer_sizes))


def trained_digest(case):
    model = train(*pin_model(case))
    return hashlib.sha256(b"".join(p.tobytes() for p in model.weights + model.biases)).hexdigest()


def arithmetic_digest():
    """sha256 of the matrix-vector products and sigmoids at the pinned nets' sizes.

    The trained bytes depend on the order in which the BLAS sums a product and
    on the sigmoid's last bit, both of which vary with the CPU kernel and the
    platform's libraries; where these differ from the recording, the pins
    cannot hold.
    """
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for n_out, n_in in ((100, 46), (100, 95), (10, 100)):
        w = rng.uniform(-0.5, 0.5, (n_out, n_in))
        h.update((w @ rng.standard_normal(n_in)).tobytes())
        h.update((w.T @ rng.standard_normal(n_out)).tobytes())
    h.update(expit(40.0 * rng.standard_normal(1000)).tobytes())
    return h.hexdigest()


class TestForward:
    def test_zero_parameters_give_one_half(self):
        model = MlpModel(
            config=MlpConfig(layer_sizes=(3, 4, 2)),
            weights=[np.zeros((4, 3)), np.zeros((2, 4))],
            biases=[np.zeros(4), np.zeros(2)],
        )
        out = forward(model, np.array([0.3, -0.7, 2.0]))[-1]
        np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)

    def test_identity_unit_at_zero(self):
        model = MlpModel(
            config=MlpConfig(layer_sizes=(1, 1)),
            weights=[np.array([[1.0]])],
            biases=[np.array([0.0])],
        )
        np.testing.assert_allclose(forward(model, np.array([0.0]))[-1], [0.5], atol=1e-15)

    def test_log_three_gives_three_quarters(self):
        model = MlpModel(
            config=MlpConfig(layer_sizes=(1, 1)),
            weights=[np.array([[1.0]])],
            biases=[np.array([0.0])],
        )
        out = forward(model, np.array([math.log(3.0)]))[-1]
        np.testing.assert_allclose(out, [0.75], atol=1e-12)

    def test_scores_strictly_inside_unit_interval(self):
        model = random_model((4, 6, 3), seed=3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            out = forward(model, rng.normal(size=4) * 10)[-1]
            assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_length_mismatch_rejected(self):
        model = random_model((3, 2), seed=1)
        with pytest.raises(DataError, match="length"):
            forward(model, np.zeros(4))
        with pytest.raises(DataError, match=re.escape(
                "target length (3,) does not match output size 2")):
            loss_and_gradients(model, np.zeros(3), np.zeros(3))


def assert_gradients_match_central_differences(sizes, seed):
    model = random_model(sizes, seed=seed)
    rng = np.random.default_rng(seed + 1)
    for _ in range(10):
        x = rng.normal(size=sizes[0])
        t = rng.uniform(size=sizes[-1])
        _, grads_w, grads_b = loss_and_gradients(model, x, t)
        num_w, num_b = numeric_gradients(model, x, t)
        for a, n in zip(grads_w + grads_b, num_w + num_b):
            assert relative_error(a, n).max() <= 1e-5


class TestGradients:
    def test_analytic_matches_central_differences(self):
        assert_gradients_match_central_differences((3, 5, 2), seed=17)

    def test_two_hidden_layers_match_central_differences(self):
        # the delta is carried back through two hidden layers
        assert_gradients_match_central_differences((5, 7, 4, 3), seed=23)

    def test_second_call_leaves_first_gradients_unchanged(self):
        model = random_model((5, 7, 4, 3), seed=29)
        rng = np.random.default_rng(30)
        _, first_w, first_b = loss_and_gradients(model, rng.normal(size=5), rng.uniform(size=3))
        kept = [g.copy() for g in first_w + first_b]
        _, second_w, second_b = loss_and_gradients(model, rng.normal(size=5), rng.uniform(size=3))
        for grad, copy, later in zip(first_w + first_b, kept, second_w + second_b):
            assert grad.tobytes() == copy.tobytes()
            assert not np.shares_memory(grad, later)

    def test_loss_value_matches_forward(self):
        model = random_model((3, 5, 2), seed=19)
        x, t = np.array([0.1, -0.2, 0.4]), np.array([1.0, 0.0])
        loss, _, _ = loss_and_gradients(model, x, t)
        out = forward(model, x)[-1]
        assert loss == pytest.approx(0.5 * np.sum((out - t) ** 2), abs=1e-15)

    @pytest.mark.parametrize("case", ["46-100-10", "46-100-10-saturated"])
    def test_weight_gradients_equal_outer_products(self, case):
        # Each weight gradient entry is one rounded product delta_i * a_j, so
        # every way of forming it gives the same values. Only the sign of an
        # exact zero may differ: a BLAS product adds to 0.0 and writes +0.0
        # where the broadcast multiply writes -0.0. array_equal counts the two
        # as equal; the saturated case has such zeros, where 1 - a == 0
        cfg, data = pin_model(case)
        model = initial_model(cfg)
        zeros = 0
        for x, t in data:
            _, grads_w, grads_b = loss_and_gradients(model, x, t)
            for grad, delta, a in zip(grads_w, grads_b, forward(model, x)):
                expected = np.multiply.outer(delta, a)
                assert np.array_equal(grad, expected)
                zeros += int((expected == 0.0).sum())
        assert (zeros > 0) == ("saturated" in case)


class TestTrain:
    def test_xor_learned_with_benchmark_config(self):
        model = train(xor_config(seed=42), XOR_DATA)
        for x, t in XOR_DATA:
            score = forward(model, x)[-1][0]
            assert (score > 0.5) == (t[0] > 0.5)
        assert model.final_error <= 0.05

    def test_trained_xor_predicts_class_one(self):
        model = train(xor_config(seed=42), XOR_DATA)
        score = forward(model, np.array([1.0, 0.0]))[-1][0]
        assert score > 0.5

    def test_zero_error_sample_is_fixed_point(self):
        # reproduce the seeded init, set the target to its own output, and
        # check one epoch of training moves nothing
        x = np.array([0.2, 0.4])
        cfg = MlpConfig(layer_sizes=(2, 3, 1), epochs=1, seed=5, target_error=0.0)
        sizes = cfg.layer_sizes
        rng = np.random.default_rng(5)
        init_w = [rng.uniform(-0.5, 0.5, (sizes[i + 1], sizes[i])) for i in range(2)]
        init_b = [rng.uniform(-0.5, 0.5, sizes[i + 1]) for i in range(2)]
        init = MlpModel(
            config=cfg,
            weights=[w.copy() for w in init_w],
            biases=[b.copy() for b in init_b],
        )
        target = forward(init, x)[-1]
        model = train(cfg, [(x, target)])
        for a, b in zip(model.weights, init_w):
            assert np.abs(a - b).max() <= 1e-12
        for a, b in zip(model.biases, init_b):
            assert np.abs(a - b).max() <= 1e-12

    def test_zero_momentum_equals_plain_gradient_steps(self):
        x, t = np.array([0.3, -0.1]), np.array([0.8])
        cfg = MlpConfig(layer_sizes=(2, 2, 1), learning_rate=0.2, momentum=0.0, epochs=2, seed=9, target_error=0.0)
        trained = train(cfg, [(x, t)])

        rng = np.random.default_rng(9)
        sizes = cfg.layer_sizes
        weights = [rng.uniform(-0.5, 0.5, (sizes[i + 1], sizes[i])) for i in range(2)]
        biases = [rng.uniform(-0.5, 0.5, sizes[i + 1]) for i in range(2)]
        manual = MlpModel(config=cfg, weights=weights, biases=biases)
        for _ in range(2):
            _, gw, gb = loss_and_gradients(manual, x, t)
            for layer in range(2):
                manual.weights[layer] -= cfg.learning_rate * gw[layer]
                manual.biases[layer] -= cfg.learning_rate * gb[layer]
        for a, b in zip(trained.weights, manual.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(trained.biases, manual.biases):
            np.testing.assert_array_equal(a, b)

    def test_equals_reference_loop_bitwise(self):
        # the online momentum loop written from loss_and_gradients, shuffle and all
        cfg = MlpConfig(layer_sizes=(5, 7, 4, 3), learning_rate=0.3, momentum=0.8, epochs=6,
                        seed=2, target_error=0.0)
        data_rng = np.random.default_rng(9)
        data = [(data_rng.standard_normal(5), data_rng.uniform(0.1, 0.9, 3)) for _ in range(11)]
        trained = train(cfg, data)

        rng = np.random.default_rng(cfg.seed)
        sizes = cfg.layer_sizes
        weights = [rng.uniform(-0.5, 0.5, (sizes[i + 1], sizes[i])) for i in range(3)]
        biases = [rng.uniform(-0.5, 0.5, sizes[i + 1]) for i in range(3)]
        manual = MlpModel(config=cfg, weights=weights, biases=biases)
        params = weights + biases
        velocity = [np.zeros_like(p) for p in params]
        for _ in range(cfg.epochs):
            total = 0.0
            for i in rng.permutation(len(data)):
                loss, gw, gb = loss_and_gradients(manual, *data[i])
                total += loss
                for j, grad in enumerate(gw + gb):
                    velocity[j] = cfg.momentum * velocity[j] - cfg.learning_rate * grad
                    params[j] += velocity[j]
        for a, b in zip(trained.weights + trained.biases, params):
            assert a.tobytes() == b.tobytes()
        assert trained.final_error == total / len(data)
        assert trained.epochs_run == cfg.epochs

    @pytest.mark.parametrize("sizes", [(1, 1), (3, 5, 2), (5, 7, 4, 3)])
    def test_views_tile_the_parameter_vector(self, sizes):
        n_params = sum(n_out * (n_in + 1) for n_in, n_out in zip(sizes, sizes[1:]))
        flat = np.arange(n_params, dtype=np.float64)
        weights, biases = _views(flat, sizes)
        assert [w.shape for w in weights] == list(zip(sizes[1:], sizes))
        assert [b.shape for b in biases] == [(n,) for n in sizes[1:]]
        assert all(np.shares_memory(v, flat) for v in weights + biases)
        # weights by layer, then biases: each entry of the vector exactly once, in order
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in weights + biases]), flat)

    def test_bit_reproducible(self):
        a = train(xor_config(seed=7), XOR_DATA)
        b = train(xor_config(seed=7), XOR_DATA)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))
        assert a.epochs_run == b.epochs_run and a.final_error == b.final_error

    def test_divergence_raises_numeric_error_with_epoch(self):
        # an absurd learning rate launches the weight toward overflow; the
        # momentum term keeps pushing it over DBL_MAX within a few epochs
        data = [(np.array([10.0]), np.array([0.0]))]
        cfg = MlpConfig(layer_sizes=(1, 1), learning_rate=1e308, momentum=0.9, epochs=50, seed=0, target_error=0.0)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="epoch"):
            train(cfg, data)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError, match="samples"):
            train(MlpConfig(layer_sizes=(2, 1)), [])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DataError, match="shape"):
            train(MlpConfig(layer_sizes=(2, 1)), [(np.zeros(3), np.zeros(1))])
        with pytest.raises(DataError, match=re.escape("sample 1 target shape (2,), expected (1,)")):
            train(MlpConfig(layer_sizes=(2, 1)), [(np.zeros(2), np.zeros(1)),
                                                  (np.zeros(2), np.zeros(2))])

    @pytest.mark.parametrize("field, bad", [("input", math.nan), ("target", math.inf)])
    def test_non_finite_sample_rejected_before_training(self, field, bad):
        # caught as bad data, not as training that diverged at epoch 1
        data = [(np.zeros(2), np.zeros(1)) for _ in range(3)]
        data[1][0 if field == "input" else 1][0] = bad
        with pytest.raises(DataError, match=f"sample 1 {field} is not finite"):
            train(MlpConfig(layer_sizes=(2, 1)), data)

    def test_early_stop_on_target_error(self):
        cfg = MlpConfig(layer_sizes=(2, 4, 1), learning_rate=0.5, momentum=0.9, epochs=5000, seed=42, target_error=0.05)
        model = train(cfg, XOR_DATA)
        assert model.epochs_run < 5000
        assert model.final_error <= 0.05


class TestTrainedWeightsPinned:
    """``train``'s parameter bytes are pinned, so a change to how a step computes moves a digest.

    ``test_equals_reference_loop_bitwise`` builds its reference from
    ``loss_and_gradients``, which runs the same step, so it cannot see such a
    change. The digests were recorded with the weight gradient written by
    ``np.multiply.outer``, before it became a BLAS rank-1 product.
    """

    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_trained_parameters_match_pinned_digest(self, case):
        pins = json.loads(MLP_DIGESTS.read_text())
        if arithmetic_digest() != pins["arithmetic"]:
            pytest.skip("this BLAS or libm rounds the forward pass differently from the recording")
        assert trained_digest(case) == pins["trained"][case]


class TestPredict:
    def test_argmax_readout(self):
        model = random_model((2, 3), seed=30)
        cls, scores = predict(model, np.array([0.1, 0.2]))
        assert cls == int(np.argmax(scores))

    def test_tie_breaks_to_lowest_index(self):
        model = MlpModel(
            config=MlpConfig(layer_sizes=(2, 3)),
            weights=[np.zeros((3, 2))],
            biases=[np.zeros(3)],
        )
        cls, scores = predict(model, np.array([1.0, -1.0]))
        np.testing.assert_allclose(scores, [0.5, 0.5, 0.5], atol=1e-15)
        assert cls == 0


class TestConfigValidation:
    def test_too_few_layers(self):
        with pytest.raises(DataError, match="layers"):
            MlpConfig(layer_sizes=(3,))

    def test_bad_momentum(self):
        with pytest.raises(DataError, match="momentum"):
            MlpConfig(layer_sizes=(2, 1), momentum=1.0)

    def test_bad_learning_rate(self):
        with pytest.raises(DataError, match="learning rate"):
            MlpConfig(layer_sizes=(2, 1), learning_rate=0.0)

    @pytest.mark.parametrize("field, value, match", [
        ("layer_sizes", (2.7, 3.9, 2.2), r"layer_sizes\[0\] must be an integer, got 2.7"),
        ("layer_sizes", (2, True), r"layer_sizes\[1\] must be an integer"),
        ("layer_sizes", 3, "layer_sizes must be a list of integers"),
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("learning_rate", "0.1", "learning_rate must be a number, got '0.1'"),
        ("learning_rate", float("nan"), "learning_rate must be finite"),
        ("seed", -1, "seed must be >= 0"),
        ("layer_sizes", (2, 0), r"layer sizes must be positive, got \(2, 0\)"),
        ("target_error", -1, "target error must be >= 0, got -1.0"),
    ])
    def test_fields_type_checked_without_truncation(self, field, value, match):
        kwargs = {"layer_sizes": (2, 1), field: value}
        with pytest.raises(DataError, match=match):
            MlpConfig(**kwargs)

    def test_numbers_normalised(self):
        cfg = MlpConfig(layer_sizes=[np.int64(3), 2], learning_rate=1, epochs=np.int32(4))
        assert cfg.layer_sizes == (3, 2) and all(type(n) is int for n in cfg.layer_sizes)
        assert type(cfg.learning_rate) is float and type(cfg.epochs) is int

    def test_parameter_shape_chain_enforced(self):
        with pytest.raises(DataError, match="chain"):
            MlpModel(
                config=MlpConfig(layer_sizes=(2, 2)),
                weights=[np.zeros((3, 2))],
                biases=[np.zeros(3)],
            )

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(DataError, match="non-finite parameters in layer 0"):
            MlpModel(
                config=MlpConfig(layer_sizes=(2, 2)),
                weights=[np.array([[0.0, np.nan], [0.0, 0.0]])],
                biases=[np.zeros(2)],
            )

    @pytest.mark.parametrize("layers", [1, 3], ids=["layer-dropped", "layer-added"])
    def test_layer_count_must_match_sizes(self, layers):
        rng = np.random.default_rng(0)
        sizes = [2, 3, 3, 2][: layers + 1]
        weights = [rng.random((b, a)) for a, b in zip(sizes, sizes[1:])]
        biases = [rng.random(b) for b in sizes[1:]]
        with pytest.raises(DataError, match="need 2 weight and bias arrays"):
            MlpModel(config=MlpConfig(layer_sizes=(2, 3, 3)), weights=weights, biases=biases)
