"""Losses, the network container, gradient descent, restarts, evaluation."""

import math

import numpy as np
import pytest

from _helpers import fd_grad, max_rel_err
from symnet.layers import Conv1DLayer, DenseGradients, DenseLayer, GlobalMaxPool, Sigmoid, Softmax, Transpose
from symnet.ndcore import SeededRng, ShapeError, derive_seed, softmax
from symnet.tasks import make_identity_dataset, make_rule_dataset
from symnet.training import (
    LOSSES,
    Network,
    TrainConfig,
    cross_entropy,
    discretise,
    evaluate,
    gd_step,
    squared_error,
    train,
)
from symnet.harness import build_network


class TestSquaredError:
    def test_zero_at_minimum(self):
        loss, grad = squared_error([1.0, 2.0], [1.0, 2.0])
        assert loss == 0.0
        assert not grad.any()

    def test_unit_deviation(self):
        loss, grad = squared_error([1.0, 0.0], [0.0, 0.0])
        assert loss == 1.0
        assert np.array_equal(grad, [2.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pred = rng.uniform(-2, 2, 5)
            target = rng.uniform(-2, 2, 5)
            _, grad = squared_error(pred, target)
            fd = fd_grad(lambda p: squared_error(p, target)[0], pred)
            assert max_rel_err(grad, fd) <= 1e-8

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            squared_error([1.0], [1.0, 2.0])


class TestCrossEntropy:
    def test_uniform_prediction_costs_log2(self):
        loss, _ = cross_entropy([0.5, 0.5], [1.0, 0.0])
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)

    def test_perfect_prediction_costs_nothing(self):
        loss, _ = cross_entropy([1.0, 0.0], [1.0, 0.0])
        assert abs(loss) <= 1e-11

    def test_zero_probability_is_clamped_never_nan(self):
        loss, grad = cross_entropy([1.0, 0.0], [0.0, 1.0])
        assert math.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12), rel=1e-12)
        assert np.all(np.isfinite(grad))

    def test_fused_gradient_matches_finite_differences_through_softmax(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            logits = rng.uniform(-4, 4, 3)
            target = np.zeros(3)
            target[rng.integers(0, 3)] = 1.0
            probs = softmax(logits)
            _, grad = cross_entropy(probs, target)
            fd = fd_grad(lambda z: cross_entropy(softmax(z), target)[0], logits)
            assert max_rel_err(grad, fd) <= 1e-7


class TestGdStep:
    def test_zero_gradients_leave_network_unchanged(self):
        layer = DenseLayer([[1.0, 2.0]], [3.0])
        net = Network([layer])
        before = layer.weights.copy()
        gd_step(net, [DenseGradients(np.zeros((1, 2)), np.zeros(1), np.zeros(2))], 0.5)
        assert np.array_equal(layer.weights, before)
        assert layer.bias[0] == 3.0

    def test_single_step_arithmetic(self):
        layer = DenseLayer([[1.0]], [0.0])
        net = Network([layer])
        returned = gd_step(net, [DenseGradients(np.array([[0.5]]), np.zeros(1), np.zeros(1))], 0.1)
        assert layer.weights[0, 0] == pytest.approx(0.95, abs=1e-15)
        assert returned is net

    def test_gradient_count_checked(self):
        net = Network([DenseLayer([[1.0]], [0.0])])
        with pytest.raises(ValueError):
            gd_step(net, [], 0.1)

    def test_gradient_shape_checked(self):
        net = Network([DenseLayer([[1.0, 2.0]], [0.0])])
        bad = DenseGradients(np.zeros((2, 2)), np.zeros(1), np.zeros(2))
        with pytest.raises(ShapeError):
            gd_step(net, [bad], 0.1)


class TestNetwork:
    def test_forward_pass_records_every_stage(self):
        net = build_network("rule", "conv", SeededRng(0))
        x = make_rule_dataset().train.inputs[0]
        logits, caches = net.forward_pass(x)
        assert len(caches) == len(net.stages)
        assert logits.shape == (2,)
        # the softmax head runs in predict only, on the trained logits
        assert np.array_equal(net.predict(x), softmax(logits))
        assert net.predict(x).sum() == pytest.approx(1.0, abs=1e-12)

    def test_parameter_counts(self):
        assert build_network("identity", "dense", SeededRng(0)).parameter_count() == 30
        assert build_network("identity", "conv", SeededRng(0)).parameter_count() == 6
        assert build_network("rule", "conv", SeededRng(0)).parameter_count() == 8
        assert build_network("rule", "dense", SeededRng(0)).parameter_count() == 36 * 24 + 24

    def test_softmax_backward_requires_fused_loss(self):
        # a Softmax stage inside the trained pipeline cannot be backpropagated;
        # the cross_entropy loss applies the softmax to the logits itself
        net = Network([DenseLayer(np.ones((2, 2)), np.zeros(2)), Softmax()])
        _, caches = net.forward_pass([1.0, 2.0])
        with pytest.raises(ValueError):
            net.backward_pass(caches, np.ones(2))

    def test_unknown_loss_rejected(self):
        with pytest.raises(ValueError):
            Network([Sigmoid()], loss="hinge")

    @pytest.mark.parametrize("experiment,architecture", [
        ("identity", "dense"), ("identity", "conv"), ("rule", "dense"), ("rule", "conv"),
    ])
    def test_composed_backward_matches_finite_differences(self, experiment, architecture):
        # the whole chain train() runs: forward_pass, the network's loss, then
        # backward_pass through reshape/transpose, max pool and the
        # logits-level softmax cross-entropy, checked on every parameter
        net = build_network(experiment, architecture, SeededRng(derive_seed(3, experiment, architecture)))
        data = (make_identity_dataset() if experiment == "identity" else make_rule_dataset()).train
        loss_fn = LOSSES[net.loss]
        outputs, caches = net.forward_pass(data.inputs)
        records = net.backward_pass(caches, loss_fn(outputs, data.targets)[1])

        for stage, record in zip(net.parametric_stages, records):
            for name in stage.params:
                original = getattr(stage, name)

                def loss_at(value):
                    setattr(stage, name, value)
                    try:
                        return loss_fn(net.forward_pass(data.inputs)[0], data.targets)[0]
                    finally:
                        setattr(stage, name, original)

                assert max_rel_err(getattr(record, f"d_{name}"), fd_grad(loss_at, original)) <= 1e-6, name

    def test_reinitialize_is_deterministic_and_changes_weights(self):
        a = build_network("identity", "dense", SeededRng(7))
        b = build_network("identity", "dense", SeededRng(7))
        before = a.parametric_stages[0].weights.copy()
        a.reinitialize(SeededRng(8))
        b.reinitialize(SeededRng(8))
        assert not np.array_equal(a.parametric_stages[0].weights, before)
        assert np.array_equal(a.parametric_stages[0].weights, b.parametric_stages[0].weights)

    def test_batched_gradient_is_sum_of_instance_gradients(self):
        rng = np.random.default_rng(19)
        net = Network([DenseLayer(rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 3)), Sigmoid()])
        xb = rng.uniform(-1, 1, (5, 4))
        tb = rng.uniform(0, 1, (5, 3))
        y, caches = net.forward_pass(xb)
        _, d_out = squared_error(y, tb)
        batched = net.backward_pass(caches, d_out)[0]
        summed_w = np.zeros((3, 4))
        summed_b = np.zeros(3)
        for i in range(5):
            y, caches = net.forward_pass(xb[i])
            _, d = squared_error(y, tb[i])
            g = net.backward_pass(caches, d)[0]
            summed_w += g.d_weights
            summed_b += g.d_bias
        assert np.allclose(batched.d_weights, summed_w, rtol=0, atol=1e-12)
        assert np.allclose(batched.d_bias, summed_b, rtol=0, atol=1e-12)


class TestDiscretiseAndEvaluate:
    def test_instance_correct_when_all_digits_match(self):
        net = Network([DenseLayer(np.eye(5) * 10.0 - 2.0, np.zeros(5)), Sigmoid()])
        # crafted outputs around [0.9, 0.1, 0.8, 0.7, 0.2]-style patterns
        inputs = np.array([[1.0, 0.0, 1.0, 1.0, 0.0]])
        targets = inputs.copy()
        assert evaluate(net, (inputs, targets)) == 1.0

    def test_cutoff_is_inclusive(self):
        assert np.array_equal(discretise([0.5, 0.499999, 0.500001]), [1.0, 0.0, 1.0])

    def test_one_digit_below_cutoff_fails_whole_instance(self):
        bits = discretise([0.9, 0.1, 0.8, 0.49, 0.2])
        assert np.array_equal(bits, [1, 0, 1, 0, 0])
        # target wants the fourth digit on; the instance must count as wrong
        target = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        assert not np.array_equal(bits, target)

    def test_order_invariance(self):
        ds = make_identity_dataset()
        net = build_network("identity", "dense", SeededRng(3))
        base = evaluate(net, ds.train)
        perm = np.random.default_rng(0).permutation(len(ds.train))
        shuffled = evaluate(net, (ds.train.inputs[perm], ds.train.targets[perm]))
        assert base == shuffled

    def test_accuracy_is_exact_fraction(self):
        net = Network([DenseLayer(np.zeros((1, 1)), [10.0]), Sigmoid()])  # always predicts 1
        inputs = np.zeros((4, 1))
        targets = np.array([[1.0], [1.0], [1.0], [0.0]])
        assert evaluate(net, (inputs, targets)) == 0.75

    def test_empty_split_rejected(self):
        net = Network([DenseLayer(np.zeros((1, 1)), [0.0]), Sigmoid()])
        with pytest.raises(ValueError):
            evaluate(net, (np.zeros((0, 1)), np.zeros((0, 1))))

    def test_accepts_dataset_split_directly(self):
        ds = make_identity_dataset()
        net = build_network("identity", "conv", SeededRng(11))
        assert evaluate(net, ds.train) == evaluate(net, (ds.train.inputs, ds.train.targets))

    def test_rule_conv_accuracy_ignores_word_row_permutation(self):
        # the conv architecture cannot tell which word row is which, so
        # permuting rows consistently across the split changes nothing
        ds = make_rule_dataset()
        net = build_network("rule", "conv", SeededRng(5))
        base = evaluate(net, ds.test)
        perm = np.random.default_rng(1).permutation(12)
        assert evaluate(net, (ds.test.inputs[:, perm, :], ds.test.targets)) == base


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(max_restarts=-1)


class TestTrain:
    def test_conv_identity_run_reaches_full_training_accuracy(self):
        ds = make_identity_dataset()
        net = build_network("identity", "conv", SeededRng(123))
        result = train(net, ds.train, TrainConfig(epochs=1000, learning_rate=1.0))
        assert result.reached_criterion
        assert result.restarts == 0
        assert evaluate(net, ds.train) == 1.0
        assert result.losses[-1] < result.losses[0]

    def test_perfect_initialisation_needs_no_restarts(self):
        ds = make_identity_dataset()
        # identity conv solution: strong centre weight, negative bias
        layer = Conv1DLayer([[[0.0, 0.0, 20.0, 0.0, 0.0]]], [-10.0], padding="zero_same")
        net = build_network("identity", "conv", SeededRng(0))
        net.stages[1] = layer
        assert evaluate(net, ds.train) == 1.0
        result = train(net, ds.train, TrainConfig(epochs=5, learning_rate=0.1), SeededRng(1))
        assert result.restarts == 0
        assert result.reached_criterion
        assert evaluate(net, ds.train) == 1.0

    def test_unlearnable_config_reports_failure_after_full_budget(self):
        ds = make_identity_dataset()
        net = build_network("identity", "dense", SeededRng(9))
        result = train(net, ds.train, TrainConfig(epochs=40, learning_rate=1e-9))
        assert not result.reached_criterion
        assert result.restarts == 0
        assert len(result.losses) == 40

    def test_restart_draws_fresh_weights_deterministically(self):
        def run_once():
            net = build_network("identity", "dense", SeededRng(50))
            train(net, make_identity_dataset().train, TrainConfig(epochs=3, learning_rate=1e-9, max_restarts=2), SeededRng(50))
            return net.parametric_stages[0].weights.copy()

        w1 = run_once()
        w2 = run_once()
        assert np.array_equal(w1, w2)

    def test_restarts_change_weights_between_attempts(self):
        rng = SeededRng(4)
        net = build_network("identity", "dense", rng)
        first = net.parametric_stages[0].weights.copy()
        result = train(net, make_identity_dataset().train, TrainConfig(epochs=2, learning_rate=1e-9, max_restarts=3), rng)
        assert result.restarts == 3
        # final attempt started from a different draw than the first
        assert not np.array_equal(net.parametric_stages[0].weights, first)

    def test_restarts_require_rng(self):
        net = build_network("identity", "dense", SeededRng(0))
        with pytest.raises(ValueError):
            train(net, make_identity_dataset().train, TrainConfig(max_restarts=1))

    def test_empty_data_rejected(self):
        net = build_network("identity", "dense", SeededRng(0))
        with pytest.raises(ValueError):
            train(net, (np.zeros((0, 5)), np.zeros((0, 5))), TrainConfig())

    def test_one_update_per_epoch_on_summed_loss(self):
        ds = make_identity_dataset()
        net = build_network("identity", "dense", SeededRng(77))
        w0 = net.parametric_stages[0].weights.copy()
        b0 = net.parametric_stages[0].bias.copy()
        y, caches = net.forward_pass(ds.train.inputs)
        _, d_out = squared_error(y, ds.train.targets)
        g = net.backward_pass(caches, d_out)[0]
        want_w = w0 - 0.25 * g.d_weights
        want_b = b0 - 0.25 * g.d_bias
        net2 = build_network("identity", "dense", SeededRng(77))
        train(net2, ds.train, TrainConfig(epochs=1, learning_rate=0.25))
        assert np.array_equal(net2.parametric_stages[0].weights, want_w)
        assert np.array_equal(net2.parametric_stages[0].bias, want_b)

    def test_training_twice_from_same_seed_is_bitwise_identical(self):
        results = []
        for _ in range(2):
            rng = SeededRng(31)
            net = build_network("rule", "conv", rng)
            train(net, make_rule_dataset().train, TrainConfig(epochs=50, learning_rate=0.1), rng)
            results.append(net.parametric_stages[0].filters.copy())
        assert np.array_equal(results[0], results[1])

    def test_vanished_gradients_are_a_fixed_point(self):
        layer = DenseLayer([[2.0]], [1.0])
        net = Network([layer])
        inputs = np.array([[1.0]])
        targets = np.array([[3.0]])  # 2*1 + 1 = 3, already perfect
        y, caches = net.forward_pass(inputs)
        loss, d_out = squared_error(y, targets)
        assert loss == 0.0
        gd_step(net, net.backward_pass(caches, d_out), 1.0)
        assert abs(layer.weights[0, 0] - 2.0) <= 1e-12
        assert abs(layer.bias[0] - 1.0) <= 1e-12
