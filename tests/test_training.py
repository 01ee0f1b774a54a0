"""Losses, the network container, gradient descent, restarts, evaluation."""

import math

import numpy as np
import pytest

from _helpers import fd_grad, max_rel_err, parameter_count
from symnet.layers import Conv1DLayer, DenseGradients, DenseLayer, GlobalMaxPool, PoolGradient, Sigmoid, Softmax, Stage, Transpose
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
from symnet.harness import ExperimentSpec, build_network, resolved_train_config


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
        assert parameter_count(build_network("identity", "dense", SeededRng(0))) == 30
        assert parameter_count(build_network("identity", "conv", SeededRng(0))) == 6
        assert parameter_count(build_network("rule", "conv", SeededRng(0))) == 8
        assert parameter_count(build_network("rule", "dense", SeededRng(0))) == 36 * 24 + 24

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

    @pytest.mark.parametrize("members", [None, 3])
    @pytest.mark.parametrize("experiment,architecture", [
        ("identity", "dense"), ("identity", "conv"), ("rule", "dense"), ("rule", "conv"),
    ])
    def test_backward_pass_stops_at_the_first_parametric_stage(self, experiment, architecture, members):
        # the records equal each parametric stage's own backward(x, up), bit
        # for bit, but carry no input gradient; a stage in front of the first
        # parametric stage is never backpropagated
        class Tripwire(Stage):
            def forward(self, x):
                return x

            def backprop(self, cache, upstream):
                raise AssertionError("backprop ran in front of the first parametric stage")

        seeds = [derive_seed(5, experiment, architecture, r) for r in range(members or 1)]
        nets = [build_network(experiment, architecture, SeededRng(seed)) for seed in seeds]
        net = nets[0] if members is None else Network.stack(nets)
        data = (make_identity_dataset() if experiment == "identity" else make_rule_dataset()).train
        outputs, caches = net.forward_pass(data.inputs)
        d_out = LOSSES[net.loss](outputs, data.targets)[1]
        guarded = Network((Tripwire(),) + net.stages, net.loss)
        records = guarded.backward_pass([None] + caches, d_out)
        assert len(records) == len(net.parametric_stages)

        parametric = [i for i, stage in enumerate(net.stages) if stage.params]
        for index, record in zip(parametric, records):
            stage = net.stages[index]
            x = data.inputs
            for below in net.stages[:index]:
                x = below.step(x)[0]
            up = d_out
            for above, cache in zip(reversed(net.stages[index + 1:]), reversed(caches[index + 1:])):
                up = above.backprop(cache, up)[0]
            want = stage.backward(x, up)
            for name in stage.params:
                assert np.array_equal(getattr(record, f"d_{name}"), getattr(want, f"d_{name}")), name
            assert (record.d_input is None) == (index == parametric[0])
            assert want.d_input is not None

    @pytest.mark.parametrize("members", [None, 3])
    @pytest.mark.parametrize("architecture", ["dense", "conv"])
    def test_rule_nets_train_on_the_routed_max_pool_gradient(self, architecture, members, monkeypatch):
        # max pooling hands down a routed PoolGradient.  rule/conv gathers
        # from it and never asks for the dense array; rule/dense reads the
        # dense array once per epoch.  Both train bit for bit as they do when
        # max pooling hands down GlobalMaxPool.backward's dense gradient
        data = make_rule_dataset().train
        config = TrainConfig(epochs=40, learning_rate=0.1, max_restarts=0)

        def trained():
            nets = [build_network("rule", architecture, SeededRng(derive_seed(9, architecture, r))) for r in range(members or 1)]
            net = nets[0] if members is None else Network.stack(nets)
            results = train(net, data, config)
            return net, results if members else [results]

        reads = []
        densify = PoolGradient.__array__

        def tripwire(self, dtype=None, copy=None):
            if architecture == "conv":
                raise AssertionError("rule/conv materialised the dense max-pool gradient")
            reads.append(self.values.shape)
            return densify(self, dtype, copy)

        with monkeypatch.context() as patch:
            patch.setattr(PoolGradient, "__array__", tripwire)
            routed, routed_results = trained()
        assert len(reads) == (config.epochs if architecture == "dense" else 0)
        with monkeypatch.context() as patch:
            patch.setattr(GlobalMaxPool, "backprop", lambda self, cache, up: (self.backward(cache[0], up, cache[1]), None))
            dense, dense_results = trained()
        assert _same_parameters(routed, dense)
        assert [r.losses for r in routed_results] == [r.losses for r in dense_results]

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
    def test_rate_and_restart_budget_have_no_default(self):
        # each experiment's values live in the harness, not here
        with pytest.raises(TypeError, match="learning_rate.*max_restarts"):
            TrainConfig(epochs=300)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, learning_rate=1.0, max_restarts=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0, max_restarts=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=1.0, max_restarts=-1)
        for rate in (math.inf, math.nan):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate, max_restarts=0)

    @pytest.mark.parametrize("field,value", [("epochs", 2.5), ("epochs", "300"), ("max_restarts", 1.5), ("max_restarts", np.float64(2.0))])
    def test_non_integer_counts_are_rejected_naming_the_field(self, field, value):
        # a float count would otherwise build and fail deep inside training
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{"learning_rate": 1.0, "max_restarts": 0, field: value})


class TestTrain:
    def test_conv_identity_run_reaches_full_training_accuracy(self):
        ds = make_identity_dataset()
        net = build_network("identity", "conv", SeededRng(123))
        result = train(net, ds.train, TrainConfig(epochs=1000, learning_rate=1.0, max_restarts=0))
        assert result.reached_criterion
        assert result.restarts == 0
        assert evaluate(net, ds.train) == 1.0
        assert result.losses[-1] < result.losses[0]

    def test_perfect_initialisation_needs_no_restarts(self):
        ds = make_identity_dataset()
        # identity conv solution: strong centre weight, negative bias
        layer = Conv1DLayer([[[0.0, 0.0, 20.0, 0.0, 0.0]]], [-10.0], padding="zero_same")
        built = build_network("identity", "conv", SeededRng(0))
        # a network's stages are fixed at construction, so the layer goes into a new one
        net = Network((built.stages[0], layer) + built.stages[2:], built.loss)
        assert evaluate(net, ds.train) == 1.0
        result = train(net, ds.train, TrainConfig(epochs=5, learning_rate=0.1, max_restarts=0), SeededRng(1))
        assert result.restarts == 0
        assert result.reached_criterion
        assert evaluate(net, ds.train) == 1.0

    def test_unlearnable_config_reports_failure_after_full_budget(self):
        ds = make_identity_dataset()
        net = build_network("identity", "dense", SeededRng(9))
        result = train(net, ds.train, TrainConfig(epochs=40, learning_rate=1e-9, max_restarts=0))
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

    @pytest.mark.parametrize("experiment,architecture", [("identity", "conv"), ("rule", "conv"), ("rule", "dense")])
    def test_prefix_and_prepare_run_per_train_call_not_per_epoch(self, experiment, architecture, monkeypatch):
        # every epoch sees the same input, so the parameter-free stages in
        # front of the first parametric stage and that stage's prepare run
        # once per train call; evaluate's full forward pass adds one prefix
        # call per attempt (and a conv prepares its raw input there), and no
        # epoch adds any
        rngs = [SeededRng(derive_seed(83, experiment, architecture, r)) for r in range(3)]
        net = Network.stack([build_network(experiment, architecture, rng) for rng in rngs])
        prefix, first = net.stages[0], net.parametric_stages[0]
        counts = {"prefix": 0, "prepare": 0}

        def counting(key, method):
            def counted(self, x):
                counts[key] += key == "prepare" or self is prefix
                return method(self, x)
            return counted

        monkeypatch.setattr(type(prefix), "forward", counting("prefix", type(prefix).forward))
        monkeypatch.setattr(type(first), "prepare", counting("prepare", type(first).prepare))
        data = (make_identity_dataset() if experiment == "identity" else make_rule_dataset()).train
        # at a rate this small some member misses the criterion on every attempt
        results = train(net, data, TrainConfig(epochs=40, learning_rate=1e-9, max_restarts=2), rngs)
        attempts = 1 + max(result.restarts for result in results)
        assert attempts == 3
        assert counts == {"prefix": 1 + attempts, "prepare": 1 + attempts * (architecture == "conv")}

    def test_restarts_require_rng(self):
        net = build_network("identity", "dense", SeededRng(0))
        with pytest.raises(ValueError):
            train(net, make_identity_dataset().train, TrainConfig(learning_rate=1.0, max_restarts=1))

    def test_empty_data_rejected(self):
        net = build_network("identity", "dense", SeededRng(0))
        with pytest.raises(ValueError):
            train(net, (np.zeros((0, 5)), np.zeros((0, 5))), TrainConfig(learning_rate=1.0, max_restarts=0))

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
        train(net2, ds.train, TrainConfig(epochs=1, learning_rate=0.25, max_restarts=0))
        assert np.array_equal(net2.parametric_stages[0].weights, want_w)
        assert np.array_equal(net2.parametric_stages[0].bias, want_b)

    def test_training_twice_from_same_seed_is_bitwise_identical(self):
        results = []
        for _ in range(2):
            rng = SeededRng(31)
            net = build_network("rule", "conv", rng)
            train(net, make_rule_dataset().train, TrainConfig(epochs=50, learning_rate=0.1, max_restarts=0), rng)
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


def _same_parameters(a: Network, b: Network) -> bool:
    return all(
        np.array_equal(getattr(x, name), getattr(y, name))
        for x, y in zip(a.parametric_stages, b.parametric_stages)
        for name in x.params
    )


class TestEnsemble:
    @pytest.mark.parametrize("experiment,architecture", [
        ("identity", "dense"), ("identity", "conv"), ("rule", "dense"), ("rule", "conv"),
    ])
    def test_ensemble_matches_independent_runs_bit_for_bit(self, experiment, architecture):
        # master seed 0, runs 0-4 at the experiment defaults; rule/conv run 1
        # restarts twice, so its later attempts train a one-member sub-ensemble
        config = resolved_train_config(ExperimentSpec(experiment))
        data = (make_identity_dataset() if experiment == "identity" else make_rule_dataset()).train
        seeds = [derive_seed(0, f"{experiment}_{architecture}", i) for i in range(5)]
        rngs = [SeededRng(seed) for seed in seeds]
        ensemble = Network.stack([build_network(experiment, architecture, rng) for rng in rngs])
        results = train(ensemble, data, config, rngs)
        if (experiment, architecture) == ("rule", "conv"):
            assert [r.restarts for r in results] == [0, 2, 0, 0, 0]
        for member, (seed, together) in enumerate(zip(seeds, results)):
            rng = SeededRng(seed)
            alone = build_network(experiment, architecture, rng)
            result = train(alone, data, config, rng)
            assert result.restarts == together.restarts
            assert result.reached_criterion == together.reached_criterion
            assert result.final_loss == together.final_loss
            assert result.losses == together.losses
            assert _same_parameters(alone, ensemble.select(member))

    def test_plain_network_trains_as_one_member_ensemble(self):
        ds = make_identity_dataset()
        config = TrainConfig(epochs=50, learning_rate=1.0, max_restarts=0)
        plain = build_network("identity", "conv", SeededRng(8))
        ensemble = Network.stack([build_network("identity", "conv", SeededRng(8))])
        result = train(plain, ds.train, config)
        (member,) = train(ensemble, ds.train, config)
        assert plain.runs is None and ensemble.runs == 1
        assert result.losses == member.losses
        assert _same_parameters(plain, ensemble.select(0))
        assert evaluate(ensemble, ds.train).tolist() == [evaluate(plain, ds.train)]

    @pytest.mark.parametrize("max_restarts", [0, 1])
    def test_diverged_member_stops_while_the_others_train(self, max_restarts):
        rng = np.random.default_rng(5)
        inputs = rng.uniform(-1, 1, (4, 3))
        targets = rng.uniform(-1, 1, (4, 2))
        weights = [rng.uniform(-0.5, 0.5, (2, 3)) for _ in range(3)]
        weights[1] = np.full((2, 3), 1e200)  # its squared error overflows at the first epoch
        nets = [Network([DenseLayer(w, np.zeros(2))]) for w in weights]
        ensemble = Network.stack(nets)
        config = TrainConfig(epochs=5, learning_rate=0.1, max_restarts=max_restarts)
        with np.errstate(over="ignore", invalid="ignore"):
            results = train(ensemble, (inputs, targets), config, [SeededRng(r) for r in range(3)])
            alone = [train(net, (inputs, targets), config, SeededRng(r)) for r, net in enumerate(nets)]
        if max_restarts == 0:
            # frozen with the weights that overflowed, its one loss on record
            assert results[1].losses == [math.inf] and results[1].final_loss == math.inf
            assert not results[1].reached_criterion
            assert np.array_equal(ensemble.select(1).stages[0].weights, weights[1])
        else:
            assert results[1].restarts == 1 and len(results[1].losses) == 5
        for member, result in enumerate(alone):
            assert result.losses == results[member].losses
            assert result.restarts == results[member].restarts
            assert _same_parameters(nets[member], ensemble.select(member))

    def test_member_diverging_after_an_update_keeps_its_last_finite_weights(self):
        # member 1's loss is finite at epoch 1 and overflows at epoch 2, so it
        # is frozen with the weights of one update while the others train on
        rng = np.random.default_rng(7)
        inputs = rng.uniform(-1, 1, (4, 3))
        targets = rng.uniform(-1, 1, (4, 2))
        firsts = [rng.uniform(-0.5, 0.5, (4, 3)) for _ in range(3)]
        seconds = [rng.uniform(-0.5, 0.5, (2, 4)) for _ in range(3)]
        firsts[1] = np.full((4, 3), 1e100)

        def net(member):
            return Network([DenseLayer(firsts[member], np.zeros(4)), DenseLayer(seconds[member], np.zeros(2))])

        config = TrainConfig(epochs=5, learning_rate=0.1, max_restarts=0)
        ensemble = Network.stack([net(member) for member in range(3)])
        with np.errstate(over="ignore", invalid="ignore"):
            results = train(ensemble, (inputs, targets), config)
            once = net(1)
            first = train(once, (inputs, targets), TrainConfig(epochs=1, learning_rate=0.1, max_restarts=0))
        assert len(results[1].losses) == 2
        assert results[1].losses[0] == first.losses[0] and math.isfinite(first.losses[0])
        assert results[1].losses[1] == math.inf and results[1].final_loss == math.inf
        assert not results[1].reached_criterion
        assert _same_parameters(ensemble.select(1), once)
        for member in (0, 2):
            alone = net(member)
            result = train(alone, (inputs, targets), config)
            assert result.losses == results[member].losses and len(result.losses) == 5
            assert result.final_loss == results[member].final_loss
            assert _same_parameters(alone, ensemble.select(member))

    def test_ensemble_losses_are_per_run_sums(self):
        rng = np.random.default_rng(23)
        preds = rng.uniform(0, 1, (3, 4, 5))
        targets = rng.uniform(0, 1, (4, 5))
        losses, grad = squared_error(preds, targets)
        assert losses.tolist() == [squared_error(p, targets)[0] for p in preds]
        assert np.array_equal(grad, np.stack([squared_error(p, targets)[1] for p in preds]))
        probs = softmax(preds)
        assert cross_entropy(probs, targets)[0].tolist() == [cross_entropy(p, targets)[0] for p in probs]

    def test_select_and_put_round_trip(self):
        nets = [build_network("rule", "dense", SeededRng(seed)) for seed in range(4)]
        ensemble = Network.stack(nets)
        assert ensemble.runs == 4
        assert parameter_count(ensemble) == 4 * parameter_count(nets[0])
        assert _same_parameters(ensemble.select(2), nets[2])
        picked = ensemble.select(np.array([3, 0]))
        assert picked.runs == 2 and _same_parameters(picked.select(0), nets[3])
        members = [picked.select(0), picked.select(1)]
        for member, seed in zip(members, (10, 11)):
            member.reinitialize(SeededRng(seed))
        ensemble.put(np.array([3, 0]), Network.stack(members))
        redrawn = build_network("rule", "dense", SeededRng(0))
        redrawn.reinitialize(SeededRng(11))
        assert _same_parameters(ensemble.select(0), redrawn)
        assert _same_parameters(ensemble.select(1), nets[1])
        redrawn.reinitialize(SeededRng(10))
        assert _same_parameters(ensemble.select(3), redrawn)

    def test_reinitialize_refuses_an_ensemble(self):
        # drawn from one stream, the members would quietly share one sequence of draws
        ensemble = Network.stack([build_network("rule", "conv", SeededRng(seed)) for seed in range(2)])
        before = ensemble.parametric_stages[0].filters.copy()
        with pytest.raises(ValueError, match="run axis"):
            ensemble.reinitialize(SeededRng(0))
        assert np.array_equal(ensemble.parametric_stages[0].filters, before)

    @pytest.mark.parametrize("architecture", ["dense", "conv"])
    def test_rule_member_whose_logits_overflow_is_frozen(self, architecture):
        # member 1's logits overflow to inf at the first epoch and softmax
        # turns them into nan: it is frozen, or redrawn when restarts allow
        data = make_rule_dataset().train

        def nets():
            members = [build_network("rule", architecture, SeededRng(seed)) for seed in range(3)]
            stage = members[1].parametric_stages[0]
            name = stage.params[0]
            setattr(stage, name, np.full(getattr(stage, name).shape, 1e308))
            return members

        for max_restarts in (0, 1):
            config = TrainConfig(epochs=30, learning_rate=0.1, max_restarts=max_restarts)
            members = nets()
            ensemble = Network.stack(members)
            with np.errstate(over="ignore", invalid="ignore"):
                results = train(ensemble, data, config, [SeededRng(10 + r) for r in range(3)])
                alone = [train(net, data, config, SeededRng(10 + r)) for r, net in enumerate(members)]
                predictions = ensemble.predict(data.inputs)
                solo_predictions = members[1].predict(data.inputs)
            if max_restarts == 0:
                assert len(results[1].losses) == 1 and math.isnan(results[1].final_loss)
                assert not results[1].reached_criterion
                assert np.isnan(predictions[1]).all() and np.isnan(solo_predictions).all()
                assert _same_parameters(ensemble.select(1), nets()[1])
                compared = (0, 2)
            else:
                assert results[1].restarts == 1 and len(results[1].losses) == 30
                assert np.isfinite(predictions).all()
                compared = (0, 1, 2)
            for member in compared:
                assert alone[member].losses == results[member].losses
                assert alone[member].restarts == results[member].restarts
                assert alone[member].final_loss == results[member].final_loss
                assert _same_parameters(members[member], ensemble.select(member))

    def test_restarts_need_an_rng_per_run(self):
        ensemble = Network.stack([build_network("identity", "dense", SeededRng(s)) for s in range(2)])
        data = make_identity_dataset().train
        with pytest.raises(ValueError):
            train(ensemble, data, TrainConfig(learning_rate=1.0, max_restarts=1), [SeededRng(0), None])
        with pytest.raises(ValueError):
            train(ensemble, data, TrainConfig(epochs=1, learning_rate=1.0, max_restarts=0), [SeededRng(0)])
