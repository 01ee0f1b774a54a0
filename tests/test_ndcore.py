"""Tensor primitives and the seeded random source."""

import numpy as np
import pytest

from symnet.ndcore import SeededRng, ShapeError, derive_seed, init_uniform, sigmoid, softmax, tensor


class TestTensor:
    def test_accepts_nested_lists_as_float64(self):
        arr = tensor([[1, 2], [3, 4]])
        assert arr.dtype == np.float64
        assert arr.shape == (2, 2)

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            tensor([1.0, float("nan")])
        with pytest.raises(ValueError):
            tensor([float("inf")])


class TestSigmoid:
    def test_midpoint(self):
        assert sigmoid(0.0) == 0.5

    def test_saturates_high(self):
        assert abs(sigmoid(50.0) - 1.0) <= 1e-12

    def test_known_value(self):
        # direct evaluation of 1/(1+e^-1)
        assert abs(sigmoid(1.0) - 0.7310585786300049) < 1e-15

    def test_bounded_and_monotone(self) -> None:
        xs = np.linspace(-30, 30, 301)
        ys = sigmoid(xs)
        assert np.all(ys > 0) and np.all(ys < 1)
        assert np.all(np.diff(ys) >= 0)

    def test_no_overflow_for_large_negative_inputs(self):
        with np.errstate(over="raise"):
            out = sigmoid(np.array([-800.0, 800.0]))
        assert out[0] == 0.0 or out[0] < 1e-300
        assert out[1] == 1.0


class TestSoftmax:
    def test_uniform_for_equal_logits(self):
        assert np.array_equal(softmax(np.zeros(2)), [0.5, 0.5])

    def test_closed_form_example(self):
        out = softmax(np.log([1.0, 3.0]))
        assert np.allclose(out, [0.25, 0.75], rtol=0, atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(-5, 5, 4)
            c = rng.uniform(-100, 100)
            assert np.allclose(softmax(x + c), softmax(x), rtol=0, atol=1e-12)

    def test_probability_vector_up_to_huge_magnitudes(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            x = rng.uniform(-1e3, 1e3, int(rng.integers(1, 6)))
            p = softmax(x)
            assert np.all(p >= 0)
            assert abs(float(np.sum(p)) - 1.0) <= 1e-12

    def test_empty_axis_rejected(self):
        with pytest.raises(ShapeError):
            softmax(np.zeros((0,)))

    def test_non_finite_logits_give_nan(self):
        # a row holding nan or +inf has no finite distribution; -inf under a finite max is a 0
        logits = np.array([[np.inf, 1.0], [np.inf, np.inf], [np.nan, 0.0], [-np.inf, 0.0]])
        with np.errstate(invalid="ignore"):
            out = softmax(logits)
        assert np.isnan(out[:3]).all()
        assert np.array_equal(out[3], [0.0, 1.0])


class TestSeededRng:
    def test_same_seed_same_stream(self):
        a = SeededRng(1234)
        b = SeededRng(1234)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]

    def test_stream_is_stable_across_sessions(self):
        # frozen regression values; a change here breaks every stored seed
        r = SeededRng(0)
        assert [r.next_u64() for _ in range(3)] == [
            11091344671253066420,
            13793997310169335082,
            1900383378846508768,
        ]

    def test_uniform_in_unit_interval(self):
        r = SeededRng(99)
        draws = [r.uniform() for _ in range(2000)]
        assert all(0.0 <= d < 1.0 for d in draws)
        # crude sanity: mean near 0.5
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_different_seeds_differ(self):
        xs = [SeededRng(s).next_u64() for s in range(64)]
        assert len(set(xs)) == len(xs)

    def test_negative_and_huge_seeds_accepted(self):
        assert SeededRng(-1).next_u64() != SeededRng(1).next_u64()
        SeededRng(2**80 + 5).next_u64()  # masked to 64 bits, no crash


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(0, "x", 1) == derive_seed(0, "x", 1)

    def test_each_part_matters(self):
        base = derive_seed(7, "conv", 3)
        assert derive_seed(8, "conv", 3) != base
        assert derive_seed(7, "dense", 3) != base
        assert derive_seed(7, "conv", 4) != base

    def test_part_order_matters(self):
        assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)

    def test_string_parts_are_content_sensitive(self):
        assert derive_seed(0, "ab") != derive_seed(0, "ba")
        assert derive_seed(0, "a", "b") != derive_seed(0, "ab")

    def test_result_fits_in_64_bits(self):
        for i in range(100):
            assert 0 <= derive_seed(i, "arch", i) < 2**64


class TestInitUniform:
    def test_same_seed_bitwise_identical(self):
        a = init_uniform(SeededRng(5), (4, 3))
        b = init_uniform(SeededRng(5), (4, 3))
        assert np.array_equal(a, b)

    def test_values_within_half_width(self):
        arr = init_uniform(SeededRng(1), (100,))
        assert np.all(arr >= -0.5) and np.all(arr <= 0.5)

    def test_distinct_seeds_differ_somewhere(self):
        a = init_uniform(SeededRng(1), (10, 10))
        b = init_uniform(SeededRng(2), (10, 10))
        assert not np.array_equal(a, b)

    def test_consumes_stream_row_major(self):
        r = SeededRng(42)
        arr = init_uniform(r, (2, 2))
        r2 = SeededRng(42)
        flat = [r2.uniform() * 1.0 - 0.5 for _ in range(4)]
        assert np.array_equal(arr.reshape(-1), flat)
