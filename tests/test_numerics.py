import numpy as np
import pytest

import golfer.numerics as nm
from golfer.numerics import DimensionError, EmptySetError, Parameter, Tape, gradient_check

from oracles import ref_attention_rows, ref_layer_norm, ref_max_pool

# Frozen high-precision values (independently computed from the definitions).
GELU_AT_ONE = 0.8413447460685429  # 1 * Phi(1)
SOFTMAX_123 = np.array([0.09003057317038046, 0.24472847105479767, 0.6652409557748219])


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _value(op, *arrays):
    tape = Tape()
    return op(*[tape.constant(a) for a in arrays]).value


class TestMatmul:
    def test_identity_is_exact(self):
        b = _rng(0).normal(size=(2, 5))
        out = _value(nm.matmul, np.eye(2), b)
        assert (out == b).all()

    def test_small_product(self):
        out = _value(nm.matmul, np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out == np.array([[11.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\) x \(2, 3\)"):
            _value(nm.matmul, np.zeros((2, 3)), np.zeros((2, 3)))

    def test_backward_matches_finite_differences(self):
        rng = _rng(1)
        a = Parameter(rng.normal(size=(3, 4)))
        b = Parameter(rng.normal(size=(4, 2)))
        w = rng.normal(size=(3, 2))

        def fn(tape):
            return nm.weighted_sum(nm.matmul(tape.watch(a), tape.watch(b)), w)

        assert gradient_check(fn, [a, b]) < 1e-6


class TestLayerNorm:
    def test_constant_row_collapses_to_beta(self):
        tape = Tape()
        out = nm.layer_norm(tape.constant([[1.0, 1.0, 1.0]]), tape.constant(np.ones(3)),
                            tape.constant(np.zeros(3)), epsilon=1e-5)
        np.testing.assert_allclose(out.value, 0.0, atol=1e-6)

    def test_already_standardized_row(self):
        tape = Tape()
        out = nm.layer_norm(tape.constant([[-1.0, 1.0]]), tape.constant(np.ones(2)),
                            tape.constant(np.zeros(2)), epsilon=1e-12)
        np.testing.assert_allclose(out.value, [[-1.0, 1.0]], atol=1e-6)

    def test_matches_reference(self):
        rng = _rng(2)
        x, g, b = rng.normal(size=(4, 8)), rng.normal(size=8), rng.normal(size=8)
        tape = Tape()
        out = nm.layer_norm(tape.constant(x), tape.constant(g), tape.constant(b))
        np.testing.assert_allclose(out.value, ref_layer_norm(x, g, b), atol=1e-12)

    def test_backward_matches_finite_differences(self):
        rng = _rng(3)
        x = Parameter(rng.normal(size=(4, 8)))
        gamma = Parameter(rng.normal(size=8))
        beta = Parameter(rng.normal(size=8))
        w = rng.normal(size=(4, 8))

        def fn(tape):
            return nm.weighted_sum(
                nm.layer_norm(tape.watch(x), tape.watch(gamma), tape.watch(beta)), w
            )

        assert gradient_check(fn, [x, gamma, beta]) < 1e-5


class TestActivation:
    def test_relu_sign_split(self):
        out = _value(lambda x: nm.activation(x, "relu"), np.array([-2.0, 3.0]))
        assert (out == [0.0, 3.0]).all()

    def test_gelu_odd_at_zero(self):
        assert _value(nm.gelu, np.array([0.0]))[0] == 0.0

    def test_gelu_at_one(self):
        out = _value(nm.gelu, np.array([1.0]))
        assert abs(out[0] - GELU_AT_ONE) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="tanh"):
            _value(lambda x: nm.activation(x, "tanh"), np.zeros(2))


class TestMaskedSoftmax:
    """`masked_softmax_rows`, the attention weights over valid keys."""

    @staticmethod
    def _rows(scores, key_mask, query_mask=None):
        query_mask = np.ones(len(key_mask), dtype=bool) if query_mask is None else query_mask
        return _value(lambda s: nm.masked_softmax_rows(s, key_mask, query_mask), scores)

    def test_symmetry(self):
        out = self._rows(np.zeros((2, 2)), [True, True])
        np.testing.assert_allclose(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_single_valid_entry(self):
        out = self._rows(np.array([[10.0, 0.0], [0.0, 10.0]]), [True, False])
        assert (out == [[1.0, 0.0], [1.0, 0.0]]).all()

    def test_frozen_values(self):
        out = self._rows(np.tile([1.0, 2.0, 3.0], (3, 1)), [True] * 3)
        np.testing.assert_allclose(out, np.tile(SOFTMAX_123, (3, 1)), atol=1e-6)

    def test_all_invalid_is_an_error(self):
        with pytest.raises(EmptySetError):
            self._rows(np.zeros((2, 2)), [False, False])

    def test_probability_vector_over_valid_entries(self):
        for seed in range(20):
            rng = _rng(seed)
            scores = rng.normal(size=(9, 9)) * 4
            key_mask, query_mask = rng.random(9) < 0.6, rng.random(9) < 0.6
            key_mask[0] = True
            out = self._rows(scores, key_mask, query_mask)
            assert (out >= 0).all()
            assert (out[:, ~key_mask] == 0.0).all()
            assert (out[~query_mask] == 0.0).all()
            assert np.abs(out[query_mask].sum(axis=1) - 1.0).max() < 1e-12
            np.testing.assert_allclose(out, ref_attention_rows(scores, key_mask, query_mask),
                                       atol=1e-15)

    def test_bitwise_invariant_to_invalid_entries(self):
        rng = _rng(7)
        scores = rng.normal(size=(6, 6))
        mask = np.array([True, False, True, True, False, True])
        base = self._rows(scores, mask)
        again_scores = scores.copy()
        again_scores[:, ~mask] = rng.normal(size=(6, 2)) * 1e6
        again = self._rows(again_scores, mask)
        assert (base == again).all()


class TestMaskedMaxPool:
    def test_valid_rows_only(self):
        x = np.array([[1.0, 5.0], [3.0, 2.0], [7.0, 0.0]])
        out = _value(lambda xx: nm.masked_max_pool(xx, [True, False, True]), x)
        assert (out == [7.0, 5.0]).all()

    def test_single_row_identity(self):
        out = _value(lambda xx: nm.masked_max_pool(xx, [True]), np.array([[2.0, 2.0]]))
        assert (out == [2.0, 2.0]).all()

    def test_all_invalid_is_an_error(self):
        with pytest.raises(EmptySetError):
            _value(lambda xx: nm.masked_max_pool(xx, [False]), np.zeros((1, 2)))

    def test_bitwise_invariant_to_invalid_rows(self):
        rng = _rng(8)
        x = rng.normal(size=(5, 4))
        mask = np.array([True, False, True, True, False])
        base = _value(lambda xx: nm.masked_max_pool(xx, mask), x)
        x2 = x.copy()
        x2[~mask] = rng.normal(size=(2, 4)) * 1e9
        again = _value(lambda xx: nm.masked_max_pool(xx, mask), x2)
        assert (base == again).all()

    def test_matches_reference(self):
        rng = _rng(9)
        x = rng.normal(size=(6, 5))
        mask = np.array([True, True, False, True, False, True])
        out = _value(lambda xx: nm.masked_max_pool(xx, mask), x)
        np.testing.assert_allclose(out, ref_max_pool(x, mask), atol=0)

    def test_backward_matches_finite_differences(self):
        rng = _rng(10)
        x = Parameter(rng.normal(size=(5, 6)))
        mask = np.array([True, True, False, True, False])
        w = rng.normal(size=6)

        def fn(tape):
            return nm.weighted_sum(nm.masked_max_pool(tape.watch(x), mask), w)

        assert gradient_check(fn, [x]) < 1e-6


class TestGradientCheck:
    def test_linear_map_is_nearly_exact(self):
        rng = _rng(11)
        a = rng.normal(size=(5, 4))
        x = Parameter(rng.normal(size=(4, 3)))
        w = rng.normal(size=(5, 3))

        def fn(tape):
            return nm.weighted_sum(nm.matmul(tape.constant(a), tape.watch(x)), w)

        assert gradient_check(fn, [x]) < 1e-8

    def test_non_finite_intermediate_raises(self):
        x = Parameter(np.array([800.0]))

        def fn(tape):
            return nm.weighted_sum(nm.exp(tape.watch(x)), np.ones(1))

        with np.errstate(over="ignore"), pytest.raises(nm.NumericError):
            gradient_check(fn, [x])

    def test_backward_requires_scalar_root(self):
        tape = Tape()
        out = nm.scale(tape.constant(np.zeros(3)), 2.0)
        with pytest.raises(DimensionError):
            tape.backward(out)


class TestPrimitiveGradients:
    def test_all_primitives_within_1e4_on_20_seeded_instances(self):
        from golfer.gradcheck import run_gradient_suite

        results = run_gradient_suite(primitive_instances=20, block_instances=0,
                                     include_model=False)
        failures = [r.name for r in results if not r.passed]
        assert not failures, f"primitive gradient failures: {failures}"


class TestParameter:
    def test_zero_grad_resets(self):
        p = Parameter(np.ones((2, 2)))
        p.grad += 3.0
        p.zero_grad()
        assert (p.grad == 0).all()

    def test_watch_accumulates_into_parameter_grad(self):
        p = Parameter(np.ones(3))
        tape = Tape()
        out = nm.weighted_sum(nm.scale(tape.watch(p), 2.0), np.ones(3))
        tape.backward(out)
        assert (p.grad == 2.0).all()
