import gc
import weakref

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


class TestSegmentOps:
    def test_segment_max_is_the_max_pool_of_each_segment(self):
        x = _rng(12).normal(size=(7, 4))
        segments = np.array([0, 0, 0, 1, 2, 2, 2])
        out = _value(lambda xx: nm.segment_max(xx, nm.Segments([3, 1, 3])), x)
        expected = [ref_max_pool(x, segments == e) for e in range(3)]
        assert (out == np.array(expected)).all()

    def test_segment_max_routes_a_tie_to_the_first_row_of_its_segment(self):
        x = Parameter(np.array([[1.0], [2.0], [2.0], [2.0], [2.0]]))
        tape = Tape()
        out = nm.segment_max(tape.watch(x), nm.Segments([3, 2]))
        tape.backward(nm.weighted_sum(out, np.ones((2, 1))))
        assert (x.grad[:, 0] == [0.0, 1.0, 0.0, 1.0, 0.0]).all()

    def test_segment_max_rejects_a_plan_of_another_row_count(self):
        with pytest.raises(DimensionError, match="3 segment ids"):
            _value(lambda xx: nm.segment_max(xx, nm.Segments([2, 1])), np.zeros((2, 2)))

    def test_take_rows_sums_the_gradient_of_repeated_rows(self):
        x = Parameter(_rng(13).normal(size=(3, 2)))
        tape = Tape()
        out = nm.take_rows(tape.watch(x), [2, 0, 2])
        assert (out.value == x.value[[2, 0, 2]]).all()
        tape.backward(nm.weighted_sum(out, np.ones((3, 2))))
        assert (x.grad == [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]).all()

    @pytest.mark.parametrize("trailing", [(16,), (1, 8), (3,)])
    def test_plan_and_slice_gathers_sum_their_gradient_as_np_add_at(self, trailing):
        """A plan's or a slice's backward adds the same values in the same
        order as np.add.at, onto a gradient the node may already hold."""
        rng = _rng(14)
        for trial in range(20):
            counts = rng.integers(1, 12, size=int(rng.integers(1, 8)))
            ids = np.repeat(np.arange(counts.size), counts)
            lo = int(rng.integers(0, counts.size))
            for index, rows in ((nm.Segments(counts), ids),
                                (slice(lo, counts.size), np.arange(lo, counts.size))):
                x = Parameter(rng.normal(size=(counts.size, *trailing)))
                held = rng.normal(size=x.value.shape) * (trial % 2)
                g = rng.normal(size=(rows.size, *trailing)) * 10.0 ** rng.integers(-6, 6, rows.size)[
                    (slice(None),) + (None,) * len(trailing)]
                x.grad[...] = held
                tape = Tape()
                out = nm.take_rows(tape.watch(x), index)
                assert (out.value == x.value[rows]).all()
                tape.backward(nm.weighted_sum(out, g))
                expected = held.copy()
                np.add.at(expected, rows, g)
                assert x.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("rows, trailing", [(4, (16,)), (3, ()), (1, (64,)), (1, ()), (1, (1,))],
                             ids=["rows", "scalars", "one-row", "one-value", "one-value-2d"])
    def test_row_number_gathers_sum_their_gradient_as_np_add_at(self, rows, trailing):
        """Unsorted, repeated row numbers add in np.add.at's order too, also
        into an x of one value, where a reduce over ranks would sum pairwise."""
        rng = _rng(16)
        for trial in range(20):
            index = rng.integers(0, rows, size=int(rng.integers(1, 40)))
            x = Parameter(rng.normal(size=(rows, *trailing)))
            held = rng.normal(size=x.value.shape) * (trial % 2)
            g = rng.normal(size=(index.size, *trailing)) * 10.0 ** rng.integers(-6, 6, index.size)[
                (slice(None),) + (None,) * len(trailing)]
            x.grad[...] = held
            tape = Tape()
            out = nm.take_rows(tape.watch(x), index)
            assert (out.value == x.value[index]).all()
            tape.backward(nm.weighted_sum(out, g))
            expected = held.copy()
            np.add.at(expected, index, g)
            assert x.grad.tobytes() == expected.tobytes()


    @pytest.mark.parametrize("trailing", [(1, 16), (1, 1, 8), (1,)], ids=["row", "mode-axis", "one-value"])
    def test_a_one_segment_broadcast_sums_its_gradient_as_zero_row_numbers(self, trailing):
        """A (1,...) x gathered to k rows through `one_segment(k)` gives the
        bits of the gather by row numbers [0] * k, forward and backward."""
        rng = _rng(17)
        for k in (1, 2, 3, 6, 40):
            x = Parameter(rng.normal(size=trailing))
            g = rng.normal(size=(k, *trailing[1:])) * 10.0 ** rng.integers(-6, 6, k)[
                (slice(None),) + (None,) * (len(trailing) - 1)]
            held = rng.normal(size=trailing) * (k % 2)
            grads, values = [], []
            for index in (nm.one_segment(k), np.zeros(k, dtype=int)):
                x.grad[...] = held
                tape = Tape()
                out = nm.take_rows(tape.watch(x), index)
                tape.backward(nm.weighted_sum(out, g))
                values.append(out.value.tobytes())
                grads.append(x.grad.tobytes())
            assert values[0] == values[1] and grads[0] == grads[1]

    def test_one_segment_plans_are_shared_and_read_only(self):
        plan = nm.one_segment(5)
        assert plan is nm.one_segment(5) and plan.count == 1 and (plan.ids == 0).all()
        with pytest.raises(ValueError, match="read-only"):
            plan.ids[0] = 1


class TestSharedStandardization:
    def test_norms_of_one_standardized_x_equal_separate_layer_norms_bit_for_bit(self):
        rng = _rng(15)
        x = Parameter(rng.normal(size=(5, 6)) * 3.0)
        gammas = [Parameter(rng.normal(size=6)) for _ in range(2)]
        betas = [Parameter(rng.normal(size=6)) for _ in range(2)]
        weights = [rng.normal(size=(5, 6)) for _ in range(2)]
        grads, values = [], []
        for shared in (False, True):
            for p in (x, *gammas, *betas):
                p.zero_grad()
            tape = Tape()
            xn = tape.watch(x)
            z = nm.Standardized(xn, 1e-5)
            outs = [nm.affine_norm(z, tape.watch(gm), tape.watch(bt)) if shared
                    else nm.layer_norm(xn, tape.watch(gm), tape.watch(bt), 1e-5)
                    for gm, bt in zip(gammas, betas)]
            tape.backward(nm.add(*[nm.weighted_sum(o, w) for o, w in zip(outs, weights)]))
            values.append(b"".join(o.value.tobytes() for o in outs))
            grads.append(b"".join(p.grad.tobytes() for p in (x, *gammas, *betas)))
        assert values[0] == values[1] and grads[0] == grads[1]


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

    def test_dropping_the_tape_frees_the_graph_without_the_cycle_collector(self):
        gc.disable()
        try:
            tape = Tape()
            hidden = nm.scale(tape.constant(np.ones(3)), 2.0)
            probe = weakref.ref(hidden.value)
            tape.backward(nm.weighted_sum(hidden, np.ones(3)))
            del tape, hidden
            assert probe() is None
        finally:
            gc.enable()

    def test_an_op_on_a_node_of_a_dropped_tape_says_so(self):
        node = Tape().constant(np.ones(3))
        with pytest.raises(ReferenceError, match="tape of this node was dropped"):
            nm.scale(node, 2.0)

    def test_an_op_on_a_node_of_a_dropped_value_only_tape_gives_its_value(self):
        """Such an op builds no closure and records nothing, so it needs no tape."""
        node = Tape(record=False).constant(np.ones(3))
        assert (nm.scale(node, 2.0).value == 2.0).all()

    def test_a_probe_that_raises_leaves_the_input_unperturbed(self):
        x = Parameter(np.array([1.0, 2.0]))
        calls = []

        def fn(tape):
            calls.append(tape)
            if len(calls) > 1:
                raise RuntimeError("probe failed")
            return nm.weighted_sum(tape.watch(x), np.ones(2))

        with pytest.raises(RuntimeError, match="probe failed"):
            gradient_check(fn, [x])
        assert (x.value == [1.0, 2.0]).all()

    def test_probes_run_on_value_only_tapes(self):
        x = Parameter(np.array([1.0, 2.0]))
        tapes = []

        def fn(tape):
            tapes.append(tape)
            return nm.weighted_sum(nm.exp(tape.watch(x)), np.ones(2))

        gradient_check(fn, [x])
        assert [t.recording for t in tapes] == [True] + [False] * 4

    def test_the_probes_of_one_call_share_one_memo_and_the_recording_pass_has_none(self):
        x = Parameter(np.array([1.0, 2.0]))
        memos = []

        def fn(tape):
            memos.append(tape.memo)
            return nm.weighted_sum(nm.exp(tape.watch(x)), np.ones(2))

        gradient_check(fn, [x])
        gradient_check(fn, [x])
        first, second = memos[1], memos[6]
        assert memos[0] is None and memos[5] is None
        assert all(m is first for m in memos[1:5]) and all(m is second for m in memos[6:])
        assert first == {} and second is not first

    def test_a_memo_on_a_recording_tape_is_refused(self):
        with pytest.raises(ValueError, match="value-only tape"):
            Tape(memo={})
        assert Tape(record=False, memo={}).memo == {} and Tape().memo is None


class TestValueOnlyTape:
    def _all_ops(self, tape):
        """Every op once, on leaves of `tape`, reduced to a scalar."""
        rng = _rng(14)
        x = tape.constant(rng.normal(size=(5, 4)))
        y = tape.constant(rng.normal(size=(5, 4)))
        v = tape.constant(rng.normal(size=4))
        mask = np.array([True, False, True, True, True])
        z = nm.add(nm.mul(x, y), nm.maximum(nm.clamp(x, -0.5, 0.5), nm.scale(y, 0.3)))
        z = nm.activation(nm.activation(nm.exp(z), "gelu"), "relu")
        z = nm.layer_norm(z, v, v)
        w = nm.transpose(nm.reshape(nm.concat_last(z, nm.slice_last(z, 1, 3)), (6, 5)), (1, 0))
        attention = nm.masked_softmax_rows(nm.matmul(x, nm.transpose(y, (1, 0))), mask, mask)
        z = nm.slice_last(nm.matmul(attention, w), 0, 4)
        pooled = nm.segment_max(z, nm.Segments([2, 3]))
        s = nm.reshape(nm.concat_last(nm.masked_max_pool(x, mask), nm.pick(pooled, 1)), (2, 4))
        total = nm.logsumexp(nm.matmul(nm.pick(s, 0), nm.take_rows(y, [1, 0, 0, 2])))
        return nm.add(total, nm.weighted_sum(s, np.ones((2, 4))))

    def test_ops_record_nothing_and_give_the_recorded_values(self):
        value_only, recording = Tape(record=False), Tape()
        out = self._all_ops(value_only)
        assert value_only._steps == []
        assert out.value == self._all_ops(recording).value
        assert len(recording._steps) > 0

    def test_backward_on_a_value_only_tape_is_a_named_error(self):
        tape = Tape(record=False)
        out = nm.weighted_sum(tape.constant(np.ones(3)), np.ones(3))
        with pytest.raises(nm.NotRecordingError, match="value-only tape"):
            tape.backward(out)


class TestPrimitiveGradients:
    def test_all_primitives_within_1e4_on_20_seeded_instances(self):
        from golfer.gradcheck import primitive_checks

        results = primitive_checks()
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

    def test_a_slice_views_its_family_value_and_grad(self):
        family = Parameter(_rng(15).normal(size=(3, 2, 4)))
        weights = _rng(16).normal(size=(3, 2, 4))
        tape = Tape()
        tape.backward(nm.weighted_sum(tape.watch(family), weights))
        head = family[1]
        assert (head.grad == weights[1]).all()
        head.value[0, 0] = 7.0
        assert family.value[1, 0, 0] == 7.0
        head.zero_grad()
        assert (family.grad[1] == 0.0).all()
        assert (family.grad[[0, 2]] == weights[[0, 2]]).all()


class TestFirstTouchAccumulation:
    """A node's first gradient becomes its buffer; a shared one is copied."""

    @pytest.mark.parametrize("graph", ["add_self", "mul_self", "shared_operand"])
    def test_self_and_shared_operands_match_finite_differences(self, graph):
        x = Parameter(_rng(20).normal(size=(3, 4)))
        w = _rng(21).normal(size=(3, 4))

        def fn(tape):
            node = tape.watch(x)
            if graph == "add_self":
                out = nm.add(node, node)
            elif graph == "mul_self":
                out = nm.mul(node, node)
            else:  # h feeds both add operands and a later mul
                h = nm.exp(nm.scale(node, 0.5))
                out = nm.mul(nm.add(h, h), h)
            return nm.weighted_sum(out, w)

        assert gradient_check(fn, [x]) < 1e-7

    def test_no_two_live_non_leaf_nodes_share_a_grad_buffer(self):
        rng = _rng(22)
        x, v = Parameter(rng.normal(size=(4, 6))), Parameter(rng.normal(size=(6, 6)))
        tape = Tape()
        nodes = [nm.matmul(tape.watch(x), tape.watch(v))]
        nodes.append(nm.add(nodes[-1], nodes[-1]))
        nodes.append(nm.reshape(nodes[-1], (4, 2, 3)))
        nodes.append(nm.transpose(nodes[-1], (1, 0, 2)))
        nodes.append(nm.reshape(nodes[-1], (2, 12)))
        nodes.append(nm.concat_last(nodes[-1], nodes[-1]))
        nodes.append(nm.slice_last(nodes[-1], 3, 20))
        nodes.append(nm.add(nodes[-1], nm.scale(nodes[-1], 2.0)))
        nodes.append(nm.take_rows(nodes[-1], [1, 0, 1]))
        nodes.append(nm.gelu(nodes[-1]))
        tape.backward(nm.weighted_sum(nodes[-1], rng.normal(size=(3, 17))))
        grads = [node._grad for node in nodes]
        assert all(g is not None and g.flags.c_contiguous for g in grads)
        for i, a in enumerate(grads):
            for b in grads[i + 1:]:
                assert not np.shares_memory(a, b)

    def test_a_dead_branch_gets_no_grad_buffer(self):
        x = Parameter(_rng(23).normal(size=5))
        tape = Tape()
        node = tape.watch(x)
        live = nm.exp(node)
        dead = nm.scale(node, 3.0)
        dead_end = nm.mul(dead, live)  # consumed by nothing
        tape.backward(nm.weighted_sum(live, np.ones(5)))
        assert dead._grad is None and dead_end._grad is None
        np.testing.assert_array_equal(x.grad, np.exp(x.value))
        assert (dead.grad == 0.0).all()  # reading it gives zeros
