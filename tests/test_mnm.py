import hashlib
import itertools
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import golfer.numerics as nm
from golfer.mnm import (
    MatchKind,
    attention_mix,
    init_mnm_block,
    match,
    mnm_basic,
    mnm_query,
)
from golfer.numerics import Tape

from oracles import (
    ref_attention_rows,
    ref_layer_norm,
    ref_max_pool,
    ref_mnm_basic,
    ref_mnm_query,
    ref_prenorm_transformer_layer,
)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _block(seed, d=8, heads=1, d_ff=16, match_kind=MatchKind.CONCAT, query=False, **kw):
    return init_mnm_block(_rng(seed), d, heads, d_ff, match_kind, query_variant=query, **kw)


def _zero(*params):
    for p in params:
        p.value[...] = 0.0


class TestMix:
    def test_max_pool(self):
        tape = Tape()
        x = tape.constant([[1.0, 5.0], [3.0, 2.0], [7.0, 0.0]])
        out = nm.masked_max_pool(x, [True, False, True])
        assert (out.value == [7.0, 5.0]).all()

    def test_attention_equal_rows_is_uniform(self):
        tape = Tape()
        x = tape.constant(np.tile(_rng(0).normal(size=4), (5, 1)))
        out = attention_mix(x, [True] * 5)
        np.testing.assert_allclose(out.value, 1.0 / 5.0, atol=1e-12)

    def test_attention_matches_direct_softmax(self):
        x = _rng(1).normal(size=(4, 4))
        tape = Tape()
        out = attention_mix(tape.constant(x), [True] * 4)
        expected = ref_attention_rows(x @ x.T / math.sqrt(4), [True] * 4, [True] * 4)
        np.testing.assert_allclose(out.value, expected, atol=1e-12)

    def test_invalid_query_rows_are_zero(self):
        x = _rng(2).normal(size=(4, 4))
        mask = [True, False, True, True]
        tape = Tape()
        out = attention_mix(tape.constant(x), mask)
        assert (out.value[1] == 0.0).all()
        assert (out.value[:, 1] == 0.0).all()


class TestMatch:
    def test_concat_projection_can_discard_the_query(self):
        rng = _rng(3)
        x, c = rng.normal(size=(4, 3)), rng.normal(size=3)
        wm = np.vstack([np.eye(3), np.zeros((3, 3))])
        tape = Tape()
        out = match(MatchKind.CONCAT, tape.constant(np.tile(c, (4, 1))), tape.constant(x),
                    tape.constant(wm))
        np.testing.assert_allclose(out.value, x, atol=1e-15)

    def test_product_with_ones_is_identity(self):
        x = _rng(4).normal(size=(4, 3))
        tape = Tape()
        out = match(MatchKind.PRODUCT, tape.constant(np.ones((4, 3))), tape.constant(x))
        assert (out.value == x).all()

    def test_attention_matmul_with_identity_matrix(self):
        x = _rng(5).normal(size=(4, 3))
        tape = Tape()
        out = match(MatchKind.ATTENTION_MATMUL, tape.constant(np.eye(4)), tape.constant(x))
        np.testing.assert_allclose(out.value, x, atol=1e-15)


class TestBasicBlock:
    def test_zero_weights_give_exact_identity(self):
        for heads in (1, 2):
            block = _block(6, heads=heads)
            _zero(block.w2, block.wm)
            x = _rng(7).normal(size=(5, 8))
            tape = Tape()
            out = mnm_basic(tape, tape.constant(x), np.ones(5, dtype=bool), block)
            assert (out.value == x).all()

    def test_single_token_matches_chained_oracle(self):
        block = _block(8)
        x = _rng(9).normal(size=(1, 8))
        mask = np.ones(1, dtype=bool)
        tape = Tape()
        out = mnm_basic(tape, tape.constant(x), mask, block)
        np.testing.assert_allclose(out.value, ref_mnm_basic(block, x, mask), atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("match_kind", [MatchKind.CONCAT, MatchKind.PRODUCT])
    def test_pool_blocks_match_dense_oracle(self, heads, match_kind):
        for seed in range(5):
            block = _block(seed, heads=heads, match_kind=match_kind,
                           proj=(match_kind is MatchKind.PRODUCT))
            x = _rng(seed + 100).normal(size=(6, 8))
            mask = np.array([True, True, False, True, True, False])
            tape = Tape()
            out = mnm_basic(tape, tape.constant(x), mask, block)
            expected = ref_mnm_basic(block, x, mask)
            np.testing.assert_allclose(out.value[mask], expected[mask], atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_block_matches_dense_oracle(self, heads):
        for seed in range(5):
            block = _block(seed, heads=heads, match_kind=MatchKind.ATTENTION_MATMUL)
            x = _rng(seed + 200).normal(size=(6, 8))
            mask = np.array([True, False, True, True, True, True])
            tape = Tape()
            out = mnm_basic(tape, tape.constant(x), mask, block)
            expected = ref_mnm_basic(block, x, mask)
            np.testing.assert_allclose(out.value[mask], expected[mask], atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_subsumes_prenorm_transformer_layer(self, heads):
        for seed in range(25):
            block = _block(seed, heads=heads, match_kind=MatchKind.ATTENTION_MATMUL)
            x = _rng(seed + 300).normal(size=(6, 8))
            mask = np.ones(6, dtype=bool)
            tape = Tape()
            out = mnm_basic(tape, tape.constant(x), mask, block)
            expected = ref_prenorm_transformer_layer(
                x, mask, heads,
                block.norm_mix_gamma.value, block.norm_mix_beta.value,
                block.norm_ffn_gamma.value, block.norm_ffn_beta.value,
                block.w1.value, block.w2.value,
            )
            np.testing.assert_allclose(out.value, expected, atol=1e-10)


class TestQueryBlock:
    def test_zero_weights_identity_and_pooled_query(self):
        block = _block(10, query=True)
        _zero(block.w2, block.w4, block.wm)
        rng = _rng(11)
        x, c = rng.normal(size=(5, 8)), rng.normal(size=8)
        mask = np.array([True, True, False, True, True])
        tape = Tape()
        x_out, c_out = mnm_query(tape, tape.constant(x[mask]), tape.constant(c[None]),
                                 nm.Segments([4]), block)
        assert (x_out.value == x[mask]).all()
        expected_c = ref_max_pool(
            ref_layer_norm(x, block.norm_mix_gamma.value, block.norm_mix_beta.value), mask
        )
        np.testing.assert_allclose(c_out.value[0], expected_c, atol=1e-15)

    def test_all_ones_query_with_identity_product_doubles_tokens(self):
        block = _block(12, match_kind=MatchKind.PRODUCT, query=True)
        _zero(block.w2)
        x = _rng(13).normal(size=(4, 8))
        tape = Tape()
        x_out, _ = mnm_query(tape, tape.constant(x), tape.constant(np.ones((1, 8))),
                             nm.Segments([4]), block)
        np.testing.assert_allclose(x_out.value, 2.0 * x, atol=1e-15)

    @pytest.mark.parametrize("heads", [1, 2])
    @pytest.mark.parametrize("match_kind", [MatchKind.CONCAT, MatchKind.PRODUCT])
    def test_matches_dense_oracle(self, heads, match_kind):
        """Two elements packed as two segments; each matches the oracle run
        on that element alone."""
        segments = np.array([0, 0, 0, 1, 1, 1])
        for seed in range(5):
            block = _block(seed, heads=heads, match_kind=match_kind, query=True,
                           proj=(match_kind is MatchKind.PRODUCT))
            rng = _rng(seed + 400)
            x, c = rng.normal(size=(6, 8)), rng.normal(size=(2, 8))
            tape = Tape()
            x_out, c_out = mnm_query(tape, tape.constant(x), tape.constant(c),
                                     nm.Segments([3, 3]), block)
            for e in range(2):
                rows = segments == e
                exp_x, exp_c = ref_mnm_query(block, x[rows], c[e], np.ones(3, dtype=bool))
                np.testing.assert_allclose(x_out.value[rows], exp_x, atol=1e-12)
                np.testing.assert_allclose(c_out.value[e], exp_c, atol=1e-12)


    def test_unread_tokens_are_skipped_and_the_query_is_unchanged(self):
        """A query-only block declared from the same rng as a full one holds
        the full block's weights bit for bit, less its token FFN, and gives
        the same query."""
        options = dict(match_kind=MatchKind.PRODUCT, query=True, proj=True)
        block = _block(14, **options)
        query_block = _block(14, update_tokens=False, **options)
        kept = {name: p.value.tobytes() for name, p in block.named_parameters()
                if name not in ("w1", "w2")}
        assert {name: p.value.tobytes() for name, p in query_block.named_parameters()} == kept
        x, c = _rng(15).normal(size=(5, 8)), _rng(16).normal(size=(2, 8))
        segments = nm.Segments([2, 3])
        full, query_only = Tape(), Tape()
        _, c_full = mnm_query(full, full.constant(x), full.constant(c), segments, block)
        x_out, c_out = mnm_query(query_only, query_only.constant(x), query_only.constant(c),
                                 segments, query_block)
        assert x_out is None
        assert c_out.value.tobytes() == c_full.value.tobytes()
        # The token norm, both FFN matmuls, the activation and the residual add.
        assert len(full._steps) - len(query_only._steps) == 5
        exp_x, exp_c = ref_mnm_query(query_block, x[:2], c[0], np.ones(2, dtype=bool))
        assert exp_x is None
        np.testing.assert_allclose(c_out.value[0], exp_c, atol=1e-12)
        with pytest.raises(ValueError, match="query-variant"):
            _block(14, update_tokens=False)


class TestMultiHead:
    def test_per_head_pooling_equals_full_width_pooling(self):
        rng = _rng(14)
        x = rng.normal(size=(5, 8))
        mask = np.array([True, False, True, True, True])
        halves = [ref_max_pool(x[:, :4], mask), ref_max_pool(x[:, 4:], mask)]
        assert (np.concatenate(halves) == ref_max_pool(x, mask)).all()

    def test_head_count_must_divide_width(self):
        with pytest.raises(ValueError, match="divisible"):
            _block(15, d=8, heads=3)

    def test_query_variant_rejects_attention_mix(self):
        with pytest.raises(ValueError, match="vector-valued"):
            _block(17, match_kind=MatchKind.ATTENTION_MATMUL, query=True)


def _permute_case(block, seed):
    rng = _rng(seed)
    x = rng.normal(size=(6, 8))
    mask = np.array([True, True, False, True, True, True])
    perm = rng.permutation(6)
    tape = Tape()
    base = mnm_basic(tape, tape.constant(x), mask, block).value
    tape = Tape()
    permuted = mnm_basic(tape, tape.constant(x[perm]), mask[perm], block).value
    return base[perm], permuted, mask[perm]


class TestBlockInvariants:
    @pytest.mark.parametrize("match_kind", list(MatchKind))
    @pytest.mark.parametrize("heads", [1, 2])
    def test_permutation_equivariance(self, match_kind, heads):
        for seed in range(10):
            block = _block(seed, heads=heads, match_kind=match_kind)
            base_perm, permuted, mask_perm = _permute_case(block, seed + 500)
            np.testing.assert_allclose(base_perm[mask_perm], permuted[mask_perm], atol=1e-12)

    @pytest.mark.parametrize("match_kind", list(MatchKind))
    def test_mask_invariance_is_exact(self, match_kind):
        block = _block(20, heads=2, match_kind=match_kind)
        rng = _rng(21)
        x = rng.normal(size=(6, 8))
        mask = np.array([True, False, True, True, False, True])
        tape = Tape()
        base = mnm_basic(tape, tape.constant(x), mask, block).value
        x2 = x.copy()
        x2[~mask] = rng.normal(size=(2, 8)) * 1e4
        tape = Tape()
        again = mnm_basic(tape, tape.constant(x2), mask, block).value
        assert (base[mask] == again[mask]).all()

    def test_block_gradients(self):
        from golfer.gradcheck import BLOCK_TOL, block_checks

        results = block_checks()
        assert results
        for res in results:
            assert res.max_rel_error < BLOCK_TOL, res.name


# Every accepted block setting at d=8, heads=2, d_ff=16, keyed by (Match kind,
# proj, query_variant, update_tokens): its `named_parameters` as name:shape
# in order, and the first 16 hex digits of the sha256 of their initial values
# drawn from PCG64(0), both taken from the declaration before the Mix was fixed
# by the Match kind (attention Mix with `attn_proj`, max-pool Mix with
# `product_proj`).
_NORMS = "norm_mix.gamma:8 norm_mix.beta:8 norm_ffn.gamma:8 norm_ffn.beta:8"
_FFN = "w1:8x16 w2:16x8"
_QUERY = "norm_q.gamma:8 norm_q.beta:8 w3:8x16 w4:16x8"
_CONCAT_WM = "wm.0:8x4 wm.1:8x4"
_PRODUCT_WM = "wm.0:4x4 wm.1:4x4"
_ACCEPTED = {
    (MatchKind.ATTENTION_MATMUL, False, False, True): (f"{_NORMS} {_FFN}", "4778a6f9793c3b15"),
    (MatchKind.ATTENTION_MATMUL, True, False, True):
        (f"{_NORMS} {_FFN} wq.0:4x4 wq.1:4x4 wk.0:4x4 wk.1:4x4", "97ff07605c93fbc4"),
    (MatchKind.CONCAT, False, False, True): (f"{_NORMS} {_FFN} {_CONCAT_WM}", "0ea6a2cfa0dad995"),
    (MatchKind.CONCAT, False, True, True):
        (f"{_NORMS} {_FFN} {_CONCAT_WM} {_QUERY}", "2447d55c6aeb4c95"),
    (MatchKind.CONCAT, False, True, False): (f"{_NORMS} {_CONCAT_WM} {_QUERY}", "9e14ae2045f6b518"),
    (MatchKind.PRODUCT, False, False, True): (f"{_NORMS} {_FFN}", "4778a6f9793c3b15"),
    (MatchKind.PRODUCT, False, True, True): (f"{_NORMS} {_FFN} {_QUERY}", "a512d02688f0a935"),
    (MatchKind.PRODUCT, False, True, False): (f"{_NORMS} {_QUERY}", "d352cc794f34b2b9"),
    (MatchKind.PRODUCT, True, False, True): (f"{_NORMS} {_FFN} {_PRODUCT_WM}", "12dd35995c77c9fe"),
    (MatchKind.PRODUCT, True, True, True):
        (f"{_NORMS} {_FFN} {_PRODUCT_WM} {_QUERY}", "230c28719cdc9344"),
    (MatchKind.PRODUCT, True, True, False): (f"{_NORMS} {_PRODUCT_WM} {_QUERY}", "1bbda0a156a658d2"),
}


def _refusals(match_kind, proj, query, update_tokens):
    """The reasons a setting is refused for, as patterns of their messages."""
    return [pattern for refused, pattern in (
        (proj and match_kind is MatchKind.CONCAT, "concat match always has its projection"),
        (query and match_kind is MatchKind.ATTENTION_MATMUL, "vector-valued mix"),
        (not (query or update_tokens), "only a query-variant block can leave its tokens out"),
    ) if refused]


class TestBlockSettings:
    @pytest.mark.parametrize("setting", list(itertools.product(
        MatchKind, (False, True), (False, True), (True, False))),
        ids=lambda s: "{}-proj{}-query{}-tokens{}".format(s[0].value, *map(int, s[1:])))
    def test_each_setting_is_declared_as_before_or_refused_for_its_reason(self, setting):
        match_kind, proj, query, update_tokens = setting
        reasons = _refusals(*setting)
        assert bool(reasons) != (setting in _ACCEPTED)

        def declare():
            return init_mnm_block(_rng(0), 8, 2, 16, match_kind, query_variant=query, proj=proj,
                                  update_tokens=update_tokens)

        if reasons:
            with pytest.raises(ValueError, match="|".join(reasons)):
                declare()
            return
        block = declare()
        named = list(block.named_parameters())
        layout = " ".join(f"{name}:{'x'.join(map(str, p.value.shape))}" for name, p in named)
        digest = hashlib.sha256(b"".join(p.value.tobytes() for _, p in named)).hexdigest()[:16]
        assert (layout, digest) == _ACCEPTED[setting]
        rng = _rng(1)
        x, c = rng.normal(size=(5, 8)), rng.normal(size=(2, 8))
        tape = Tape()
        if not query:
            mask = np.array([True, True, False, True, True])
            out = mnm_basic(tape, tape.constant(x), mask, block)
            np.testing.assert_allclose(out.value[mask], ref_mnm_basic(block, x, mask)[mask],
                                       atol=1e-12)
            return
        x_out, c_out = mnm_query(tape, tape.constant(x), tape.constant(c), nm.Segments([2, 3]),
                                 block)
        assert (x_out is None) != update_tokens
        for e, rows in enumerate((slice(0, 2), slice(2, 5))):
            exp_x, exp_c = ref_mnm_query(block, x[rows], c[e], np.ones(rows.stop - rows.start, bool))
            if update_tokens:
                np.testing.assert_allclose(x_out.value[rows], exp_x, atol=1e-12)
            np.testing.assert_allclose(c_out.value[e], exp_c, atol=1e-12)

    def test_a_block_keeps_the_kind_it_was_declared_with(self):
        """A product block cannot be turned into an attention block over its
        product weights; its weights stay writable."""
        block = _block(0, heads=2, match_kind=MatchKind.PRODUCT, proj=True)
        with pytest.raises(FrozenInstanceError):
            block.match = MatchKind.ATTENTION_MATMUL
        with pytest.raises(FrozenInstanceError):
            block.wm = None
        _zero(block.wm)
        assert block.match is MatchKind.PRODUCT and not block.wm.value.any()
