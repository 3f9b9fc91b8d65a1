"""Molecule encoder contracts: embedding arithmetic, attention invariants,
padding immunity, pooling, and gradient integrity on a tiny config.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capture import SOFTMAX_KERNEL, op_outputs
from gradcheck import check_param_gradients
from moldta import autodiff as ad
from moldta import transformer as mt
from moldta.codec import MOLECULE, CodecConfig, build_vocab, encode_molecule
from moldta.transformer import (LayerWeights, TransformerConfig,
                                TransformerWeights)

TINY = TransformerConfig(vocab_size=12, num_layers=1, num_heads=2, hidden=4,
                         intermediate=6, dropout=0.1, max_len=8)


def tiny_weights(seed=0):
    return TransformerWeights(TINY, np.random.default_rng(seed))


def test_config_validation():
    cfg = TransformerConfig(vocab_size=9)
    assert cfg.hidden // cfg.num_heads == 16  # 128 / 8
    with pytest.raises(ValueError, match="divisible"):
        TransformerConfig(vocab_size=9, hidden=10, num_heads=4)
    with pytest.raises(ValueError):
        TransformerConfig(vocab_size=0)


def test_default_config_matches_published_sizes():
    cfg = TransformerConfig(vocab_size=70)
    assert (cfg.num_layers, cfg.num_heads, cfg.hidden, cfg.intermediate) == (8, 8, 128, 512)
    assert cfg.dropout == 0.1 and cfg.max_len == 100


def test_embed_zero_tables_zero_output():
    w = tiny_weights()
    w.mte.data[:] = 0.0
    w.pe.data[:] = 0.0
    out = mt.embed_ids(np.zeros((1, 8), dtype=np.int64), w)
    assert np.array_equal(out.data, np.zeros((1, 8, 4)))


def test_embed_is_token_plus_position():
    w = tiny_weights()
    ids = np.array([[3, 0, 7, 1, 0, 0, 0, 0]])
    out = mt.embed_ids(ids, w)
    for pos in range(8):
        np.testing.assert_allclose(out.data[0, pos],
                                   w.mte.data[ids[0, pos]] + w.pe.data[pos])


def test_embed_position_sensitivity():
    w = tiny_weights()
    a = mt.embed_ids(np.array([[3, 7, 0, 0, 0, 0, 0, 0]]), w)
    b = mt.embed_ids(np.array([[7, 3, 0, 0, 0, 0, 0, 0]]), w)
    assert not np.allclose(a.data, b.data)


def test_embed_out_of_range_id():
    w = tiny_weights()
    with pytest.raises(ValueError, match="out of range"):
        mt.embed_ids(np.full((1, 8), 12), w)


def test_embed_encoded_molecule_as_batch_of_one():
    vocab = build_vocab(["CN=O"], MOLECULE)
    cfg = CodecConfig(mol_max_len=8)
    w = tiny_weights()
    seq = encode_molecule("CN=O", vocab, cfg, False)
    out = mt.embed_ids(seq[None], w)
    assert out.data.shape == (1, 8, 4)
    np.testing.assert_allclose(out.data[0, 0], w.mte.data[seq[0]] + w.pe.data[0])


def test_training_attention_block_records_twelve_tape_nodes():
    # 3 linear -> attention -> linear -> dropout -> residual_layer_norm ->
    # linear -> gelu -> linear -> dropout -> residual_layer_norm
    w = tiny_weights()
    x = ad.Tensor(np.random.default_rng(4).normal(size=(2, 8, 4)), requires_grad=True)
    out = mt.attention_block(x, np.zeros((2, 1, 1, 8)), w.layers[0],
                             np.random.default_rng(5))
    ops = [node._op for node in ad.topological_order(out) if node._op != "leaf"]
    assert len(ops) <= 12, ops


def test_attention_block_zero_weights_finite():
    w = tiny_weights()
    layer = w.layers[0]
    for name in ("wq", "wk", "wv", "wo", "ff1_w", "ff2_w"):
        getattr(layer, name).data[:] = 0.0
    x = ad.Tensor(np.random.default_rng(1).normal(size=(1, 8, 4)))
    out = mt.attention_block(x, np.zeros((1, 1, 1, 8)), layer)
    assert np.isfinite(out.data).all()


def test_attention_single_unmasked_position_weight_one():
    w = tiny_weights()
    key_bias = np.full((1, 1, 1, 8), -np.inf)
    key_bias[..., 0] = 0.0
    x = ad.Tensor(np.random.default_rng(2).normal(size=(1, 8, 4)))
    with op_outputs(SOFTMAX_KERNEL) as attn:
        mt.attention_block(x, key_bias, w.layers[0])
    assert len(attn) == 1
    # every query attends to the single real key with weight exactly 1
    assert (attn[0][:, :, :, 0] == 1.0).all()
    assert (attn[0][:, :, :, 1:] == 0.0).all()


def test_attention_matches_hand_computation_two_tokens():
    cfg = TransformerConfig(vocab_size=5, num_layers=1, num_heads=1, hidden=2,
                            intermediate=2, dropout=0.0, max_len=2)
    w = TransformerWeights(cfg, np.random.default_rng(3))
    layer = w.layers[0]
    wq = np.array([[0.3, -0.5], [0.8, 0.1]])
    wk = np.array([[-0.2, 0.4], [0.6, 0.9]])
    wv = np.array([[1.0, 0.0], [0.0, 1.0]])
    layer.wq.data, layer.wk.data, layer.wv.data = wq.copy(), wk.copy(), wv.copy()
    layer.bq.data[:] = 0; layer.bk.data[:] = 0; layer.bv.data[:] = 0
    x = np.array([[0.7, -1.2], [0.4, 2.0]])
    with op_outputs(SOFTMAX_KERNEL) as attn:
        mt.attention_block(ad.Tensor(x[None]), np.zeros((1, 1, 1, 2)), layer)
    assert len(attn) == 1
    scores = (x @ wq) @ (x @ wk).T / np.sqrt(2.0)
    expected = np.exp(scores - scores.max(axis=-1, keepdims=True))
    expected /= expected.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(attn[0][0, 0], expected, atol=1e-12)


def test_encode_zero_layers_equals_embed():
    cfg = TransformerConfig(vocab_size=12, num_layers=1, num_heads=2, hidden=4,
                            intermediate=6, max_len=8)
    w = TransformerWeights(cfg, np.random.default_rng(0))
    w.layers = []  # degenerate composition: encoder reduces to the embedding
    ids = np.array([[1, 2, 5, 0, 0, 0, 0, 0]])
    mask = np.array([[True, True, True, False, False, False, False, False]])
    enc = mt.encode_ids(ids, mask, w)
    np.testing.assert_array_equal(enc.data, mt.embed_ids(ids, w).data)


def test_encode_output_shape():
    w = tiny_weights()
    ids = np.zeros((3, 8), dtype=np.int64)
    mask = np.zeros((3, 8), dtype=bool)
    mask[:, :4] = True
    assert mt.encode_ids(ids, mask, w).data.shape == (3, 8, 4)


def test_encode_rejects_a_row_with_no_real_token():
    w = tiny_weights()
    ids = np.array([[1, 6, 7, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0]])
    with pytest.raises(ValueError, match="no real tokens"):
        mt.encode_ids(ids, ids != 0, w)


def test_encode_invariant_to_pad_id_tampering():
    w = tiny_weights()
    ids = np.array([[1, 6, 7, 8, 0, 0, 0, 0]])
    mask = np.array([[True, True, True, True, False, False, False, False]])
    base = mt.encode_ids(ids, mask, w)
    tampered = ids.copy()
    tampered[0, 4:] = [9, 2, 11, 5]  # garbage ids in masked-out positions
    out = mt.encode_ids(tampered, mask, w)
    np.testing.assert_array_equal(base.data[0, :4], out.data[0, :4])


@st.composite
def padded_batches(draw):
    """ids [B, 8] with real prefixes of 1..8 tokens, plus a copy whose
    padding holds arbitrary vocabulary ids."""
    rows = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, TINY.max_len), min_size=rows, max_size=rows))
    token = st.integers(0, TINY.vocab_size - 1)
    cells = st.lists(token, min_size=TINY.max_len, max_size=TINY.max_len)
    ids = np.array(draw(st.lists(cells, min_size=rows, max_size=rows)))
    mask = np.arange(TINY.max_len)[None, :] < np.array(lengths)[:, None]
    tampered = np.where(mask, ids, np.array(draw(st.lists(cells, min_size=rows,
                                                          max_size=rows))))
    return np.where(mask, ids, 0), tampered, mask


@settings(max_examples=100, deadline=None)
@given(padded_batches(), st.integers(0, 3))
def test_encode_ids_at_real_positions_ignores_pad_contents(batch, seed):
    ids, tampered, mask = batch
    w = tiny_weights(seed)
    base = mt.encode_ids(ids, mask, w)
    out = mt.encode_ids(tampered, mask, w)
    np.testing.assert_array_equal(base.data[mask], out.data[mask])


def test_attention_rows_sum_to_one_and_pads_get_zero():
    w = tiny_weights()
    ids = np.array([[1, 6, 7, 8, 0, 0, 0, 0]])
    mask = np.array([[True, True, True, True, False, False, False, False]])
    with op_outputs(SOFTMAX_KERNEL) as attn:
        mt.encode_ids(ids, mask, w)
    assert len(attn) == len(w.layers)
    for probs in attn:
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
        assert (probs[..., ~mask[0]] == 0.0).all()


def test_inference_forward_deterministic():
    w = tiny_weights()
    ids = np.array([[1, 6, 7, 0, 0, 0, 0, 0]])
    mask = ids != 0
    a = mt.encode_ids(ids, mask, w)
    b = mt.encode_ids(ids, mask, w)
    assert a.data.tobytes() == b.data.tobytes()


def test_training_dropout_changes_output():
    w = tiny_weights()
    ids = np.array([[1, 6, 7, 0, 0, 0, 0, 0]])
    mask = ids != 0
    a = mt.encode_ids(ids, mask, w, rng=np.random.default_rng(1))
    b = mt.encode_ids(ids, mask, w, rng=np.random.default_rng(2))
    assert not np.array_equal(a.data, b.data)


def test_pool_rep_returns_row_zero():
    x = np.random.default_rng(4).normal(size=(1, 8, 4))
    out = mt.pool_rep_batch(ad.Tensor(x))
    np.testing.assert_array_equal(out.data[0], x[0, 0])


def test_pool_rep_default_width_is_128():
    cfg = TransformerConfig(vocab_size=70, num_layers=1)  # one layer keeps it quick
    w = TransformerWeights(cfg, np.random.default_rng(0))
    ids = np.zeros((1, 100), dtype=np.int64)
    ids[0, :3] = [1, 2, 3]
    mask = np.zeros((1, 100), dtype=bool)
    mask[0, :3] = True
    enc = mt.encode_ids(ids, mask, w)
    assert mt.pool_rep_batch(enc).data.shape == (1, 128)
    assert cfg.hidden // cfg.num_heads == 16


def test_pool_rep_gradient_only_through_row_zero():
    x = ad.Tensor(np.random.default_rng(5).normal(size=(1, 6, 3)), requires_grad=True)
    ad.backward(ad.reduce_sum(mt.pool_rep_batch(x)))
    np.testing.assert_array_equal(x.grad[0, 0], np.ones(3))
    np.testing.assert_array_equal(x.grad[0, 1:], np.zeros((5, 3)))


def test_pool_mean_batch_masked_average():
    x = np.arange(24.0).reshape(1, 6, 4)
    mask = np.array([[True, True, True, False, False, False]])
    out = mt.pool_mean_batch(ad.Tensor(x), mask)
    np.testing.assert_allclose(out.data[0], x[0, :3].mean(axis=0))


def test_lm_logits_shape_and_uniform_cross_entropy():
    w = tiny_weights()
    w.lm_w.data[:] = 0.0
    w.lm_b.data[:] = 0.0
    enc = ad.Tensor(np.random.default_rng(6).normal(size=(8, 4)))
    logits = mt.lm_logits(enc, w)
    assert logits.data.shape == (8, 12)
    ce = ad.softmax_cross_entropy(logits, np.arange(8) % 12)
    assert abs(float(ce.data) - np.log(12)) < 1e-12


def test_end_to_end_gradient_check_tiny():
    # one layer, L=8, hidden 4, 2 heads: every weight against central FD
    w = tiny_weights(seed=9)
    ids = np.array([[1, 6, 7, 8, 5, 0, 0, 0]])
    mask = np.array([[True, True, True, True, True, False, False, False]])
    target = np.random.default_rng(10).normal(size=(1, 8, 4))

    def loss_fn():
        enc = mt.encode_ids(ids, mask, w)
        diff = ad.subtract(enc, ad.Tensor(target))
        return ad.reduce_mean(ad.multiply(diff, diff))

    worst = check_param_gradients(loss_fn, w.named())
    assert max(worst.values()) < 1e-4


def test_init_statistics_truncated_gaussian():
    rng = np.random.default_rng(0)
    sample = mt.trunc_normal((200, 200), rng)
    assert np.abs(sample).max() <= 0.04 + 1e-12
    assert abs(sample.std() - 0.019) < 0.002  # slightly under std from truncation
    w = tiny_weights()
    assert (w.layers[0].bq.data == 0).all()
    assert (w.layers[0].ln1_g.data == 1).all()
