"""Protein tower contracts: shapes, receptive field, locality, gradients."""

import numpy as np
import pytest

from capture import op_outputs
from gradcheck import check_param_gradients
from moldta import autodiff as ad
from moldta import protein_cnn as pc
from moldta.codec import PAD_ID, PROTEIN, CodecConfig, build_vocab, encode_protein
from moldta.protein_cnn import (ProteinCnnConfig, ProteinCnnWeights,
                                protein_forward_ids, receptive_field)

TINY = ProteinCnnConfig(vocab_size=6, embed_dim=4, filter_lengths=(3, 3, 3),
                        filter_counts=(4, 4, 4))


def tiny_weights(seed=0):
    return ProteinCnnWeights(TINY, np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        ProteinCnnConfig(vocab_size=0)
    with pytest.raises(ValueError):
        ProteinCnnConfig(vocab_size=5, filter_lengths=(3, 0, 3))
    with pytest.raises(ValueError):
        ProteinCnnConfig(vocab_size=5, filter_lengths=(3, 3), filter_counts=(4, 4, 4))


def test_receptive_field_values():
    assert receptive_field(ProteinCnnConfig(vocab_size=5)) == 34            # 12,12,12
    assert receptive_field(ProteinCnnConfig(vocab_size=5,
                                            filter_lengths=(8, 8, 8))) == 22
    assert receptive_field(ProteinCnnConfig(vocab_size=5,
                                            filter_lengths=(1, 1, 1))) == 1
    assert receptive_field(TINY) == 7


def test_forward_output_shape_kiba_defaults():
    cfg = ProteinCnnConfig(vocab_size=22)
    w = ProteinCnnWeights(cfg, np.random.default_rng(0))
    vocab = build_vocab(["ACDEFGHIKLMNPQRSTVWYX"], PROTEIN)
    seq = encode_protein("ACDEFGHIKLMNPQRSTVWYX" * 3, vocab, CodecConfig())
    out = protein_forward_ids(seq[None], seq[None] != PAD_ID, w)
    assert out.data.shape == (1, 96)


def test_conv_length_arithmetic_after_first_layer():
    cfg = ProteinCnnConfig(vocab_size=22)
    w = ProteinCnnWeights(cfg, np.random.default_rng(0))
    ids = np.zeros((1, 1000), dtype=np.int64)
    mask = np.zeros((1, 1000), dtype=bool)
    mask[0, :40] = True
    with op_outputs("relu") as collected:
        protein_forward_ids(ids, mask, w)
    assert collected[0].shape == (1, 989, 32)   # 1000 - 12 + 1
    assert collected[1].shape == (1, 978, 64)
    assert collected[2].shape == (1, 967, 96)


def test_zero_weights_finite_constant_output():
    w = tiny_weights()
    for f in w.filters:
        f.data[:] = 0.0
    ids = np.arange(20, dtype=np.int64).reshape(1, 20) % 6
    mask = np.ones((1, 20), dtype=bool)
    out = protein_forward_ids(ids, mask, w)
    assert np.isfinite(out.data).all()
    assert (out.data == 0.0).all()  # relu(0) pooled


def test_too_few_real_tokens_errors():
    w = tiny_weights()
    ids = np.zeros((1, 20), dtype=np.int64)
    mask = np.zeros((1, 20), dtype=bool)
    mask[0, :6] = True  # receptive field is 7
    with pytest.raises(ValueError, match="receptive field"):
        protein_forward_ids(ids, mask, w)


def test_padded_length_must_cover_filters():
    w = tiny_weights()
    ids = np.zeros((1, 2), dtype=np.int64)
    with pytest.raises(ValueError):
        protein_forward_ids(ids, np.ones((1, 2), dtype=bool), w)


def test_output_independent_of_protein_length():
    # pooling collapses length: two different lengths, same feature width
    w = tiny_weights()
    for length in (10, 20):
        ids = np.ones((1, length), dtype=np.int64)
        out = protein_forward_ids(ids, np.ones((1, length), dtype=bool), w)
        assert out.data.shape == (1, 4)


def test_locality_distant_permutation_leaves_conv_columns_unchanged():
    # swapping two residues further apart than the receptive field leaves
    # conv outputs at distance > rf from both edit sites unchanged
    rng = np.random.default_rng(8)
    w = tiny_weights()
    rf = receptive_field(TINY)
    length = 40
    ids = rng.integers(1, 6, size=(1, length))
    i, j = 5, 30
    ids[0, i], ids[0, j] = 2, 3  # make sure the swap changes content
    swapped = ids.copy()
    swapped[0, i], swapped[0, j] = ids[0, j], ids[0, i]
    mask = np.ones((1, length), dtype=bool)
    with op_outputs("relu") as a_conv:
        protein_forward_ids(ids, mask, w)
    with op_outputs("relu") as b_conv:
        protein_forward_ids(swapped, mask, w)
    last_a, last_b = a_conv[-1], b_conv[-1]
    out_positions = last_a.shape[1]
    for pos in range(out_positions):
        touches_edit = (pos <= i < pos + rf) or (pos <= j < pos + rf)
        if not touches_edit:
            np.testing.assert_array_equal(last_a[0, pos], last_b[0, pos])


@pytest.mark.parametrize("cfg, length", [
    (TINY, 30),
    (ProteinCnnConfig(vocab_size=26), 120),  # the default kiba tower's widths
])
@pytest.mark.parametrize("batch_size", [1, 3, 10])
def test_each_row_is_bitwise_the_same_whatever_else_is_in_its_batch(cfg, length, batch_size):
    # DtiModel.predict runs each distinct protein once, in batches that hold
    # other proteins than a direct call would; its scores rely on this
    rng = np.random.default_rng(5)
    w = ProteinCnnWeights(cfg, rng)
    ids = rng.integers(1, cfg.vocab_size, size=(10, length))
    for row, real in enumerate(rng.integers(receptive_field(cfg), length + 1, size=10)):
        ids[row, real:] = PAD_ID
    alone = [protein_forward_ids(ids[i:i + 1], ids[i:i + 1] != PAD_ID, w).data[0]
             for i in range(len(ids))]
    for _ in range(3):
        order = rng.permutation(len(ids))
        for start in range(0, len(ids), batch_size):
            rows = order[start:start + batch_size]
            out = protein_forward_ids(ids[rows], ids[rows] != PAD_ID, w).data
            for got, i in zip(out, rows):
                assert got.tobytes() == alone[i].tobytes()


def test_inference_deterministic():
    w = tiny_weights()
    ids = np.arange(15, dtype=np.int64).reshape(1, 15) % 6
    mask = np.ones((1, 15), dtype=bool)
    a = protein_forward_ids(ids, mask, w)
    b = protein_forward_ids(ids, mask, w)
    assert a.data.tobytes() == b.data.tobytes()


def test_gradient_check_tiny_config():
    cfg = ProteinCnnConfig(vocab_size=5, embed_dim=4, filter_lengths=(3, 2),
                           filter_counts=(3, 4))
    w = ProteinCnnWeights(cfg, np.random.default_rng(3))
    # zero-init biases leave dead channels whose pre-relu max sits within the
    # probe radius of the kink; shift to a generic differentiable point
    bias_rng = np.random.default_rng(33)
    for b in w.biases:
        b.data = bias_rng.normal(scale=0.3, size=b.data.shape)
    ids = np.random.default_rng(4).integers(0, 5, size=(1, 20))
    mask = np.ones((1, 20), dtype=bool)
    target = np.random.default_rng(5).normal(size=(1, 4))

    def loss_fn():
        out = protein_forward_ids(ids, mask, w)
        diff = ad.subtract(out, ad.Tensor(target))
        return ad.reduce_mean(ad.multiply(diff, diff))

    worst = check_param_gradients(loss_fn, w.named())
    assert max(worst.values()) < 1e-4


def test_weight_shapes_chain():
    cfg = ProteinCnnConfig(vocab_size=25)
    w = ProteinCnnWeights(cfg, np.random.default_rng(0))
    assert w.pte.data.shape == (25, 128)
    assert w.filters[0].data.shape == (12, 128, 32)
    assert w.filters[1].data.shape == (12, 32, 64)
    assert w.filters[2].data.shape == (12, 64, 96)
    assert pc.receptive_field(cfg) == 34


def test_first_layer_is_folded_into_the_embedding():
    # layer 0 runs as embedding_conv1d, so only the later layers unfold windows
    cfg = ProteinCnnConfig(vocab_size=6, embed_dim=5, filter_lengths=(3, 2, 3),
                           filter_counts=(4, 6, 3))
    w = ProteinCnnWeights(cfg, np.random.default_rng(1))
    ids = np.random.default_rng(2).integers(1, 6, size=(2, 16))
    unfold = ad.unfold_windows
    widths = []

    def recording(a, size):
        widths.append(a.data.shape[-1])
        return unfold(a, size)

    ad.unfold_windows = recording
    try:
        protein_forward_ids(ids, np.ones((2, 16), dtype=bool), w)
    finally:
        ad.unfold_windows = unfold
    assert len(widths) == len(w.filters) - 1
    assert cfg.embed_dim not in widths
    assert widths == list(cfg.filter_counts[:-1])


def test_forward_matches_lookup_then_conv1d_stack_on_padded_rows():
    cfg = ProteinCnnConfig(vocab_size=7, embed_dim=6, filter_lengths=(4, 3, 3),
                           filter_counts=(5, 4, 3))
    w = ProteinCnnWeights(cfg, np.random.default_rng(6))
    for b in w.biases:
        b.data = np.random.default_rng(7).normal(scale=0.3, size=b.data.shape)
    lengths = [30, 17, 12]
    ids = np.zeros((3, 30), dtype=np.int64)  # 0 is [PAD]
    rng = np.random.default_rng(8)
    for row, n in enumerate(lengths):
        ids[row, :n] = rng.integers(1, 7, size=n)
    mask = ids != 0
    x = ad.embedding_lookup(w.pte, ids)
    for f, b in zip(w.filters, w.biases):
        x = ad.relu(ad.conv1d(x, f, b))
    composed = ad.max_pool_over_length(x)
    out = protein_forward_ids(ids, mask, w)
    np.testing.assert_allclose(out.data, composed.data, rtol=0, atol=1e-12)
