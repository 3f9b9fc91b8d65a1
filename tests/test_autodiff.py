"""Tensor-core tests: forward values against hand or high-precision oracles,
reverse-mode gradients against central finite differences for every op.
"""

import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradcheck import check_gradients
from moldta import autodiff as ad
from moldta.autodiff import Tensor, topological_order
from moldta.errors import NumericalError

RNG = np.random.default_rng(20260810)

# High-precision scalar oracle values (50-digit arithmetic), frozen.
SOFTMAX_123 = np.array([0.0900305731703804, 0.2447284710547976, 0.6652409557748218])
GELU_1 = 0.841344746068543


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor(np.eye(2))
    b = Tensor(np.array([[3.0, 4.0], [5.0, 6.0]]))
    assert np.array_equal(ad.matmul(a, b).data, b.data)


def test_matmul_hand_value():
    out = ad.matmul(Tensor(np.array([[1.0, 2.0]])), Tensor(np.array([[3.0], [4.0]])))
    assert np.array_equal(out.data, np.array([[11.0]]))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


def test_softmax_uniform_on_equal_logits():
    out = ad.softmax_rows(Tensor(np.zeros(3)), 0.0)
    np.testing.assert_allclose(out.data, np.full(3, 1 / 3), atol=1e-12)


def test_softmax_stable_under_large_shift():
    out = ad.softmax_rows(Tensor(np.array([1000.0, 1000.0])), 0.0)
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-12)


def test_softmax_matches_high_precision_oracle():
    out = ad.softmax_rows(Tensor(np.array([1.0, 2.0, 3.0])), 0.0)
    np.testing.assert_allclose(out.data, SOFTMAX_123, atol=1e-6)


def test_softmax_rows_sum_to_one_and_mask_exact_zero():
    x = Tensor(RNG.normal(size=(4, 7)))
    mask = RNG.random((4, 7)) < 0.6
    mask[:, 0] = True  # keep every row non-empty
    out = ad.softmax_rows(x, np.where(mask, 0.0, -np.inf))
    assert (out.data[~mask] == 0.0).all()
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-9)


def test_softmax_rows_key_bias_is_bitwise_the_masked_reference():
    # a [B, 1, 1, L] key bias broadcast over [B, H, L, L] scores gives exactly
    # the softmax of the scores with padding keys set to -inf
    scores = RNG.normal(size=(3, 2, 6, 6)) * 4
    mask = np.arange(6)[None, :] < np.array([6, 4, 1])[:, None]
    out = ad.softmax_rows(Tensor(scores), np.where(mask, 0.0, -np.inf)[:, None, None, :])
    logits = np.where(mask[:, None, None, :], scores, -np.inf)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    assert out.data.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


def test_softmax_fully_masked_row_errors():
    bias = np.array([[0.0, 0.0, 0.0], [-np.inf, -np.inf, -np.inf]])
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="softmax_rows"):
            ad.softmax_rows(Tensor(np.zeros((2, 3))), bias)


def test_gelu_values():
    x = Tensor(np.array([0.0, 1.0, 10.0]))
    out = ad.gelu(x).data
    assert out[0] == 0.0
    assert abs(out[1] - GELU_1) < 1e-5
    assert abs(out[2] - 10.0) < 1e-6


def test_erf_against_math_erf_and_at_its_edges():
    u = np.concatenate([np.linspace(-30.0, 30.0, 240_001),
                        np.geomspace(1e-300, 1.0, 20_001), -np.geomspace(1e-300, 1.0, 20_001)])
    expected = np.array([math.erf(v) for v in u.tolist()])
    got = ad._erf(u)
    assert np.all(np.abs(got - expected) <= 3 * np.spacing(np.abs(expected)))
    assert np.array_equal(ad._erf(-u).view(np.int64), (-got).view(np.int64))

    edges = [(0.0, 0.0), (-0.0, -0.0), (np.inf, 1.0), (-np.inf, -1.0), (1.0, 0.8427007929497148),
             (np.nextafter(1.0, 2.0), 0.842700792949715), (5.92, 1.0 - 2.0 ** -53), (6.0, 1.0),
             (8.0, 1.0), (-8.0, -1.0), (1e200, 1.0), (-1e200, -1.0)]
    u, want = np.array(edges).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ad._erf(u)
    assert out.tolist() == want.tolist()
    assert np.array_equal(np.signbit(out), np.signbit(want))
    assert np.isnan(ad._erf(np.array([np.nan]))).all()


def test_layer_norm_constant_row_is_zero():
    out = ad.layer_norm(Tensor(np.full((2, 4), 3.7)), Tensor(np.ones(4)), Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-5)


def test_layer_norm_two_point_standardization():
    out = ad.layer_norm(Tensor(np.array([1.0, 3.0])), Tensor(np.ones(2)), Tensor(np.zeros(2)))
    np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)


def test_layer_norm_zero_gain_yields_bias():
    bias = np.array([1.0, -2.0, 0.5])
    out = ad.layer_norm(Tensor(RNG.normal(size=(5, 3))), Tensor(np.zeros(3)), Tensor(bias))
    np.testing.assert_allclose(out.data, np.broadcast_to(bias, (5, 3)))


def test_conv1d_sliding_sum():
    out = ad.conv1d(Tensor(np.ones((5, 1))), Tensor(np.ones((2, 1, 1))), Tensor(np.zeros(1)))
    np.testing.assert_allclose(out.data, np.full((4, 1), 2.0))


def test_conv1d_delta_filter_is_identity():
    x = RNG.normal(size=(9, 3))
    delta = np.zeros((4, 3, 3))
    delta[0] = np.eye(3)  # picks out the window's first row
    out = ad.conv1d(Tensor(x), Tensor(delta), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, x[:6], atol=1e-12)


def test_conv1d_too_short_errors():
    with pytest.raises(ValueError, match="exceeds sequence length"):
        ad.conv1d(Tensor(np.ones((3, 1))), Tensor(np.ones((5, 1, 1))), Tensor(np.zeros(1)))


def test_max_pool_columnwise_max():
    out = ad.max_pool_over_length(Tensor(np.array([[1.0, 5.0], [3.0, 2.0]])))
    np.testing.assert_allclose(out.data, [3.0, 5.0])


def test_max_pool_single_row_passthrough():
    row = np.array([[2.0, -1.0, 7.0]])
    assert np.array_equal(ad.max_pool_over_length(Tensor(row)).data, row[0])


def test_max_pool_tie_gradient_goes_to_first():
    x = Tensor(np.array([[4.0], [4.0], [4.0]]), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.max_pool_over_length(x)))
    np.testing.assert_array_equal(x.grad, [[1.0], [0.0], [0.0]])


def test_dropout_rate_zero_and_inference_are_identity():
    x = Tensor(RNG.normal(size=(3, 3)))
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x
    assert ad.dropout(x, 0.5) is x


def test_dropout_bad_rate():
    x = Tensor(np.ones(2))
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            ad.dropout(x, rate, np.random.default_rng(0))


def test_dropout_statistics_half_rate():
    n = 1_000_000
    x = Tensor(np.ones(n))
    out = ad.dropout(x, 0.5, np.random.default_rng(7))
    survivors = np.count_nonzero(out.data)
    assert abs(survivors / n - 0.5) < 0.01
    assert abs(out.data.mean() - 1.0) < 0.01  # inverted scaling preserves the mean


def test_cross_entropy_uniform_logits_is_log_vocab():
    logits = Tensor(np.zeros((4, 11)))
    out = ad.softmax_cross_entropy(logits, np.array([0, 3, 7, 10]))
    assert abs(float(out.data) - np.log(11)) < 1e-12


def test_embedding_lookup_gather_and_scatter():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ad.embedding_lookup(table, np.array([[1, 1], [3, 0]]))
    np.testing.assert_array_equal(out.data[0, 0], [3.0, 4.0, 5.0])
    ad.backward(ad.reduce_sum(out))
    np.testing.assert_array_equal(table.grad[:, 0], [1.0, 2.0, 0.0, 1.0])


def test_embedding_lookup_of_a_flattened_batch_agrees_with_a_loop_oracle():
    # the query-row pick of transformer.attention_block
    a = Tensor(RNG.normal(size=(3, 5, 4)), requires_grad=True)
    index = np.array([[0, 0], [4, 1], [2, 2]])  # rows 0 and 2 repeat a position
    out = ad.embedding_lookup(ad.reshape(a, (15, 4)), np.arange(3)[:, None] * 5 + index)
    assert out.data.shape == (3, 2, 4)
    weights = RNG.normal(size=(3, 2, 4))
    ad.backward(ad.reduce_sum(ad.multiply(out, Tensor(weights))))
    expected_grad = np.zeros((3, 5, 4))
    for b in range(3):
        for k in range(2):
            np.testing.assert_array_equal(out.data[b, k], a.data[b, index[b, k]])
            expected_grad[b, index[b, k]] += weights[b, k]
    np.testing.assert_array_equal(a.grad, expected_grad)


def test_embedding_lookup_gradient_is_bitwise_the_add_at_scatter():
    rng = np.random.default_rng(7)
    table = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
    ids = rng.integers(0, 3, size=(40, 9))  # 360 ids on rows 0-2; rows 3-5 get none
    weights = rng.normal(size=(40, 9, 5))
    ad.backward(ad.reduce_sum(ad.multiply(ad.embedding_lookup(table, ids), Tensor(weights))))
    expected = np.zeros((6, 5))
    np.add.at(expected, ids.reshape(-1), weights.reshape(-1, 5))
    assert table.grad.dtype == np.float64
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_lookup_out_of_range():
    table = Tensor(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="out of range"):
        ad.embedding_lookup(table, np.array([4]))


def composed_embedding_conv1d(table, ids, filters, bias):
    return ad.conv1d(ad.embedding_lookup(table, ids), filters, bias)


def test_embedding_conv1d_matches_lookup_then_conv1d():
    table, filters, bias = (Tensor(RNG.normal(size=shape)) for shape in ((5, 4), (3, 4, 6), (6,)))
    ids = np.array([[0, 3, 4, 1, 0, 0, 0], [2, 2, 0, 4, 1, 3, 0]])  # id 0 is [PAD]
    for b in (bias, Tensor(np.zeros(6))):
        fused = ad.embedding_conv1d(table, ids, filters, b)
        composed = composed_embedding_conv1d(table, ids, filters, b)
        assert fused.data.shape == composed.data.shape == (2, 5, 6)
        np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)


@st.composite
def embedding_conv_cases(draw):
    s, d, m, vocab = (draw(st.integers(1, hi)) for hi in (6, 5, 4, 5))
    length = draw(st.integers(s, s + 6))
    ids = draw(st.lists(st.integers(0, vocab - 1), min_size=2 * length, max_size=2 * length))
    return s, d, m, vocab, np.array(ids).reshape(2, length)


@settings(max_examples=60, deadline=None)
@given(embedding_conv_cases(), st.integers(0, 2 ** 32 - 1))
def test_embedding_conv1d_agrees_with_the_composed_ops(case, seed):
    s, d, m, vocab, ids = case
    rng = np.random.default_rng(seed)
    table, filters, bias = (Tensor(rng.normal(size=shape))
                            for shape in ((vocab, d), (s, d, m), (m,)))
    fused = ad.embedding_conv1d(table, ids, filters, bias)
    composed = composed_embedding_conv1d(table, ids, filters, bias)
    assert fused.data.shape == (2, ids.shape[1] - s + 1, m)
    np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)


@pytest.mark.parametrize("ids, table_width, filter_shape", [
    (np.array([[0.0, 1.0, 2.0]]), 3, (2, 3, 2)),       # non-integer ids
    (np.array([[0, 1, 5]]), 3, (2, 3, 2)),             # id past the table
    (np.array([[0, -1, 2]]), 3, (2, 3, 2)),            # negative id
    (np.array([[0, 1, 2]]), 3, (2, 4, 2)),             # channel mismatch
    (np.array([[0, 1, 2]]), 3, (4, 3, 2)),             # window longer than the sequence
])
def test_embedding_conv1d_rejects_what_the_composed_ops_reject(ids, table_width, filter_shape):
    table, filters = Tensor(np.ones((4, table_width))), Tensor(np.ones(filter_shape))
    bias = Tensor(np.zeros(filter_shape[2]))
    with pytest.raises(ValueError) as composed:
        composed_embedding_conv1d(table, ids, filters, bias)
    with pytest.raises(ValueError) as fused:
        ad.embedding_conv1d(table, ids, filters, bias)
    assert str(fused.value) == str(composed.value)


# ---------------------------------------------------------------------------
# sublayer ops against the composed ops they replace
# ---------------------------------------------------------------------------

def composed_attention(q, k, v, key_bias, heads):
    b, q_length, d = q.data.shape
    dk = d // heads

    def split(t):
        return ad.transpose(ad.reshape(t, (b, t.data.shape[1], heads, dk)), (0, 2, 1, 3))

    scores = ad.scale(ad.matmul(split(q), ad.transpose(split(k), (0, 1, 3, 2))),
                      1.0 / np.sqrt(dk))
    ctx = ad.matmul(ad.softmax_rows(scores, key_bias), split(v))
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, q_length, d))


def value_and_grads(op, arrays, weights, *args):
    """op(*tensors, *args) and the gradient of sum(op * weights) per input."""
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*tensors, *args)
    ad.backward(ad.reduce_sum(ad.multiply(out, Tensor(weights))))
    return [out.data] + [t.grad for t in tensors]


def key_padding_bias(rng, b, length):
    """A [B, 1, 1, L] key bias with -inf at random padding, key 0 always real."""
    real = rng.random((b, length)) < 0.7
    real[:, 0] = True
    return np.where(real, 0.0, -np.inf)[:, None, None, :]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 7), st.integers(1, 7), st.integers(1, 4),
       st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@example(2, 1, 6, 2, 3, 0)        # one query row over six keys, as the last encoder block
@example(2, 5, 3, 2, 3, 1)        # more queries than keys
def test_attention_is_bitwise_the_composed_ops(b, q_length, length, heads, head_dim, seed):
    rng = np.random.default_rng(seed)
    d = heads * head_dim
    q_shape, shape = (b, q_length, d), (b, length, d)
    arrays = [rng.normal(size=q_shape)] + [rng.normal(size=shape) for _ in range(2)]
    key_bias, weights = key_padding_bias(rng, b, length), rng.normal(size=q_shape)
    fused = value_and_grads(ad.attention, arrays, weights, key_bias, heads)
    composed = value_and_grads(composed_attention, arrays, weights, key_bias, heads)
    for f, c in zip(fused, composed):     # the value, then dq, dk and dv
        assert f.tobytes() == c.tobytes()


def test_attention_at_the_encoder_shapes_is_bitwise_the_composed_ops():
    for b, length, d, heads in ((128, 36, 16, 2), (8, 100, 128, 8)):
        shape = (b, length, d)
        arrays = [RNG.normal(size=shape) for _ in range(3)]
        key_bias, weights = key_padding_bias(RNG, b, length), RNG.normal(size=shape)
        fused = value_and_grads(ad.attention, arrays, weights, key_bias, heads)
        composed = value_and_grads(composed_attention, arrays, weights, key_bias, heads)
        for f, c in zip(fused, composed):
            assert f.tobytes() == c.tobytes()


def test_attention_query_with_no_real_key_raises_naming_the_op():
    q = Tensor(RNG.normal(size=(2, 3, 4)))
    key_bias = np.zeros((2, 1, 1, 3))
    key_bias[1] = -np.inf
    with np.errstate(invalid="ignore"):
        with pytest.raises(NumericalError, match="'attention'"):
            ad.attention(q, q, q, key_bias, 2)


@pytest.mark.parametrize("x_shape", [(5, 4), (2, 3, 4)])
def test_linear_agrees_with_matmul_then_add(x_shape):
    arrays = [RNG.normal(size=x_shape), RNG.normal(size=(4, 6)), RNG.normal(size=(6,))]
    weights = RNG.normal(size=x_shape[:-1] + (6,))
    fused = value_and_grads(ad.linear, arrays, weights)
    composed = value_and_grads(lambda x, w, b: ad.add(ad.matmul(x, w), b), arrays, weights)
    for f, c in zip(fused, composed):     # the value, then dx, dw and db
        assert f.shape == c.shape
        np.testing.assert_allclose(f, c, rtol=0, atol=1e-12)


def test_linear_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


def test_residual_layer_norm_is_bitwise_layer_norm_of_the_sum():
    arrays = [RNG.normal(size=(2, 3, 6)), RNG.normal(size=(2, 3, 6)),
              RNG.normal(size=(6,)), RNG.normal(size=(6,))]
    weights = RNG.normal(size=(2, 3, 6))
    fused = value_and_grads(ad.residual_layer_norm, arrays, weights)
    composed = value_and_grads(lambda x, y, g, b: ad.layer_norm(ad.add(x, y), g, b),
                               arrays, weights)
    for f, c in zip(fused, composed):     # the value, then dx, dy, dgain and dbias
        assert f.tobytes() == c.tobytes()


# ---------------------------------------------------------------------------
# backward basics
# ---------------------------------------------------------------------------

def test_backward_of_sum_is_ones():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    ad.backward(ad.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_backward_of_sum_of_squares():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.multiply(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(ad.multiply(x, x))


def test_fan_out_sums_both_contributions():
    # y = sum(x * x) + sum(x): grad = 2x + 1
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    ad.backward(ad.add(ad.reduce_sum(ad.multiply(x, x)), ad.reduce_sum(x)))
    np.testing.assert_allclose(x.grad, [3.0, -3.0])


def test_graph_trace_is_topologically_ordered():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = ad.matmul(ad.add(x, x), ad.multiply(x, x))
    seen = set()
    for node in topological_order(ad.reduce_sum(y)):
        for parent in node._parents:
            assert id(parent) in seen, "parent appeared after child"
        seen.add(id(node))


# ---------------------------------------------------------------------------
# closure contract: backward alone accumulates, out of place
# ---------------------------------------------------------------------------

CONSTANT_PARENT_CASES = {
    "add": (lambda t, c: ad.add(t[0], c), [(3, 4)], (4,)),
    "add_left": (lambda t, c: ad.add(c, t[0]), [(3, 4)], (3, 4)),
    "subtract": (lambda t, c: ad.subtract(t[0], c), [(3, 4)], (3, 4)),
    "subtract_left": (lambda t, c: ad.subtract(c, t[0]), [(3, 4)], (4,)),
    "multiply": (lambda t, c: ad.multiply(t[0], c), [(3, 4)], (4,)),
    "multiply_left": (lambda t, c: ad.multiply(c, t[0]), [(3, 4)], (3, 4)),
    "matmul": (lambda t, c: ad.matmul(t[0], c), [(2, 3, 4)], (4, 5)),
    "matmul_left": (lambda t, c: ad.matmul(c, t[0]), [(4, 5)], (2, 3, 4)),
    "concat": (lambda t, c: ad.concat([c, t[0]], axis=-1), [(3, 2)], (3, 4)),
    "layer_norm_input": (lambda t, c: ad.layer_norm(c, t[0], t[1]), [(6,), (6,)], (2, 6)),
    "layer_norm_affine": (lambda t, c: ad.layer_norm(t[0], c, Tensor(np.ones(6))),
                          [(2, 6)], (6,)),
}


@pytest.mark.parametrize("case", sorted(CONSTANT_PARENT_CASES))
def test_constant_parent_gets_no_gradient(case):
    op, shapes, const_shape = CONSTANT_PARENT_CASES[case]
    const = Tensor(RNG.normal(size=const_shape))
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(op(t, const))),
                    [RNG.normal(size=shape) for shape in shapes])
    assert const.grad is None


def test_gradients_are_never_written_in_place():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    q = Tensor(np.array([3.0, 4.0]), requires_grad=True)
    ad.backward(ad.reduce_sum(ad.add(p, q)))
    ad.backward(ad.reduce_sum(ad.scale(p, 3.0)))
    np.testing.assert_array_equal(p.grad, [4.0, 4.0])
    np.testing.assert_array_equal(q.grad, [1.0, 1.0])


# ---------------------------------------------------------------------------
# tape lifetime: released by backward, never recorded under no_grad
# ---------------------------------------------------------------------------

def test_backward_frees_intermediate_outputs_while_loss_is_held():
    x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    product = ad.matmul(x, Tensor(RNG.normal(size=(3, 5))))
    probe = weakref.ref(product.data)
    loss = ad.reduce_sum(ad.gelu(product))
    del product
    assert probe() is not None
    ad.backward(loss)
    assert probe() is None
    assert loss.data.shape == ()


def test_backward_keeps_leaf_gradients_and_releases_the_loss():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    loss = ad.reduce_sum(ad.multiply(x, x))
    ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])
    assert loss._parents == ()
    assert loss._backward is None and loss.grad is None


def test_second_backward_through_a_released_graph_raises():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    squares = ad.multiply(x, x)
    loss = ad.reduce_sum(squares)
    ad.backward(loss)
    with pytest.raises(ValueError, match="already used"):
        ad.backward(loss)
    with pytest.raises(ValueError, match="already used"):
        ad.backward(ad.reduce_mean(squares))    # shares the released node
    np.testing.assert_array_equal(x.grad, [2.0, 4.0, 6.0])


def test_leaf_gradients_accumulate_across_separate_graphs():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    ad.backward(ad.reduce_sum(x))
    ad.backward(ad.reduce_sum(ad.scale(x, 3.0)))
    np.testing.assert_array_equal(x.grad, [4.0, 4.0])


def test_no_grad_records_no_tape_and_keeps_values_bitwise():
    x = Tensor(RNG.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(4, 4)), requires_grad=True)
    gain = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    bias = Tensor(RNG.normal(size=(4,)), requires_grad=True)

    def build():
        h = ad.layer_norm(ad.gelu(ad.matmul(x, w)), gain, bias)
        return ad.max_pool_over_length(ad.softmax_rows(ad.add(h, x), 0.0))

    taped = build()
    with ad.no_grad():
        untaped = build()
    assert taped.requires_grad and taped._parents
    assert untaped.data.tobytes() == taped.data.tobytes()
    assert not untaped.requires_grad
    assert untaped._parents == () and untaped._backward is None


def test_no_grad_restores_recording_after_nesting_and_errors():
    x = Tensor(np.ones(2), requires_grad=True)
    with ad.no_grad():
        with ad.no_grad():
            assert not ad.add(x, x).requires_grad
        assert not ad.add(x, x).requires_grad
    assert ad.add(x, x).requires_grad
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="multiply"):
            with ad.no_grad():
                ad.multiply(big, big)
    assert ad.add(x, x).requires_grad


def test_ops_do_not_mutate_inputs():
    a = RNG.normal(size=(3, 3))
    b = RNG.normal(size=(3, 3))
    ta, tb = Tensor(a.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True)
    loss = ad.reduce_sum(ad.gelu(ad.matmul(ad.add(ta, tb), ad.multiply(ta, tb))))
    ad.backward(loss)
    np.testing.assert_array_equal(ta.data, a)
    np.testing.assert_array_equal(tb.data, b)


def test_non_finite_forward_raises():
    big = Tensor(np.array([1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(NumericalError, match="multiply"):
            ad.multiply(big, big)


# ---------------------------------------------------------------------------
# finite-difference gradient checks, one per op
# ---------------------------------------------------------------------------

def test_grad_add_broadcast():
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(ad.add(t[0], t[1]), t[2])),
                    [RNG.normal(size=(3, 4)), RNG.normal(size=(4,)), RNG.normal(size=(3, 4))])


def test_grad_subtract():
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(ad.subtract(t[0], t[1]),
                                                        ad.subtract(t[0], t[1]))),
                    [RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))])


def test_grad_scale():
    check_gradients(lambda t: ad.reduce_sum(ad.scale(t[0], -2.5)),
                    [RNG.normal(size=(3, 2))])


def test_grad_matmul_2d():
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(ad.matmul(t[0], t[1]))),
                    [RNG.normal(size=(3, 4)), RNG.normal(size=(4, 2))])


def test_grad_matmul_batched_broadcast():
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(ad.matmul(t[0], t[1]))),
                    [RNG.normal(size=(2, 3, 4)), RNG.normal(size=(4, 5))])


def test_grad_softmax_rows():
    weights = RNG.normal(size=(3, 5))
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(ad.softmax_rows(t[0], 0.0),
                                                        Tensor(weights))),
                    [RNG.normal(size=(3, 5))])


def test_grad_softmax_rows_masked():
    bias = np.array([[0.0, 0.0, -np.inf, 0.0], [0.0, -np.inf, 0.0, 0.0]])
    weights = RNG.normal(size=(2, 4))
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(ad.softmax_rows(t[0], bias),
                                                        Tensor(weights))),
                    [RNG.normal(size=(2, 4))])


def test_grad_gelu():
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(t[0])),
                    [RNG.normal(size=(7,)) * 2])


def test_grad_relu():
    x = RNG.normal(size=(8,))
    x[np.abs(x) < 0.1] += 0.3  # keep clear of the kink
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(ad.relu(t[0]), t[0])), [x])


def test_grad_layer_norm():
    weights = RNG.normal(size=(2, 6))
    check_gradients(
        lambda t: ad.reduce_sum(ad.multiply(ad.layer_norm(t[0], t[1], t[2]), Tensor(weights))),
        [RNG.normal(size=(2, 6)), RNG.normal(size=(6,)), RNG.normal(size=(6,))])


@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)])
def test_grad_linear(x_shape):
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(ad.linear(t[0], t[1], t[2]))),
                    [RNG.normal(size=x_shape), RNG.normal(size=(4, 5)), RNG.normal(size=(5,))])


@pytest.mark.parametrize("heads", [1, 3])
def test_grad_attention_with_padded_keys(heads):
    key_bias = np.array([0.0, 0.0, -np.inf, 0.0])[None, None, None, :]
    weights = RNG.normal(size=(2, 4, 6))
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(
        ad.attention(t[0], t[1], t[2], key_bias, heads), Tensor(weights))),
        [RNG.normal(size=(2, 4, 6)) for _ in range(3)])


def test_grad_attention_one_query_over_padded_keys():
    # the shape of the last encoder block under rep pooling: row 0 attends
    # over every key, with padding at different keys per batch row
    key_bias = np.array([[0.0, 0.0, -np.inf, 0.0, -np.inf],
                         [0.0, -np.inf, 0.0, -np.inf, -np.inf]])[:, None, None, :]
    weights = RNG.normal(size=(2, 1, 6))
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(
        ad.attention(t[0], t[1], t[2], key_bias, 3), Tensor(weights))),
        [RNG.normal(size=(2, 1, 6))] + [RNG.normal(size=(2, 5, 6)) for _ in range(2)])


def test_grad_residual_layer_norm():
    weights = RNG.normal(size=(2, 6))
    check_gradients(
        lambda t: ad.reduce_sum(ad.multiply(ad.residual_layer_norm(t[0], t[1], t[2], t[3]),
                                            Tensor(weights))),
        [RNG.normal(size=(2, 6)), RNG.normal(size=(2, 6)), RNG.normal(size=(6,)),
         RNG.normal(size=(6,))])


def test_grad_conv1d():
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(ad.conv1d(t[0], t[1], t[2]))),
                    [RNG.normal(size=(8, 3)), RNG.normal(size=(3, 3, 4)),
                     RNG.normal(size=(4,))])


def test_grad_conv1d_batched():
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(ad.conv1d(t[0], t[1], Tensor(np.zeros(3))))),
                    [RNG.normal(size=(2, 6, 2)), RNG.normal(size=(3, 2, 3))])


def test_grad_max_pool():
    # distinct entries keep the argmax stable under the probe eps
    x = RNG.permutation(24).astype(np.float64).reshape(6, 4)
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(ad.max_pool_over_length(t[0]),
                                                        Tensor(np.arange(1.0, 5.0)))),
                    [x])


def test_grad_dropout_fixed_mask():
    def build(t):
        rng = np.random.default_rng(99)  # same mask on every evaluation
        return ad.reduce_sum(ad.multiply(ad.dropout(t[0], 0.4, rng), t[0]))
    check_gradients(build, [RNG.normal(size=(5, 5))])


def test_grad_transpose_reshape_concat_take():
    def build(t):
        a = ad.transpose(t[0], (1, 0))
        b = ad.reshape(t[1], (4, 3))
        c = ad.concat([a, b], axis=-1)
        return ad.reduce_sum(ad.multiply(ad.take_index(c, 2, axis=0), ad.take_index(c, 1, axis=0)))
    check_gradients(build, [RNG.normal(size=(3, 4)), RNG.normal(size=(12,))])


def test_grad_unfold_windows():
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(ad.unfold_windows(t[0], 3),
                                                        ad.unfold_windows(t[0], 3))),
                    [RNG.normal(size=(7, 2))])


def test_grad_reduce_mean_axis():
    weights = RNG.normal(size=(3,))
    check_gradients(lambda t: ad.reduce_sum(ad.multiply(ad.reduce_mean(t[0], axis=1),
                                                        Tensor(weights))),
                    [RNG.normal(size=(3, 5))])


def test_grad_embedding_lookup():
    ids = np.array([[0, 2], [2, 1]])
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(ad.embedding_lookup(t[0], ids))),
                    [RNG.normal(size=(3, 4))])


@pytest.mark.parametrize("with_bias", [True, False])
def test_grad_embedding_conv1d(with_bias):
    ids = np.array([[1, 0, 3, 2, 0, 0], [3, 3, 1, 0, 2, 1]])  # id 0 is [PAD]
    arrays = [RNG.normal(size=(4, 3)), RNG.normal(size=(3, 3, 2))]
    if with_bias:
        arrays.append(RNG.normal(size=(2,)))
    zero_bias = Tensor(np.zeros(2))
    check_gradients(lambda t: ad.reduce_sum(ad.gelu(ad.embedding_conv1d(
        t[0], ids, t[1], t[2] if with_bias else zero_bias))), arrays)


def test_grad_softmax_cross_entropy():
    labels = np.array([2, 0, 1])
    check_gradients(lambda t: ad.softmax_cross_entropy(t[0], labels),
                    [RNG.normal(size=(3, 4))])


def test_grad_fan_out_matches_fd():
    # the same tensor feeds two branches; FD sees the summed effect
    check_gradients(
        lambda t: ad.add(ad.reduce_sum(ad.matmul(t[0], t[0])),
                         ad.reduce_mean(ad.gelu(t[0]))),
        [RNG.normal(size=(3, 3))])

