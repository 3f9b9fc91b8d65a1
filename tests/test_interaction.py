"""Interaction head: dense stack arithmetic, loss contract, gradients."""

import numpy as np
import pytest

from gradcheck import check_param_gradients
from moldta import autodiff as ad
from moldta.autodiff import Tensor
from moldta.interaction import (InteractionConfig, InteractionWeights, mse_loss,
                                predict_affinity_batch)

TINY = InteractionConfig(dense_sizes=(8,), dropout=0.1)


def test_config_defaults_and_validation():
    assert InteractionConfig().dense_sizes == (1024, 1024, 512)
    assert InteractionConfig(dense_sizes=(1024, 512)).dense_sizes == (1024, 512)
    with pytest.raises(ValueError):
        InteractionConfig(dense_sizes=())
    with pytest.raises(ValueError):
        InteractionConfig(dense_sizes=(8, -1))


def test_zero_weights_zero_output():
    w = InteractionWeights(TINY, 6, np.random.default_rng(0))
    for dense_w, dense_b in w.dense:
        dense_w.data[:] = 0.0
        dense_b.data[:] = 0.0
    w.reg_w.data[:] = 0.0
    w.reg_b.data[:] = 0.0
    out = predict_affinity_batch(Tensor(np.ones((1, 4))), Tensor(np.ones((1, 2))), w)
    assert float(out.data[0]) == 0.0


def test_regression_bias_passthrough_on_zero_input():
    w = InteractionWeights(TINY, 6, np.random.default_rng(0))
    w.reg_b.data[:] = 2.5
    out = predict_affinity_batch(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 2))), w)
    # relu(0 @ W + 0) = 0 through the stack, so only the regression bias remains
    assert float(out.data[0]) == 2.5


def test_hand_set_toy_network():
    cfg = InteractionConfig(dense_sizes=(2,), dropout=0.0)
    w = InteractionWeights(cfg, 2, np.random.default_rng(0))
    w.dense[0][0].data = np.array([[1.0, -1.0], [2.0, 0.5]])
    w.dense[0][1].data = np.array([0.1, -0.2])
    w.reg_w.data = np.array([[3.0], [-1.0]])
    w.reg_b.data = np.array([0.25])
    m = np.array([[0.5]])
    p = np.array([[-1.5]])
    hidden = np.maximum(np.array([0.5, -1.5]) @ w.dense[0][0].data + w.dense[0][1].data, 0.0)
    expected = float((hidden @ w.reg_w.data + w.reg_b.data)[0])
    out = predict_affinity_batch(Tensor(m), Tensor(p), w)
    assert float(out.data[0]) == pytest.approx(expected, abs=1e-12)


def test_width_mismatch_errors():
    w = InteractionWeights(TINY, 6, np.random.default_rng(0))
    with pytest.raises(ValueError, match="width"):
        predict_affinity_batch(Tensor(np.ones((1, 3))), Tensor(np.ones((1, 2))), w)


def test_batch_forward_matches_singles():
    w = InteractionWeights(TINY, 6, np.random.default_rng(1))
    rng = np.random.default_rng(2)
    m = rng.normal(size=(5, 4))
    p = rng.normal(size=(5, 2))
    batch = predict_affinity_batch(Tensor(m), Tensor(p), w)
    for i in range(5):
        single = predict_affinity_batch(Tensor(m[i:i + 1]), Tensor(p[i:i + 1]), w)
        assert float(single.data[0]) == pytest.approx(float(batch.data[i]), abs=1e-12)


def test_mse_loss_values_and_errors():
    assert float(mse_loss(Tensor(np.array([0.0])), [2.0]).data) == 4.0
    assert float(mse_loss(Tensor(np.array([1.0, 3.0])), [0.0, 0.0]).data) == 5.0
    assert float(mse_loss(Tensor(np.array([1.0, 2.0])), [1.0, 2.0]).data) == 0.0
    with pytest.raises(ValueError):
        mse_loss(Tensor(np.array([1.0])), [1.0, 2.0])
    with pytest.raises(ValueError):
        mse_loss(Tensor(np.empty(0)), [])


def test_mse_loss_nonnegative_random():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pred = Tensor(rng.normal(size=7))
        target = rng.normal(size=7)
        loss = float(mse_loss(pred, target).data)
        assert loss >= 0.0
        assert (loss == 0.0) == bool(np.array_equal(pred.data, target))


def test_inference_deterministic():
    w = InteractionWeights(TINY, 6, np.random.default_rng(4))
    m, p = Tensor(np.ones((1, 4))), Tensor(np.ones((1, 2)))
    a = predict_affinity_batch(m, p, w)
    b = predict_affinity_batch(m, p, w)
    assert a.data.tobytes() == b.data.tobytes()


def test_gradient_check_through_concat_and_dense_stack():
    cfg = InteractionConfig(dense_sizes=(5, 3), dropout=0.1)
    w = InteractionWeights(cfg, 6, np.random.default_rng(5))
    rng = np.random.default_rng(6)
    m = rng.normal(size=(2, 4))
    p = rng.normal(size=(2, 2))
    targets = rng.normal(size=2)

    def loss_fn():
        pred = predict_affinity_batch(Tensor(m), Tensor(p), w)
        return mse_loss(pred, targets)

    worst = check_param_gradients(loss_fn, w.named())
    assert max(worst.values()) < 1e-4
