"""Interaction head: concatenated molecule/protein vectors through a dense
ReLU stack with dropout, then a single linear regression output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import check_dims
from .transformer import _param, _zeros


@dataclass(frozen=True)
class InteractionConfig:
    dense_sizes: tuple[int, ...] = (1024, 1024, 512)
    dropout: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "dense_sizes", tuple(self.dense_sizes))
        check_dims(self, "dense_sizes")
        if not self.dense_sizes:
            raise ValueError("dense_sizes must be non-empty")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


class InteractionWeights:
    def __init__(self, cfg: InteractionConfig, in_width: int, rng):
        self.cfg = cfg
        self.in_width = in_width
        self.dense = []
        prev = in_width
        for size in cfg.dense_sizes:
            self.dense.append((_param((prev, size), rng), _zeros(size)))
            prev = size
        self.reg_w = _param((prev, 1), rng)
        self.reg_b = _zeros(1)

    def named(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(self.dense):
            out[f"dense{i}.w"] = w
            out[f"dense{i}.b"] = b
        out["reg.w"] = self.reg_w
        out["reg.b"] = self.reg_b
        return out


def predict_affinity_batch(m_rep: Tensor, p_rep: Tensor, w: InteractionWeights,
                           rng=None) -> Tensor:
    """Affinity scores [B] from molecule [B, D_M] and protein [B, m] vectors;
    dropout runs when an rng is given."""
    joint = ad.concat([m_rep, p_rep], axis=-1)
    if joint.data.shape[-1] != w.in_width:
        raise ValueError(
            f"interaction input width {joint.data.shape[-1]} does not match "
            f"weights built for {w.in_width}")
    x = joint
    for dense_w, dense_b in w.dense:
        x = ad.relu(ad.linear(x, dense_w, dense_b))
        x = ad.dropout(x, w.cfg.dropout, rng)
    out = ad.linear(x, w.reg_w, w.reg_b)
    return ad.reshape(out, out.data.shape[:-1])


def mse_loss(pred: Tensor, target) -> Tensor:
    """(1/n) sum of squared errors between predictions and targets."""
    target = np.asarray(target, dtype=np.float64)
    if pred.data.shape != target.shape:
        raise ValueError(f"prediction shape {pred.data.shape} vs target {target.shape}")
    if target.size == 0:
        raise ValueError("mse_loss of empty input")
    diff = ad.subtract(pred, Tensor(target))
    return ad.reduce_mean(ad.multiply(diff, diff))
