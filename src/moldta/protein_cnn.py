"""Protein tower: embedding lookup, three stacked valid 1-D convolutions
with ReLU, and max pooling over the sequence axis.

Padding positions participate in the convolutions with the [PAD] embedding;
salience selection happens at the max-pooling stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .transformer import _param, _zeros


@dataclass(frozen=True)
class ProteinCnnConfig:
    vocab_size: int
    embed_dim: int = 128
    filter_lengths: tuple[int, ...] = (12, 12, 12)
    filter_counts: tuple[int, ...] = (32, 64, 96)

    def __post_init__(self):
        object.__setattr__(self, "filter_lengths", tuple(self.filter_lengths))
        object.__setattr__(self, "filter_counts", tuple(self.filter_counts))
        if self.vocab_size <= 0 or self.embed_dim <= 0:
            raise ValueError("vocab and embedding sizes must be positive")
        if len(self.filter_lengths) != len(self.filter_counts):
            raise ValueError("filter_lengths and filter_counts must align")
        if any(s < 1 for s in self.filter_lengths) or any(m < 1 for m in self.filter_counts):
            raise ValueError("filter lengths and counts must be >= 1")

    @property
    def out_width(self) -> int:
        return self.filter_counts[-1]


class ProteinCnnWeights:
    """Embedding table plus per-layer filters [s_i, prev_width, m_i] and biases."""

    def __init__(self, cfg: ProteinCnnConfig, rng):
        self.cfg = cfg
        self.pte = _param((cfg.vocab_size, cfg.embed_dim), rng)
        self.filters = []
        self.biases = []
        prev = cfg.embed_dim
        for s, m in zip(cfg.filter_lengths, cfg.filter_counts):
            self.filters.append(_param((s, prev, m), rng))
            self.biases.append(_zeros(m))
            prev = m

    def named(self) -> dict[str, Tensor]:
        out = {"pte": self.pte}
        for i, (f, b) in enumerate(zip(self.filters, self.biases)):
            out[f"conv{i}.w"] = f
            out[f"conv{i}.b"] = b
        return out


def receptive_field(cfg: ProteinCnnConfig) -> int:
    """Widest input span one output position can depend on: sum(s_i - 1) + 1."""
    return sum(s - 1 for s in cfg.filter_lengths) + 1


def protein_forward_ids(ids: np.ndarray, mask: np.ndarray, w: ProteinCnnWeights) -> Tensor:
    """Tower over an id batch [B, L] -> pooled features [B, m_last].

    The fixed padded length must cover the filter stack, and every sequence
    must have at least receptive_field real tokens.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    rf = receptive_field(w.cfg)
    real = mask.sum(axis=-1)
    if (real < rf).any():
        raise ValueError(
            f"protein with {int(real.min())} real tokens is shorter than the "
            f"receptive field {rf}")
    x = ad.embedding_lookup(w.pte, ids)
    for f, b in zip(w.filters, w.biases):
        x = ad.relu(ad.conv1d(x, f, b))
    return ad.max_pool_over_length(x)
