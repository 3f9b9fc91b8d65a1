"""Protein tower: embedding lookup, three stacked valid 1-D convolutions
with ReLU, and max pooling over the sequence axis.

The lookup and the first convolution run as one op, embedding_conv1d, which
never builds the embedded sequence or its windows; the later convolutions
use conv1d. Padding positions participate in every convolution: at layer 0
a [PAD] id selects the [PAD] row of each per-offset table (pte @ filter),
exactly as the [PAD] embedding would enter an explicit lookup. Salience
selection happens at the max-pooling stage, which sees padded positions too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, check_dims
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
        check_dims(self, "vocab_size", "embed_dim", "filter_lengths", "filter_counts")
        if len(self.filter_lengths) != len(self.filter_counts):
            raise ValueError("filter_lengths and filter_counts must align")

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


def check_real_lengths(real_counts, cfg: ProteinCnnConfig) -> None:
    """Raise DataError when a protein has fewer real tokens than the
    receptive field; real_counts holds one count per protein."""
    rf = receptive_field(cfg)
    shortest = min(real_counts, default=rf)
    if shortest < rf:
        raise DataError(f"protein with {int(shortest)} real tokens is shorter than the "
                        f"receptive field {rf}")


def protein_forward_ids(ids: np.ndarray, mask: np.ndarray, w: ProteinCnnWeights) -> Tensor:
    """Tower over an id batch [B, L] -> pooled features [B, m_last].

    The fixed padded length must cover the filter stack, and every sequence
    must have at least receptive_field real tokens.
    """
    ids = np.asarray(ids, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    check_real_lengths(mask.sum(axis=-1).tolist(), w.cfg)
    x = ad.relu(ad.embedding_conv1d(w.pte, ids, w.filters[0], w.biases[0]))
    for f, b in zip(w.filters[1:], w.biases[1:]):
        x = ad.relu(ad.conv1d(x, f, b))
    return ad.max_pool_over_length(x)
