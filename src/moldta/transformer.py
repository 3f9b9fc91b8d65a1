"""Molecule encoder: token + position embeddings, stacked multi-head
self-attention blocks (post-norm: sublayer -> dropout -> add -> norm),
a masked-token prediction head, and pooling of the position-0 vector.

Forward functions operate on id batches [B, L]; a single sequence is a
batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import check_dims


@dataclass(frozen=True)
class TransformerConfig:
    vocab_size: int
    num_layers: int = 8
    num_heads: int = 8
    hidden: int = 128
    intermediate: int = 512
    dropout: float = 0.1
    max_len: int = 100

    def __post_init__(self):
        check_dims(self, "vocab_size", "num_layers", "num_heads", "hidden", "intermediate",
                   "max_len")
        if self.hidden % self.num_heads != 0:
            raise ValueError(
                f"hidden size {self.hidden} not divisible by {self.num_heads} heads")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must lie in [0, 1)")


INIT_STD = 0.02  # standard deviation of every trainable weight matrix at init


def trunc_normal(shape, rng) -> np.ndarray:
    """Zero-mean Gaussian of std INIT_STD truncated at +/-2 std, re-drawing the tails."""
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > 2 * INIT_STD
    while bad.any():
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > 2 * INIT_STD
    return out


def _param(shape, rng) -> Tensor:
    """Trainable truncated-normal weights; zeros when rng is None, for a
    model whose every weight is about to be loaded from a checkpoint."""
    data = np.zeros(shape) if rng is None else trunc_normal(shape, rng)
    return Tensor(data, requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def _ones(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


class LayerWeights:
    """One attention block: fused q/k/v projections, output projection,
    feed-forward pair, and the two normalization affines."""

    FIELDS = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo",
              "ln1_g", "ln1_b", "ff1_w", "ff1_b", "ff2_w", "ff2_b",
              "ln2_g", "ln2_b")

    def __init__(self, cfg: TransformerConfig, rng):
        self.cfg = cfg
        d, inter = cfg.hidden, cfg.intermediate
        self.wq, self.wk, self.wv = _param((d, d), rng), _param((d, d), rng), _param((d, d), rng)
        self.bq, self.bk, self.bv = _zeros(d), _zeros(d), _zeros(d)
        self.wo, self.bo = _param((d, d), rng), _zeros(d)
        self.ln1_g, self.ln1_b = _ones(d), _zeros(d)
        self.ff1_w, self.ff1_b = _param((d, inter), rng), _zeros(inter)
        self.ff2_w, self.ff2_b = _param((inter, d), rng), _zeros(d)
        self.ln2_g, self.ln2_b = _ones(d), _zeros(d)


class TransformerWeights:
    """All trainable tensors of the molecule encoder plus its LM head."""

    def __init__(self, cfg: TransformerConfig, rng):
        self.cfg = cfg
        self.mte = _param((cfg.vocab_size, cfg.hidden), rng)
        self.pe = _param((cfg.max_len, cfg.hidden), rng)
        self.layers = [LayerWeights(cfg, rng) for _ in range(cfg.num_layers)]
        self.lm_w = _param((cfg.hidden, cfg.vocab_size), rng)
        self.lm_b = _zeros(cfg.vocab_size)

    def named(self) -> dict[str, Tensor]:
        out = {"mte": self.mte, "pe": self.pe}
        for i, layer in enumerate(self.layers):
            for name in LayerWeights.FIELDS:
                out[f"layer{i}.{name}"] = getattr(layer, name)
        out["lm_w"] = self.lm_w
        out["lm_b"] = self.lm_b
        return out


def embed_ids(ids: np.ndarray, w: TransformerWeights) -> Tensor:
    """Token-embedding rows plus position embeddings, padding included."""
    ids = np.asarray(ids, dtype=np.int64)
    length = ids.shape[-1]
    if length > w.pe.data.shape[0]:
        raise ValueError(f"sequence length {length} exceeds position table {w.pe.data.shape[0]}")
    tok = ad.embedding_lookup(w.mte, ids)
    pos = ad.embedding_lookup(w.pe, np.arange(length))
    return ad.add(tok, pos)


def attention_block(x: Tensor, key_bias: np.ndarray, layer: LayerWeights,
                    rng=None, rep_only: bool = False) -> Tensor:
    """One encoder block over [B, L, D]; key_bias [B, 1, 1, L] is 0 at real
    keys and -inf at padding. Dropout runs when an rng is given. With
    rep_only, row 0 alone is the query and the output is [B, 1, D]; keys and
    values still come from every row."""
    cfg = layer.cfg
    rows = x
    if rep_only:
        rows = ad.reshape(ad.take_index(x, 0, axis=1), (x.data.shape[0], 1, cfg.hidden))
    ctx = ad.attention(ad.linear(rows, layer.wq, layer.bq), ad.linear(x, layer.wk, layer.bk),
                       ad.linear(x, layer.wv, layer.bv), key_bias, cfg.num_heads)
    attn_out = ad.dropout(ad.linear(ctx, layer.wo, layer.bo), cfg.dropout, rng)
    x = ad.residual_layer_norm(rows, attn_out, layer.ln1_g, layer.ln1_b)
    ff = ad.gelu(ad.linear(x, layer.ff1_w, layer.ff1_b))
    ff = ad.dropout(ad.linear(ff, layer.ff2_w, layer.ff2_b), cfg.dropout, rng)
    return ad.residual_layer_norm(x, ff, layer.ln2_g, layer.ln2_b)


def encode_ids(ids: np.ndarray, mask: np.ndarray, w: TransformerWeights,
               rng=None, rep_only: bool = False) -> Tensor:
    """Full encoder over an id batch [B, L] -> [B, L, D] that attends only to
    keys where mask [B, L] is True; dropout runs when an rng is given. With
    rep_only the last block computes row 0 (the [REP] slot) alone and the
    result is [B, 1, D]."""
    x = embed_ids(ids, w)
    mask = np.asarray(mask, dtype=bool)
    if not mask.any(axis=-1).all():
        raise ValueError("cannot encode a sequence with no real tokens")
    key_bias = np.where(mask, 0.0, -np.inf)[:, None, None, :]
    last = len(w.layers) - 1
    for i, layer in enumerate(w.layers):
        x = attention_block(x, key_bias, layer, rng, rep_only=rep_only and i == last)
    return x


def pool_rep_batch(encoded: Tensor) -> Tensor:
    """Whole-molecule vectors [B, D]: row 0 of each encoding (the [REP] slot)."""
    return ad.take_index(encoded, 0, axis=1)


def pool_mean_batch(encoded: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over real (mask True) positions of [B, L, D] -> [B, D]; every row
    has one, as encode_ids checked."""
    mask = np.asarray(mask, dtype=np.float64)
    counts = mask.sum(axis=1, keepdims=True)
    weights = Tensor(mask[:, :, None] / counts[:, :, None])
    return ad.reduce_sum(ad.multiply(encoded, weights), axis=1)


def lm_logits(encoded: Tensor, w: TransformerWeights) -> Tensor:
    """Per-position vocabulary logits via the LM projection head."""
    return ad.linear(encoded, w.lm_w, w.lm_b)
