"""Whole-pipeline configuration, the combined affinity model, and the
metadata of both checkpoint kinds.

A DtiModel owns the molecule encoder, the protein tower and the interaction
head; its checkpoint stores every tensor under the prefixes transformer.,
protein. and interaction., together with the configs and both vocabularies,
so a saved model is self-contained. A warm start loads a pretraining
checkpoint: the encoder's tensors and config, codec, vocabulary and pooling.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import transformer as mt
from .autodiff import Tensor, no_grad
from .checkpoint import Checkpoint
from .codec import MOLECULE, PAD_ID, PROTEIN, CodecConfig, Vocab
from .errors import DataError
from .interaction import InteractionConfig, InteractionWeights, predict_affinity_batch
from .protein_cnn import ProteinCnnConfig, ProteinCnnWeights, protein_forward_ids, receptive_field
from .transformer import TransformerConfig, TransformerWeights

# Per-dataset presets: protein filter length, dense stack, learning rate.
MODE_PRESETS = {
    "kiba": {"filter_lengths": (12, 12, 12), "dense_sizes": (1024, 1024, 512),
             "learning_rate": 1e-4},
    "davis": {"filter_lengths": (8, 8, 8), "dense_sizes": (1024, 512),
              "learning_rate": 1e-3},
}


def keep_rep_for(truncation_pooling: str) -> bool:
    """Validate a pooling name; True when truncated molecules keep [REP]."""
    if truncation_pooling not in ("rep", "mean"):
        raise ValueError("truncation_pooling must be 'rep' or 'mean'")
    return truncation_pooling == "rep"


@dataclass(frozen=True)
class ModelConfig:
    """All architecture hyperparameters for one end-to-end model."""

    codec: CodecConfig
    transformer: TransformerConfig
    protein: ProteinCnnConfig
    interaction: InteractionConfig
    # How truncated molecules are pooled: "rep" keeps [REP] at position 0
    # while truncating (pool row 0); "mean" pools the masked mean instead.
    truncation_pooling: str = "rep"

    def __post_init__(self):
        keep_rep_for(self.truncation_pooling)
        if self.codec.mol_max_len != self.transformer.max_len:
            raise ValueError("codec mol_max_len must equal transformer max_len")
        if self.codec.prot_max_len < receptive_field(self.protein):
            raise ValueError(f"codec prot_max_len {self.codec.prot_max_len} is shorter "
                             f"than the protein receptive field {receptive_field(self.protein)}")

    @property
    def keep_rep_when_truncated(self) -> bool:
        return keep_rep_for(self.truncation_pooling)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of dataclasses.asdict, as stored in checkpoint metadata."""
        return cls(**{**d, "codec": CodecConfig(**d["codec"]),
                      "transformer": TransformerConfig(**d["transformer"]),
                      "protein": ProteinCnnConfig(**d["protein"]),
                      "interaction": InteractionConfig(**d["interaction"])})

    @classmethod
    def for_mode(cls, mode: str, mol_vocab_size: int, prot_vocab_size: int,
                 sections: dict | None = None) -> "ModelConfig":
        """The dataclass defaults overlaid with the mode's preset, then with
        `sections` ({"codec"|"transformer"|"protein"|"interaction"|"model":
        {field: value}}, "model" holding ModelConfig's own fields)."""
        if mode not in MODE_PRESETS:
            raise ValueError(f"unknown dataset mode {mode!r}")
        preset = MODE_PRESETS[mode]
        sections = sections or {}
        codec = CodecConfig(**sections.get("codec", {}))
        return cls(
            codec=codec,
            transformer=TransformerConfig(**{"vocab_size": mol_vocab_size,
                                             "max_len": codec.mol_max_len,
                                             **sections.get("transformer", {})}),
            protein=ProteinCnnConfig(**{"vocab_size": prot_vocab_size,
                                        "filter_lengths": preset["filter_lengths"],
                                        **sections.get("protein", {})}),
            interaction=InteractionConfig(**{"dense_sizes": preset["dense_sizes"],
                                             **sections.get("interaction", {})}),
            **sections.get("model", {}))


# Checkpoint metadata key -> (its name in errors, the function building its value).
META_VALUES = {
    "model": ("model config", ModelConfig.from_dict),
    "transformer": ("transformer", lambda d: TransformerConfig(**d)),
    "codec": ("codec", lambda d: CodecConfig(**d)),
    "mol_vocab": ("mol_vocab", lambda tokens: Vocab(kind=MOLECULE, tokens=tuple(tokens))),
    "prot_vocab": ("prot_vocab", lambda tokens: Vocab(kind=PROTEIN, tokens=tuple(tokens))),
    "keep_rep_when_truncated": ("keep_rep_when_truncated", lambda keep_rep: keep_rep),
}
WRONG_KIND = {"dti": "not an affinity-model checkpoint: kind={!r}",
              "pretrain": "warm start requires a pretraining checkpoint, got kind={!r}"}


def read_meta(ckpt: Checkpoint, kind: str, *keys) -> tuple:
    """The built values of the named metadata keys of a checkpoint of the
    given kind, in order. A wrong kind, a missing key or a value that its
    function rejects (a missing, unknown or mistyped field) is a DataError."""
    if ckpt.meta.get("kind") != kind:
        raise DataError(WRONG_KIND[kind].format(ckpt.meta.get("kind")))
    values = []
    for key in keys:
        name, build = META_VALUES[key]
        try:
            values.append(build(ckpt.meta[key]))
        except KeyError as exc:  # the key itself, or a field of a model config
            where = name if key in ckpt.meta else "metadata"
            raise DataError(f"checkpoint {where} lacks {exc}") from exc
        except TypeError as exc:
            raise DataError(f"checkpoint {name}: {exc}") from exc
        except ValueError as exc:  # the message names the field
            raise DataError(str(exc)) from exc
    return tuple(values)


def pretrain_checkpoint(weights: TransformerWeights, codec: CodecConfig, vocab: Vocab,
                        keep_rep_when_truncated: bool, step: int) -> Checkpoint:
    """A pretraining snapshot, the encoder's tensors under "transformer."."""
    meta = {"kind": "pretrain", "transformer": asdict(weights.cfg), "codec": asdict(codec),
            "mol_vocab": list(vocab.tokens),
            "keep_rep_when_truncated": keep_rep_when_truncated, "step": step}
    return Checkpoint(meta=meta, tensors={f"transformer.{n}": t.data.copy()
                                          for n, t in weights.named().items()})


def load_warm_start(model: DtiModel, ckpt: Checkpoint):
    """Load a pretraining checkpoint into the model's molecule encoder. Its
    transformer config, molecule vocabulary and truncation pooling must match
    the model's; the protein tower and interaction head keep their weights."""
    transformer_cfg, mol_vocab, keep_rep = read_meta(
        ckpt, "pretrain", "transformer", "mol_vocab", "keep_rep_when_truncated")
    if transformer_cfg != model.cfg.transformer:
        raise DataError("warm-start transformer config does not match the model")
    if mol_vocab != model.mol_vocab:
        raise DataError("warm-start molecule vocabulary does not match the model")
    if keep_rep is not model.cfg.keep_rep_when_truncated:  # a non-bool fails too
        raise DataError("warm-start truncation pooling does not match the model")
    ckpt.restore(model.tw.named(), "transformer.")


def rows_per_pair(id_arrays, run, batch_size: int) -> list:
    """run's output row for each array, running each distinct array (keyed by
    its id bytes) once, in first-appearance order and in chunks of batch_size."""
    slots = {}
    where = [slots.setdefault(ids.tobytes(), (len(slots), ids))[0] for ids in id_arrays]
    distinct = [ids for _, ids in slots.values()]
    rows = [row for i in range(0, len(distinct), batch_size)
            for row in run(np.stack(distinct[i:i + batch_size])).data]
    return [rows[j] for j in where]


class DtiModel:
    """Molecule encoder + protein tower + interaction head."""

    def __init__(self, cfg: ModelConfig, mol_vocab: Vocab, prot_vocab: Vocab, rng):
        if len(mol_vocab) != cfg.transformer.vocab_size:
            raise ValueError("molecule vocab size does not match transformer config")
        if len(prot_vocab) != cfg.protein.vocab_size:
            raise ValueError("protein vocab size does not match protein config")
        self.cfg = cfg
        self.mol_vocab = mol_vocab
        self.prot_vocab = prot_vocab
        self.tw = TransformerWeights(cfg.transformer, rng)
        self.pw = ProteinCnnWeights(cfg.protein, rng)
        self.iw = InteractionWeights(
            cfg.interaction,
            cfg.transformer.hidden + cfg.protein.out_width, rng)

    def named_params(self) -> dict[str, Tensor]:
        out = {}
        for prefix, part in (("transformer", self.tw), ("protein", self.pw),
                             ("interaction", self.iw)):
            out.update({f"{prefix}.{name}": t for name, t in part.named().items()})
        return out

    def encode_molecules(self, mol_ids, rng=None) -> Tensor:
        """Pooled molecule vectors [B, hidden] for an encoded id batch;
        dropout runs when an rng is given.

        The encoder runs only what the pooling reads: the molecule columns up
        to the last one holding a real token in any row, and under "rep"
        pooling a last block whose only query is row 0 (queries of zeros
        [B, 1]). Neither changes the result in exact arithmetic, since padded
        keys get zero weight.
        """
        mol_mask = mol_ids != PAD_ID
        rep = self.cfg.truncation_pooling == "rep"
        width = mol_mask.shape[1] - int(mol_mask.any(axis=0)[::-1].argmax())
        mol_ids, mol_mask = mol_ids[:, :width], mol_mask[:, :width]
        queries = np.zeros((len(mol_ids), 1), dtype=np.int64) if rep else None
        encoded = mt.encode_ids(mol_ids, mol_mask, self.tw, rng, queries)
        return mt.pool_rep_batch(encoded) if rep else mt.pool_mean_batch(encoded, mol_mask)

    def encode_proteins(self, prot_ids) -> Tensor:
        """The protein tower's vectors [B, out_width] for an encoded id batch."""
        return protein_forward_ids(prot_ids, prot_ids != PAD_ID, self.pw)

    def forward_ids(self, mol_ids, prot_ids, rng=None) -> Tensor:
        """Affinity predictions [B] for encoded molecule/protein id batches;
        dropout runs when an rng is given."""
        return predict_affinity_batch(self.encode_molecules(mol_ids, rng),
                                      self.encode_proteins(prot_ids), self.iw, rng)

    def predict(self, enc_mols, enc_prots, batch_size: int = 32) -> np.ndarray:
        """Inference-mode predictions for aligned lists of encoded molecule
        and protein id arrays, computed without recording a tape. The encoder
        and the tower run once per distinct input (rows_per_pair), the head on
        consecutive batches of pairs. A tower row does not depend on its batch,
        so when no molecule repeats, each score is bitwise forward_ids on its batch."""
        if len(enc_mols) != len(enc_prots):
            raise ValueError("molecule and protein lists must align")
        out = np.empty(len(enc_mols), dtype=np.float64)
        with no_grad():
            m_rows = rows_per_pair(enc_mols, self.encode_molecules, batch_size)
            p_rows = rows_per_pair(enc_prots, self.encode_proteins, batch_size)
            for i in range(0, len(out), batch_size):
                pairs = slice(i, i + batch_size)
                out[pairs] = predict_affinity_batch(Tensor(np.stack(m_rows[pairs])),
                                                    Tensor(np.stack(p_rows[pairs])), self.iw).data
        return out

    def to_checkpoint(self, extra_meta: dict | None = None) -> Checkpoint:
        meta = {"kind": "dti", "model": asdict(self.cfg), "mol_vocab": list(self.mol_vocab.tokens),
                "prot_vocab": list(self.prot_vocab.tokens), **(extra_meta or {})}
        tensors = {name: t.data.copy() for name, t in self.named_params().items()}
        return Checkpoint(meta=meta, tensors=tensors)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "DtiModel":
        cfg, mol_vocab, prot_vocab = read_meta(ckpt, "dti", "model", "mol_vocab", "prot_vocab")
        # no rng: weights start as zeros, and restore() overwrites every one
        model = cls(cfg, mol_vocab, prot_vocab, None)
        ckpt.restore(model.named_params())
        return model
