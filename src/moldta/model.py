"""Whole-pipeline configuration and the combined affinity model.

A DtiModel owns the molecule encoder, the protein tower and the interaction
head; its checkpoint stores every tensor under the prefixes transformer.,
protein. and interaction., together with the configs and both vocabularies,
so a saved model is self-contained.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import transformer as mt
from .autodiff import Tensor, no_grad
from .checkpoint import Checkpoint
from .codec import MOLECULE, PROTEIN, CodecConfig, Vocab, stack_sequences
from .errors import DataError
from .interaction import InteractionConfig, InteractionWeights, predict_affinity_batch
from .protein_cnn import ProteinCnnConfig, ProteinCnnWeights, protein_forward_ids
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

    @property
    def keep_rep_when_truncated(self) -> bool:
        return keep_rep_for(self.truncation_pooling)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of dataclasses.asdict, as stored in checkpoint metadata;
        a missing, unknown or mistyped field is a DataError."""
        try:
            return cls(**{**d, "codec": CodecConfig(**d["codec"]),
                          "transformer": TransformerConfig(**d["transformer"]),
                          "protein": ProteinCnnConfig(**d["protein"]),
                          "interaction": InteractionConfig(**d["interaction"])})
        except KeyError as exc:
            raise DataError(f"checkpoint model config lacks {exc}") from exc
        except TypeError as exc:
            raise DataError(f"checkpoint model config: {exc}") from exc

    @classmethod
    def for_mode(cls, mode: str, mol_vocab_size: int, prot_vocab_size: int,
                 sections: dict | None = None, **overrides) -> "ModelConfig":
        """The dataclass defaults overlaid with the mode's preset, then with
        `sections` ({"codec"|"transformer"|"protein"|"interaction": {field:
        value}}) and with top-level field `overrides`."""
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
            **overrides)


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

    def forward_ids(self, mol_ids, mol_mask, prot_ids, prot_mask,
                    training: bool = False, rng=None, p_rep: Tensor | None = None) -> Tensor:
        """Affinity predictions [B] for encoded molecule/protein id batches.

        `p_rep`, when given, is the protein tower's output for exactly these
        protein ids and mask; the tower is then not run again.
        """
        encoded = mt.encode_ids(mol_ids, mol_mask, self.tw, self.cfg.transformer,
                                training=training, rng=rng)
        if self.cfg.truncation_pooling == "rep":
            m_rep = mt.pool_rep_batch(encoded)
        else:
            m_rep = mt.pool_mean_batch(encoded, mol_mask)
        if p_rep is None:
            p_rep = protein_forward_ids(prot_ids, prot_mask, self.pw, self.cfg.protein)
        return predict_affinity_batch(m_rep, p_rep, self.iw, self.cfg.interaction,
                                      training=training, rng=rng)

    def predict(self, enc_mols, enc_prots, batch_size: int = 32) -> np.ndarray:
        """Inference-mode predictions for aligned encoded sequence lists,
        computed without recording a tape.

        A batch whose stacked proteins equal the previous batch's reuses that
        batch's tower output, so ranking many molecules against one target
        runs the tower once; every score is still the same computation as a
        direct call on its batch.
        """
        if len(enc_mols) != len(enc_prots):
            raise ValueError("molecule and protein lists must align")
        out = np.empty(len(enc_mols), dtype=np.float64)
        prev_ids = prev_mask = p_rep = None
        with no_grad():
            for start in range(0, len(enc_mols), batch_size):
                mols = enc_mols[start:start + batch_size]
                prot_ids, prot_mask = stack_sequences(enc_prots[start:start + batch_size])
                if not (np.array_equal(prot_ids, prev_ids)
                        and np.array_equal(prot_mask, prev_mask)):
                    p_rep = protein_forward_ids(prot_ids, prot_mask, self.pw, self.cfg.protein)
                    prev_ids, prev_mask = prot_ids, prot_mask
                pred = self.forward_ids(*stack_sequences(mols), prot_ids, prot_mask,
                                        p_rep=p_rep)
                out[start:start + len(mols)] = pred.data
        return out

    def to_checkpoint(self, extra_meta: dict | None = None) -> Checkpoint:
        meta = {
            "kind": "dti",
            "model": asdict(self.cfg),
            "mol_vocab": list(self.mol_vocab.tokens),
            "prot_vocab": list(self.prot_vocab.tokens),
        }
        if extra_meta:
            meta.update(extra_meta)
        tensors = {name: t.data.copy() for name, t in self.named_params().items()}
        return Checkpoint(meta=meta, tensors=tensors)

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "DtiModel":
        if ckpt.meta.get("kind") != "dti":
            raise ValueError(f"not an affinity-model checkpoint: kind={ckpt.meta.get('kind')!r}")
        cfg = ModelConfig.from_dict(ckpt.require("model"))
        mol_vocab = Vocab(kind=MOLECULE, tokens=tuple(ckpt.require("mol_vocab")))
        prot_vocab = Vocab(kind=PROTEIN, tokens=tuple(ckpt.require("prot_vocab")))
        # no rng: weights start as zeros, and restore() overwrites every one
        model = cls(cfg, mol_vocab, prot_vocab, None)
        ckpt.restore(model.named_params())
        return model
