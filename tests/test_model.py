"""Combined model: presets, forward wiring, checkpoint fidelity."""

from dataclasses import asdict

import numpy as np
import pytest

from moldta.codec import MOLECULE, PROTEIN, CodecConfig, build_vocab, encode_molecule, encode_protein
from moldta.interaction import InteractionConfig
from moldta.model import MODE_PRESETS, DtiModel, ModelConfig
from moldta.protein_cnn import ProteinCnnConfig
from moldta.transformer import TransformerConfig


def tiny_setup(seed=0):
    mol_vocab = build_vocab(["CN=C=O", "CCO", "c1ccccc1"], MOLECULE)
    prot_vocab = build_vocab(["MKTAYIAKQR"], PROTEIN)
    codec = CodecConfig(mol_max_len=16, prot_max_len=24)
    cfg = ModelConfig(
        codec=codec,
        transformer=TransformerConfig(vocab_size=len(mol_vocab), num_layers=1,
                                      num_heads=2, hidden=8, intermediate=12,
                                      max_len=16),
        protein=ProteinCnnConfig(vocab_size=len(prot_vocab), embed_dim=6,
                                 filter_lengths=(3, 3), filter_counts=(4, 5)),
        interaction=InteractionConfig(dense_sizes=(7,), dropout=0.1),
    )
    model = DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(seed))
    return model, codec, mol_vocab, prot_vocab


def test_mode_presets_match_published_settings():
    kiba = MODE_PRESETS["kiba"]
    davis = MODE_PRESETS["davis"]
    assert kiba["filter_lengths"] == (12, 12, 12)
    assert davis["filter_lengths"] == (8, 8, 8)
    assert kiba["dense_sizes"] == (1024, 1024, 512)
    assert davis["dense_sizes"] == (1024, 512)
    assert kiba["learning_rate"] == 1e-4
    assert davis["learning_rate"] == 1e-3


def test_for_mode_builds_consistent_config():
    cfg = ModelConfig.for_mode("davis", mol_vocab_size=40, prot_vocab_size=22)
    assert cfg.transformer.vocab_size == 40
    assert cfg.protein.filter_lengths == (8, 8, 8)
    assert cfg.interaction.dense_sizes == (1024, 512)
    assert cfg.protein.out_width == 96
    with pytest.raises(ValueError, match="unknown dataset mode"):
        ModelConfig.for_mode("nope", 10, 10)


def test_model_config_dict_round_trip():
    _, codec, mol_vocab, prot_vocab = tiny_setup()
    cfg = ModelConfig.for_mode("kiba", len(mol_vocab), len(prot_vocab))
    assert ModelConfig.from_dict(asdict(cfg)) == cfg


def test_model_config_validation():
    with pytest.raises(ValueError, match="truncation_pooling"):
        ModelConfig.for_mode("kiba", 10, 10, truncation_pooling="max")
    with pytest.raises(ValueError, match="mol_max_len"):
        ModelConfig(codec=CodecConfig(mol_max_len=50),
                    transformer=TransformerConfig(vocab_size=10, max_len=100),
                    protein=ProteinCnnConfig(vocab_size=10),
                    interaction=InteractionConfig())


def test_forward_shapes_and_interaction_width():
    model, codec, mol_vocab, prot_vocab = tiny_setup()
    mol = encode_molecule("CCO", mol_vocab, codec)
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    pred = model.forward_ids(mol.ids[None], mol.mask[None], prot.ids[None], prot.mask[None])
    assert pred.data.shape == (1,)
    assert model.iw.in_width == 8 + 5  # hidden + last filter count


def test_predict_matches_forward_per_pair():
    model, codec, mol_vocab, prot_vocab = tiny_setup()
    mols = [encode_molecule(s, mol_vocab, codec) for s in ("CCO", "CN=C=O", "c1ccccc1")]
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    batch = model.predict(mols, [prot] * 3, batch_size=1)
    for i, mol in enumerate(mols):
        single = model.forward_ids(mol.ids[None], mol.mask[None],
                                   prot.ids[None], prot.mask[None])
        assert batch[i] == float(single.data[0])  # bitwise


def test_checkpoint_round_trip_forward_bitwise(tmp_path):
    model, codec, mol_vocab, prot_vocab = tiny_setup(seed=3)
    mol = encode_molecule("CN=C=O", mol_vocab, codec)
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    before = model.predict([mol], [prot])
    path = tmp_path / "dti.ckpt"
    model.to_checkpoint().save(path)
    from moldta.checkpoint import Checkpoint
    restored = DtiModel.from_checkpoint(Checkpoint.load(path))
    after = restored.predict([mol], [prot])
    assert before.tobytes() == after.tobytes()
    assert restored.cfg == model.cfg
    assert restored.mol_vocab.tokens == mol_vocab.tokens


def test_from_checkpoint_rejects_wrong_kind():
    from moldta.checkpoint import Checkpoint
    with pytest.raises(ValueError, match="kind"):
        DtiModel.from_checkpoint(Checkpoint(meta={"kind": "pretrain"}, tensors={}))


def test_mean_pooling_mode_runs():
    model, codec, mol_vocab, prot_vocab = tiny_setup()
    cfg = ModelConfig(codec=model.cfg.codec, transformer=model.cfg.transformer,
                      protein=model.cfg.protein, interaction=model.cfg.interaction,
                      truncation_pooling="mean")
    mean_model = DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(0))
    mol = encode_molecule("CCO", mol_vocab, codec)
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    pred = mean_model.predict([mol], [prot])
    assert np.isfinite(pred).all()
    assert not cfg.keep_rep_when_truncated
