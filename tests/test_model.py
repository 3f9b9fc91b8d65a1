"""Combined model: presets, forward wiring, checkpoint fidelity."""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moldta import model as model_module
from moldta import transformer as transformer_module
from moldta.checkpoint import Checkpoint
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


# Three proteins the tiny protein vocab can encode, each above the
# receptive field of 5.
PROTS = ("MKTAYIAKQR", "KQRAYMT", "TAYIAKQRMKTA")


def count_tower_calls(monkeypatch):
    calls = []
    tower = model_module.protein_forward_ids

    def counted(ids, *args, **kwargs):
        calls.append(ids.shape[0])
        return tower(ids, *args, **kwargs)

    monkeypatch.setattr(model_module, "protein_forward_ids", counted)
    return calls


@pytest.mark.parametrize("batch_size, tower_rows", [
    # one call per run of equal proteins at batch 1; at batch 3 the second
    # batch of three c's reuses the first one's output
    (1, [1] * 9),
    (3, [3, 3, 3, 2]),
])
def test_predict_reuses_tower_only_for_equal_batches_bitwise(monkeypatch, batch_size,
                                                             tower_rows):
    model, codec, mol_vocab, prot_vocab = tiny_setup(seed=2)
    a, b, c = (encode_protein(p, prot_vocab, codec) for p in PROTS)
    # alternating, then repeated, then distinct, with a short last batch at 3
    prots = [a, b, a, b, a, b, c, c, c, c, c, c, a, b]
    smiles = ("CCO", "CN=C=O", "c1ccccc1", "OCC", "C=O")
    mols = [encode_molecule(smiles[i % len(smiles)], mol_vocab, codec)
            for i in range(len(prots))]
    expected = []
    for start in range(0, len(mols), batch_size):
        mb, pb = mols[start:start + batch_size], prots[start:start + batch_size]
        expected.extend(model.forward_ids(np.stack([m.ids for m in mb]),
                                          np.stack([m.mask for m in mb]),
                                          np.stack([p.ids for p in pb]),
                                          np.stack([p.mask for p in pb])).data)
    calls = count_tower_calls(monkeypatch)
    got = model.predict(mols, prots, batch_size=batch_size)
    assert got.tobytes() == np.array(expected).tobytes()
    assert calls == tower_rows


def test_predict_batch_size_changes_scores_only_within_bound():
    # changing the batch size is not a bitwise contract: BLAS may sum in a
    # different order; 1e-19 to 1e-18 measured on this model
    model, codec, mol_vocab, prot_vocab = tiny_setup(seed=4)
    prots = [encode_protein(PROTS[i % 3], prot_vocab, codec) for i in range(11)]
    mols = [encode_molecule(("CCO", "CN=C=O", "c1ccccc1", "OCC")[i % 4], mol_vocab, codec)
            for i in range(11)]
    one = model.predict(mols, prots, batch_size=1)
    eight = model.predict(mols, prots, batch_size=8)
    assert np.max(np.abs(one - eight)) <= 1e-12


def test_from_checkpoint_draws_no_random_weights(monkeypatch):
    model, codec, mol_vocab, prot_vocab = tiny_setup(seed=6)
    ckpt = model.to_checkpoint()

    def refuse(*args, **kwargs):
        raise AssertionError("from_checkpoint drew random weights")

    monkeypatch.setattr(transformer_module, "trunc_normal", refuse)
    restored = DtiModel.from_checkpoint(ckpt)
    mol = encode_molecule("CCO", mol_vocab, codec)
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    assert restored.predict([mol], [prot]).tobytes() == model.predict([mol], [prot]).tobytes()


def test_from_checkpoint_rejects_missing_tensor():
    model, *_ = tiny_setup()
    ckpt = model.to_checkpoint()
    del ckpt.tensors["interaction.reg.w"]
    with pytest.raises(ValueError, match=r"missing tensors.*interaction\.reg\.w"):
        DtiModel.from_checkpoint(ckpt)


@st.composite
def model_configs(draw):
    mol_vocab = build_vocab(["CN=C=O", "CCO", "c1ccccc1"], MOLECULE)
    prot_vocab = build_vocab(["MKTAYIAKQR"], PROTEIN)
    heads = draw(st.integers(1, 2))
    mol_len = draw(st.integers(4, 10))
    n_conv = draw(st.integers(1, 3))
    cfg = ModelConfig(
        codec=CodecConfig(mol_max_len=mol_len, prot_max_len=draw(st.integers(8, 20))),
        transformer=TransformerConfig(vocab_size=len(mol_vocab),
                                      num_layers=draw(st.integers(1, 2)), num_heads=heads,
                                      hidden=heads * draw(st.integers(1, 3)),
                                      intermediate=draw(st.integers(1, 6)),
                                      dropout=draw(st.sampled_from([0.0, 0.1])),
                                      max_len=mol_len),
        protein=ProteinCnnConfig(
            vocab_size=len(prot_vocab), embed_dim=draw(st.integers(1, 4)),
            filter_lengths=draw(st.lists(st.integers(1, 3), min_size=n_conv, max_size=n_conv)),
            filter_counts=draw(st.lists(st.integers(1, 4), min_size=n_conv, max_size=n_conv))),
        interaction=InteractionConfig(
            dense_sizes=tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=2)))),
        truncation_pooling=draw(st.sampled_from(["rep", "mean"])))
    return DtiModel(cfg, mol_vocab, prot_vocab,
                    np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@settings(max_examples=40, deadline=None)
@given(model_configs(), st.sampled_from([{}, {"epoch": 3, "dev_mse": 0.25}]))
def test_checkpoint_round_trip_is_bitwise(model, meta):
    ckpt = Checkpoint.from_bytes(model.to_checkpoint(meta).to_bytes())
    again = DtiModel.from_checkpoint(ckpt).to_checkpoint(meta)
    assert again.to_bytes() == ckpt.to_bytes()


def test_checkpoint_round_trip_forward_bitwise(tmp_path):
    model, codec, mol_vocab, prot_vocab = tiny_setup(seed=3)
    mol = encode_molecule("CN=C=O", mol_vocab, codec)
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    before = model.predict([mol], [prot])
    path = tmp_path / "dti.ckpt"
    model.to_checkpoint().save(path)
    restored = DtiModel.from_checkpoint(Checkpoint.load(path))
    after = restored.predict([mol], [prot])
    assert before.tobytes() == after.tobytes()
    assert restored.cfg == model.cfg
    assert restored.mol_vocab.tokens == mol_vocab.tokens


def test_from_checkpoint_rejects_wrong_kind():
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
