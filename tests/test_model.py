"""Combined model: presets, forward wiring, checkpoint fidelity."""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moldta import autodiff as ad
from moldta import model as model_module
from moldta import transformer as transformer_module
from moldta.checkpoint import Checkpoint
from moldta.codec import (MOLECULE, PAD_ID, PROTEIN, CodecConfig, build_vocab, encode_molecule,
                          encode_protein)
from moldta.interaction import InteractionConfig, mse_loss, predict_affinity_batch
from moldta.model import MODE_PRESETS, DtiModel, ModelConfig
from moldta.protein_cnn import ProteinCnnConfig, protein_forward_ids
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
        ModelConfig.for_mode("kiba", 10, 10, {"model": {"truncation_pooling": "max"}})
    with pytest.raises(ValueError, match="mol_max_len"):
        ModelConfig(codec=CodecConfig(mol_max_len=50),
                    transformer=TransformerConfig(vocab_size=10, max_len=100),
                    protein=ProteinCnnConfig(vocab_size=10),
                    interaction=InteractionConfig())


def test_forward_shapes_and_interaction_width():
    model, codec, mol_vocab, prot_vocab = tiny_setup()
    mol = encode_molecule("CCO", mol_vocab, codec, False)
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    pred = model.forward_ids(mol[None], prot[None])
    assert pred.data.shape == (1,)
    assert model.iw.in_width == 8 + 5  # hidden + last filter count


def test_predict_matches_forward_per_pair():
    model, codec, mol_vocab, prot_vocab = tiny_setup()
    mols = [encode_molecule(s, mol_vocab, codec, False) for s in ("CCO", "CN=C=O", "c1ccccc1")]
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    batch = model.predict(mols, [prot] * 3, batch_size=1)
    for i, mol in enumerate(mols):
        single = model.forward_ids(mol[None], prot[None])
        assert batch[i] == float(single.data[0])  # bitwise


# Three proteins the tiny protein vocab can encode, each above the
# receptive field of 5.
PROTS = ("MKTAYIAKQR", "KQRAYMT", "TAYIAKQRMKTA")


def count_rows(monkeypatch, owner, name):
    """A list that receives the number of id rows of every call to owner.name."""
    calls = []
    run = getattr(owner, name)

    def counted(ids, *args, **kwargs):
        calls.append(ids.shape[0])
        return run(ids, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def pairs_and_batches(smiles, batch_size, seed):
    """A model, 14 pairs over the PROTS proteins (alternating, then repeated,
    then distinct, with a short last batch at 3) and the given molecules, and
    the scores of forward_ids on consecutive batches of batch_size pairs."""
    model, codec, mol_vocab, prot_vocab = tiny_setup(seed=seed)
    a, b, c = (encode_protein(p, prot_vocab, codec) for p in PROTS)
    prots = [a, b, a, b, a, b, c, c, c, c, c, c, a, b]
    mols = [encode_molecule(smiles[i % len(smiles)], mol_vocab, codec, False)
            for i in range(len(prots))]
    expected = []
    for start in range(0, len(mols), batch_size):
        mb, pb = mols[start:start + batch_size], prots[start:start + batch_size]
        expected.extend(model.forward_ids(np.stack(mb), np.stack(pb)).data)
    return model, mols, prots, np.array(expected)


# fourteen molecules the tiny molecule vocab can encode, none truncated
DISTINCT_SMILES = ("CCO", "CN=C=O", "c1ccccc1", "OCC", "C=O", "CNC", "NCO", "OCO", "CCN",
                   "NC=O", "c1ccc1", "CC=O", "ONC", "NNO")


@pytest.mark.parametrize("batch_size, tower_rows", [
    # three distinct proteins: one tower row per call at batch 1, one call
    # at batch 3, and one call at batch 8, which they do not fill
    (1, [1, 1, 1]),
    (3, [3]),
    (8, [3]),
])
def test_predict_runs_the_tower_once_per_distinct_protein_bitwise(monkeypatch, batch_size,
                                                                  tower_rows):
    model, mols, prots, expected = pairs_and_batches(DISTINCT_SMILES, batch_size, seed=2)
    assert len({m.tobytes() for m in mols}) == len(mols)
    # distinct molecules run in the consecutive batches of pairs
    encoder_rows = [min(batch_size, len(mols) - i) for i in range(0, len(mols), batch_size)]
    tower = count_rows(monkeypatch, model_module, "protein_forward_ids")
    encoder = count_rows(monkeypatch, transformer_module, "encode_ids")
    got = model.predict(mols, prots, batch_size=batch_size)
    assert got.tobytes() == expected.tobytes()
    assert tower == tower_rows
    assert encoder == encoder_rows


@pytest.mark.parametrize("batch_size, encoder_rows", [
    # five distinct molecules, each repeated: one encoder row per call at
    # batch 1, then calls of 3 and 2, then one call of 5
    (1, [1] * 5),
    (3, [3, 2]),
    (8, [5]),
])
def test_predict_runs_the_encoder_once_per_distinct_molecule(monkeypatch, batch_size,
                                                             encoder_rows):
    smiles = ("CCO", "CN=C=O", "c1ccccc1", "OCC", "C=O")
    model, mols, prots, expected = pairs_and_batches(smiles, batch_size, seed=2)
    encoder = count_rows(monkeypatch, transformer_module, "encode_ids")
    got = model.predict(mols, prots, batch_size=batch_size)
    assert encoder == encoder_rows
    if batch_size == 1:  # each molecule is encoded alone either way
        assert got.tobytes() == expected.tobytes()
    else:  # regrouped encoder batches move only the last bits
        assert np.max(np.abs(got - expected)) <= 1e-12


def test_predict_of_no_pairs_is_an_empty_float64_array(monkeypatch):
    model = tiny_setup()[0]
    tower = count_rows(monkeypatch, model_module, "protein_forward_ids")
    encoder = count_rows(monkeypatch, transformer_module, "encode_ids")
    got = model.predict([], [])
    assert got.dtype == np.float64 and got.shape == (0,)
    assert tower == [] and encoder == []


def test_predict_batch_size_changes_scores_only_within_bound():
    # changing the batch size is not a bitwise contract: BLAS may sum in a
    # different order; 1e-19 to 1e-18 measured on this model
    model, codec, mol_vocab, prot_vocab = tiny_setup(seed=4)
    prots = [encode_protein(PROTS[i % 3], prot_vocab, codec) for i in range(11)]
    mols = [encode_molecule(("CCO", "CN=C=O", "c1ccccc1", "OCC")[i % 4], mol_vocab, codec, False)
            for i in range(11)]
    one = model.predict(mols, prots, batch_size=1)
    eight = model.predict(mols, prots, batch_size=8)
    assert np.max(np.abs(one - eight)) <= 1e-12


def two_layer_setup(pooling, seed=5, dropout=0.1):
    """tiny_setup with two encoder layers, so both a first and a last block
    run, under the given truncation pooling and encoder and head dropout."""
    model, codec, mol_vocab, prot_vocab = tiny_setup()
    cfg = ModelConfig(codec=codec,
                      transformer=replace(model.cfg.transformer, num_layers=2, dropout=dropout),
                      protein=model.cfg.protein,
                      interaction=replace(model.cfg.interaction, dropout=dropout),
                      truncation_pooling=pooling)
    return DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(seed)), codec, prot_vocab


def linear_input_rows(monkeypatch, model):
    """A dict that receives, per encoder weight name, the leading shape of
    every input ad.linear multiplies by that weight."""
    names = {id(t): name for name, t in model.tw.named().items()}
    seen = {}
    linear = ad.linear

    def recording(x, w, b):
        if id(w) in names:
            seen.setdefault(names[id(w)], []).append(x.data.shape[:-1])
        return linear(x, w, b)

    monkeypatch.setattr(ad, "linear", recording)
    return seen


@pytest.mark.parametrize("pooling", ["rep", "mean"])
@pytest.mark.parametrize("training", [False, True])
def test_encoder_rows_and_columns_are_trimmed_in_training_as_at_inference(monkeypatch, pooling,
                                                                         training):
    model, codec, prot_vocab = two_layer_setup(pooling)
    mol = encode_molecule("CN=C=O", model.mol_vocab, codec, model.cfg.keep_rep_when_truncated)
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    seen = linear_input_rows(monkeypatch, model)
    if training:  # dropout on changes no shape
        model.forward_ids(mol[None], prot[None], np.random.default_rng(0))
    else:
        model.predict([mol], [prot])
    width = int((mol != PAD_ID).sum())
    assert width < codec.mol_max_len
    # keys and values need every real row; under rep pooling the last
    # block's query, output projection and FFN run for row 0 alone
    last_rows = (1, 1) if pooling == "rep" else (1, width)
    expected = {}
    for i in range(2):
        for name in ("wq", "wk", "wv", "wo", "ff1_w", "ff2_w"):
            rows = last_rows if i == 1 and name not in ("wk", "wv") else (1, width)
            expected[f"layer{i}.{name}"] = [rows]
    assert seen == expected


def full_width_scores(model, mol_ids, prot_ids, rng=None):
    """The pooled molecule vectors and the scores of an id batch from the
    encoder on the padded ids: every column and, under rep pooling, every
    row of the last block."""
    encoded = transformer_module.encode_ids(mol_ids, mol_ids != PAD_ID, model.tw, rng)
    if model.cfg.truncation_pooling == "rep":
        m_rep = transformer_module.pool_rep_batch(encoded)
    else:
        m_rep = transformer_module.pool_mean_batch(encoded, mol_ids != PAD_ID)
    p_rep = protein_forward_ids(prot_ids, prot_ids != PAD_ID, model.pw)
    return m_rep, predict_affinity_batch(m_rep, p_rep, model.iw, rng)


def full_width_reference(model, mol, prot):
    """full_width_scores of one pair, as its pooled vector and its score."""
    with ad.no_grad():
        m_rep, score = full_width_scores(model, mol[None], prot[None])
        return m_rep.data[0], float(score.data[0])


@pytest.mark.parametrize("pooling", ["rep", "mean"])
def test_predict_matches_the_untrimmed_full_width_encoder(monkeypatch, pooling):
    model, codec, prot_vocab = two_layer_setup(pooling)
    keep_rep = model.cfg.keep_rep_when_truncated
    smiles = ("C", "CCO", "CN=C=O", "c1ccccc1CCOCN=C=O")  # the last fills the cap of 16
    mols = [encode_molecule(s, model.mol_vocab, codec, keep_rep) for s in smiles]
    assert (mols[-1] != PAD_ID).all()
    prots = [encode_protein(PROTS[i % 3], prot_vocab, codec) for i in range(len(mols))]
    pooled, scores = zip(*(full_width_reference(model, m, p) for m, p in zip(mols, prots)))
    # the small initial head damps the encoder's share of a score, so the
    # pooled vectors the head receives are compared as well
    received = []
    head = model_module.predict_affinity_batch

    def recording(m_rep, *args):
        received.extend(m_rep.data)
        return head(m_rep, *args)

    monkeypatch.setattr(model_module, "predict_affinity_batch", recording)
    for batch_size in (1, 3):     # alone, and beside longer molecules
        received.clear()
        got = model.predict(mols, prots, batch_size=batch_size)
        assert np.max(np.abs(got - np.array(scores))) <= 1e-12
        assert np.max(np.abs(np.array(received) - np.array(pooled))) <= 1e-12


def parameter_gradients(model, loss) -> dict:
    """Every parameter's gradient of `loss`, zeros where it reads none."""
    params = model.named_params()
    for t in params.values():
        t.grad = None
    ad.backward(loss)
    return {name: np.zeros_like(t.data) if t.grad is None else t.grad
            for name, t in params.items()}


@pytest.mark.parametrize("pooling", ["rep", "mean"])
@pytest.mark.parametrize("smiles, at_cap", [(("C", "CCO", "CN=C=O"), False),
                                            (("CCO", "c1ccccc1CCOCN=C=O"), True)],
                         ids=["trimmed", "at-cap"])
def test_finetuning_step_gradients_match_the_full_width_encoder(pooling, smiles, at_cap):
    model, codec, prot_vocab = two_layer_setup(pooling, dropout=0.0)
    keep_rep = model.cfg.keep_rep_when_truncated
    mol_ids = np.stack([encode_molecule(s, model.mol_vocab, codec, keep_rep) for s in smiles])
    prot_ids = np.stack([encode_protein(PROTS[i % 3], prot_vocab, codec)
                         for i in range(len(smiles))])
    assert (mol_ids[:, -1] != PAD_ID).any() == at_cap
    targets = np.arange(len(smiles)) + 4.0
    got = parameter_gradients(model, mse_loss(
        model.forward_ids(mol_ids, prot_ids, np.random.default_rng(0)), targets))
    _, scores = full_width_scores(model, mol_ids, prot_ids, np.random.default_rng(0))
    want = parameter_gradients(model, mse_loss(scores, targets))
    assert max(np.abs(g).max() for g in want.values()) > 0.1
    for name, g in want.items():
        assert np.max(np.abs(got[name] - g)) <= 1e-12, name


def test_from_checkpoint_draws_no_random_weights(monkeypatch):
    model, codec, mol_vocab, prot_vocab = tiny_setup(seed=6)
    ckpt = model.to_checkpoint()

    def refuse(*args, **kwargs):
        raise AssertionError("from_checkpoint drew random weights")

    monkeypatch.setattr(transformer_module, "trunc_normal", refuse)
    restored = DtiModel.from_checkpoint(ckpt)
    mol = encode_molecule("CCO", mol_vocab, codec, False)
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
    mol = encode_molecule("CN=C=O", mol_vocab, codec, False)
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
    mol = encode_molecule("CCO", mol_vocab, codec, False)
    prot = encode_protein("MKTAYIAKQR", prot_vocab, codec)
    pred = mean_model.predict([mol], [prot])
    assert np.isfinite(pred).all()
    assert not cfg.keep_rep_when_truncated
