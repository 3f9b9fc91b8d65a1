"""The benchmark harness wraps moldta's public names at run time.

bench/tracing.py replaces module globals and class attributes by name for
the length of a traced pass. These tests install its wrappers over the
imported package and check that every traced entry point still exists,
that a traced forward pass and a traced training call record the expected
spans, and that restore() puts every original attribute back.
"""

import importlib
import math
import types
from pathlib import Path

import numpy as np
import pytest

MODULES = ("autodiff", "checkpoint", "cli", "codec", "data", "errors", "interaction",
           "metrics", "model", "protein_cnn", "training", "transformer")
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """Execute bench/tracing.py from source, writing no bytecode beside it."""
    module = types.ModuleType("bench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.fixture
def moldta():
    return types.SimpleNamespace(**{name: importlib.import_module("moldta." + name)
                                    for name in MODULES})


def attribute_snapshot(m):
    """Every module global and every attribute of the classes tracing wraps."""
    owners = [getattr(m, name) for name in MODULES]
    owners += [m.model.DtiModel, m.training.AdamOptimizer, m.checkpoint.Checkpoint]
    return [(owner, dict(vars(owner))) for owner in owners]


def assert_restored(snapshot):
    for owner, attrs in snapshot:
        now = vars(owner)
        assert set(now) == set(attrs), owner
        changed = [key for key, value in attrs.items() if now[key] is not value]
        assert not changed, (owner, changed)


def tiny_kiba_cfg(m, mol_vocab, prot_vocab):
    return m.model.ModelConfig.for_mode(
        "kiba", len(mol_vocab), len(prot_vocab),
        {"codec": {"mol_max_len": 8, "prot_max_len": 16},
         "transformer": {"num_layers": 1, "num_heads": 2, "hidden": 4, "intermediate": 6},
         "protein": {"embed_dim": 3, "filter_lengths": (2, 2), "filter_counts": (3, 4)},
         "interaction": {"dense_sizes": (5,)}})


def test_install_layers_binds_every_traced_name_and_restores(moldta):
    tracing = load_tracing()
    before = attribute_snapshot(moldta)
    matmul = moldta.autodiff.matmul
    patches = tracing.Patches()
    try:
        tracing.install_layers(tracing.Tracer(), patches, moldta)
        assert moldta.autodiff.matmul is not matmul
        assert moldta.autodiff.matmul.__wrapped__ is matmul
    finally:
        patches.restore()
    assert_restored(before)


def test_traced_forward_records_layer_spans(moldta):
    tracing = load_tracing()
    codec = moldta.codec
    mol_vocab = codec.build_vocab(["CCO", "CN=O"], codec.MOLECULE)
    prot_vocab = codec.build_vocab(["MKTAYIAKQR"], codec.PROTEIN)
    cfg = tiny_kiba_cfg(moldta, mol_vocab, prot_vocab)
    model = moldta.model.DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(0))
    mol = codec.encode_molecule("CCO", mol_vocab, cfg.codec, False)
    prot = codec.encode_protein("MKTAYIAKQR", prot_vocab, cfg.codec)
    before = attribute_snapshot(moldta)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.install_layers(tracer, patches, moldta)
        traced = model.predict([mol], [prot])
    finally:
        patches.restore()
    assert_restored(before)
    assert traced.tobytes() == model.predict([mol], [prot]).tobytes()
    names = {span[0] for span in tracer.spans}
    assert {"model.predict", "transformer.encode_ids", "transformer.attention_block",
            "protein_cnn.forward", "interaction.predict_affinity_batch",
            "autodiff.matmul"} <= names


def test_traced_finetune_records_dropout_and_backward_spans(moldta):
    # the benchmark's --trace 1 path on training workloads runs a training
    # call under install_layers: dropout and backward must stay traceable
    tracing = load_tracing()
    codec, training = moldta.codec, moldta.training
    smiles, prots = ["CCO", "CN=O", "OCC"], ["MKTAYIAKQRQISF", "MTEYKLVVVGAGGV"]
    mol_vocab = codec.build_vocab(smiles, codec.MOLECULE)
    prot_vocab = codec.build_vocab(prots, codec.PROTEIN)
    cfg = tiny_kiba_cfg(moldta, mol_vocab, prot_vocab)
    train = [training.EncodedRecord(codec.encode_molecule(s, mol_vocab, cfg.codec, False),
                                    codec.encode_protein(prots[i % 2], prot_vocab, cfg.codec),
                                    10.0 + 0.1 * i)
             for i, s in enumerate(smiles)]
    run = training.TrainRunConfig(seed=0, batch_size=len(train), epochs=1)
    before = attribute_snapshot(moldta)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.install_layers(tracer, patches, moldta)
        traced = training.finetune(train, train[:2], cfg, run, mol_vocab, prot_vocab)
    finally:
        patches.restore()
    assert_restored(before)
    plain = training.finetune(train, train[:2], cfg, run, mol_vocab, prot_vocab)
    assert traced.report_text() == plain.report_text()
    names = [span[0] for span in tracer.spans]
    assert names.count("autodiff.backward") == 1
    assert names.count("training.adam") == 1
    # two dropouts per attention block and one per dense layer, in the step
    # and in the dev pass, where dropout returns its input
    assert names.count("autodiff.dropout") == 2 * (2 * 1 + 1)
    assert {"model.forward_ids", "transformer.encode_ids", "transformer.attention_block",
            "interaction.predict_affinity_batch", "interaction.mse_loss"} <= set(names)


def test_traced_pretrain_masks_once_per_batch_and_counts_labels(moldta):
    # the benchmark's --trace 1 path on pretrain-tiny: one masking span per
    # step and one per held-out chunk, each adding its labels to the count
    tracing = load_tracing()
    codec, training = moldta.codec, moldta.training
    corpus = ["CCO", "CN=C=O", "OCC", "NCC", "C(=O)O", "CCNC", "OC=O", "CNC"]
    heldout = corpus * 9
    vocab = codec.build_vocab(corpus, codec.MOLECULE)
    cfg = moldta.transformer.TransformerConfig(vocab_size=len(vocab), num_layers=1,
                                               num_heads=2, hidden=8, intermediate=12,
                                               max_len=12)
    codec_cfg = codec.CodecConfig(mol_max_len=12)
    run = training.TrainRunConfig(seed=3, batch_size=4, steps=3)
    masker = training.make_masked_example
    produced = []

    def counting_masker(*args):
        out = masker(*args)
        produced.append(len(out.labels))
        return out

    before = attribute_snapshot(moldta)
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        patches.set(training, "make_masked_example", counting_masker)
        tracing.install_layers(tracer, patches, moldta)
        traced = training.pretrain(corpus, vocab, cfg, run, codec_cfg=codec_cfg,
                                   heldout=heldout)
    finally:
        patches.restore()
    assert_restored(before)
    plain = training.pretrain(corpus, vocab, cfg, run, codec_cfg=codec_cfg,
                              heldout=heldout)
    assert traced.losses == plain.losses
    assert traced.heldout_accuracy == plain.heldout_accuracy
    chunks = math.ceil(len(heldout) / training.EVAL_CHUNK)
    names = [span[0] for span in tracer.spans]
    assert names.count("training.make_masked_example") == run.steps + chunks == len(produced)
    counted = sum(value for (_, key), value in tracer.counts.items()
                  if key == "training.masked_positions")
    assert counted == sum(produced) > 0


def test_step_clock_counts_optimizer_steps_and_restores(moldta):
    # the benchmark's setup_s and unit_ms_p50 come from StepClock, which
    # marks set-up and step ends on AdamOptimizer.__init__ and .step
    tracing = load_tracing()
    codec, training = moldta.codec, moldta.training
    smiles = ["CCO", "CN=O", "OCC", "NCC", "CCNC", "OC=O", "CNC"]
    prots = ["MKTAYIAKQRQISF", "MTEYKLVVVGAGGV"]
    mol_vocab = codec.build_vocab(smiles, codec.MOLECULE)
    prot_vocab = codec.build_vocab(prots, codec.PROTEIN)
    cfg = tiny_kiba_cfg(moldta, mol_vocab, prot_vocab)
    train = [training.EncodedRecord(codec.encode_molecule(s, mol_vocab, cfg.codec, False),
                                    codec.encode_protein(prots[i % 2], prot_vocab, cfg.codec),
                                    10.0 + 0.1 * i)
             for i, s in enumerate(smiles)]
    run = training.TrainRunConfig(seed=0, batch_size=3, steps=3, epochs=1)
    before = attribute_snapshot(moldta)
    clock, patches = tracing.StepClock(), tracing.Patches()
    try:
        clock.install(patches, training.AdamOptimizer)
        clock.begin_call()
        training.pretrain(smiles, mol_vocab, cfg.transformer, run, codec_cfg=cfg.codec)
        _, pretrain_steps, _ = clock.end_call()
        clock.begin_call()
        training.finetune(train, train[:2], cfg, run, mol_vocab, prot_vocab)
        _, finetune_steps, _ = clock.end_call()
    finally:
        patches.restore()
    assert_restored(before)
    assert len(pretrain_steps) == run.steps
    assert len(finetune_steps) == math.ceil(len(train) / run.batch_size)
    assert min(pretrain_steps + finetune_steps) > 0.0


def test_traced_token_counters_equal_the_non_pad_ids_that_ran(moldta):
    # the benchmark reads args[1] of encode_ids and protein_forward_ids as
    # the real-token mask; it must be exactly ids != [PAD] for every batch
    tracing = load_tracing()
    codec, training = moldta.codec, moldta.training
    smiles, prots = ["CCO", "CN=O", "OCC", "C"], ["MKTAYIAKQRQISF", "MTEYKLVVV"]
    mol_vocab = codec.build_vocab(smiles, codec.MOLECULE)
    prot_vocab = codec.build_vocab(prots, codec.PROTEIN)
    cfg = tiny_kiba_cfg(moldta, mol_vocab, prot_vocab)
    records = [training.EncodedRecord(codec.encode_molecule(s, mol_vocab, cfg.codec, False),
                                      codec.encode_protein(prots[i % 2], prot_vocab,
                                                           cfg.codec),
                                      10.0 + 0.1 * i)
               for i, s in enumerate(smiles)]
    train, dev = records, records[:2]
    scored = records * 2  # every molecule and protein repeats in the predict call
    run = training.TrainRunConfig(seed=0, batch_size=len(train), epochs=1)
    model = moldta.model.DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(0))
    tracer, patches = tracing.Tracer(), tracing.Patches()
    try:
        tracing.install_layers(tracer, patches, moldta)
        model.predict([r.mol for r in scored], [r.prot for r in scored])
        training.finetune(train, dev, cfg, run, mol_vocab, prot_vocab)
    finally:
        patches.restore()

    def counted(key):
        return sum(value for (_, k), value in tracer.counts.items() if k == key)

    # predict runs one batch; finetune one training step and one dev batch.
    # predict runs the encoder once per distinct molecule of its call and
    # the tower once per distinct protein
    def distinct(batch, side):
        return list({getattr(r, side).tobytes(): getattr(r, side) for r in batch}.values())

    ran = [distinct(scored, "mol"), [r.mol for r in train], distinct(dev, "mol")]
    mol_ids = np.concatenate([np.stack(batch) for batch in ran])
    prot_ids = np.stack(distinct(scored, "prot") + [r.prot for r in train]
                        + distinct(dev, "prot"))

    def positions(batch):
        # every batch runs the columns up to its longest real length
        ids = np.stack(batch)
        return ids.shape[0] * (ids != 0).sum(axis=1).max()

    assert 0 < counted("transformer.real_tokens") == (mol_ids != 0).sum() < mol_ids.size
    assert counted("transformer.positions") == sum(positions(batch) for batch in ran)
    assert 0 < counted("protein_cnn.real_positions") == (prot_ids != 0).sum() < prot_ids.size
    assert counted("protein_cnn.positions") == prot_ids.size
