"""Training engine: masking procedure, optimizer, transforms, loops."""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moldta import transformer as mt
from moldta.autodiff import Tensor
from moldta.codec import (MASK, MOLECULE, PAD_ID, PROTEIN, CodecConfig, build_vocab,
                          encode_molecule)
from moldta.checkpoint import Checkpoint
from moldta.data import pkd_transform
from moldta.errors import DataError, NumericalError
from moldta.interaction import InteractionConfig
from moldta.model import DtiModel, ModelConfig
from moldta.protein_cnn import ProteinCnnConfig
from moldta.training import (AdamOptimizer, MaskedExample, TrainRunConfig, _masked_lm_logits,
                             encode_affinity_data, finetune, load_warm_start,
                             make_masked_example, masked_eval_batches, masked_token_eval,
                             pretrain)
from moldta.transformer import TransformerConfig, TransformerWeights


class ScriptedRng:
    """Plays back pre-programmed draws for random() and integers().

    Each random(size) call returns the next scripted array, which must have
    that shape. Each integers() call is recorded in integer_calls; like
    numpy's, a draw of size 0 is empty and uses no scripted entry.
    """

    def __init__(self, randoms, integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)
        self.integer_calls = []

    def random(self, size):
        draw = np.asarray(self._randoms.pop(0), dtype=float)
        assert draw.shape == tuple(size)
        return draw

    def integers(self, low, high=None, size=None):
        self.integer_calls.append((low, high, size))
        if size == 0:
            return np.zeros(0, dtype=np.int64)
        return np.asarray(self._integers.pop(0))

    def exhausted(self):
        return not self._randoms and not self._integers


@dataclass
class Rec:
    smiles: str
    fasta: str
    affinity: float


# ---------------------------------------------------------------------------
# masking
# ---------------------------------------------------------------------------

def cn_c_o_batch():
    """Vocab and the one-row id batch of CN=C=O at length 16: payload at 2..7."""
    vocab = build_vocab(["CN=C=O"], MOLECULE)
    return vocab, encode_molecule("CN=C=O", vocab, CodecConfig(mol_max_len=16), False)[None]


def draws(fill, at=(), shape=(1, 16)):
    """A scripted uniform draw: fill everywhere, 0.0 at the given columns of row 0."""
    out = np.full(shape, fill)
    out[0, list(at)] = 0.0
    return out


def test_masking_forced_position_and_mask_branch():
    vocab, ids = cn_c_o_batch()
    # select only position 5 (a 'C'); every branch draw says [MASK], so any
    # other selected position would show as a second change
    rng = ScriptedRng(randoms=[draws(0.9, at=[5]), draws(0.0)])
    example = make_masked_example(ids, vocab, rng)
    assert rng.exhausted()
    np.testing.assert_array_equal(example.labels, [[0, 5, vocab.id_of("C")]])
    expect = ids.copy()
    expect[0, 5] = vocab.id_of(MASK)
    np.testing.assert_array_equal(example.input_ids, expect)


def test_masking_random_replacement_branch():
    vocab, ids = cn_c_o_batch()
    # select position 2, take the random-replacement branch (0.8 <= r < 0.9),
    # and draw 'O' from the payload ids [len(specials), len(vocab))
    rng = ScriptedRng(randoms=[draws(0.9, at=[2]), draws(0.85)],
                      integers=[[vocab.id_of("O")]])
    example = make_masked_example(ids, vocab, rng)
    assert rng.exhausted()
    assert rng.integer_calls == [(len(vocab.specials), len(vocab), 1)]
    np.testing.assert_array_equal(example.labels, [[0, 2, vocab.id_of("C")]])
    expect = ids.copy()
    expect[0, 2] = vocab.id_of("O")
    np.testing.assert_array_equal(example.input_ids, expect)


def test_masking_keep_branch_leaves_token():
    vocab, ids = cn_c_o_batch()
    rng = ScriptedRng(randoms=[draws(0.9, at=[2]), draws(0.95)])
    example = make_masked_example(ids, vocab, rng)
    assert rng.exhausted()
    np.testing.assert_array_equal(example.labels, [[0, 2, vocab.id_of("C")]])
    np.testing.assert_array_equal(example.input_ids, ids)


def test_masking_guaranteed_one_fallback():
    vocab, ids = cn_c_o_batch()
    # nothing selected by the Bernoulli draws; the fallback draws index 1 of
    # the row's 6 payload positions (position 3, an 'N'), then takes [MASK]
    rng = ScriptedRng(randoms=[draws(0.9), draws(0.0)], integers=[[1]])
    example = make_masked_example(ids, vocab, rng)
    assert rng.exhausted()
    high = rng.integer_calls[0][0]
    np.testing.assert_array_equal(high, [6])
    np.testing.assert_array_equal(example.labels, [[0, 3, vocab.id_of("N")]])
    expect = ids.copy()
    expect[0, 3] = vocab.id_of(MASK)
    np.testing.assert_array_equal(example.input_ids, expect)


def test_masking_requires_payload():
    vocab = build_vocab(["CN=C=O"], MOLECULE)
    seq = encode_molecule("", vocab, CodecConfig(mol_max_len=16), False)
    with pytest.raises(ValueError, match="payload"):
        make_masked_example(seq[None], vocab, np.random.default_rng(0))
    # one row without payload fails the whole batch
    vocab, ids = mixed_batch()
    empty = encode_molecule("", vocab, CodecConfig(mol_max_len=10), False)
    with pytest.raises(ValueError, match="payload"):
        make_masked_example(np.vstack([ids[:3], empty, ids[3:]]), vocab,
                            np.random.default_rng(0))


MIXED = ["CN=C=O", "C", "CCO", "N", "O", "C(=O)NC(C)C", "C", "CC"]
ONE_CHARACTER_ROWS = [1, 3, 4, 6]


def mixed_batch():
    """Rows of different lengths at cap 10: one-character molecules, padding,
    and a truncated row that keeps [REP] but loses [BEGIN] and [END]."""
    vocab = build_vocab(MIXED, MOLECULE)
    cfg = CodecConfig(mol_max_len=10)
    return vocab, np.stack([encode_molecule(s, vocab, cfg, True) for s in MIXED])


def test_masking_batch_of_mixed_lengths_selects_payload_once_per_row_at_least():
    vocab, ids = mixed_batch()
    payload = ids >= len(vocab.specials)
    np.testing.assert_array_equal(payload[5], np.arange(10) > 0)  # truncated: [REP], payload
    for seed in range(20):
        example = make_masked_example(ids, vocab, np.random.default_rng(seed))
        rows, positions, truths = example.labels.T
        order = np.lexsort((positions, rows))
        np.testing.assert_array_equal(order, np.arange(len(rows)))  # row-major
        assert set(rows.tolist()) == set(range(len(MIXED)))
        assert payload[rows, positions].all()
        np.testing.assert_array_equal(truths, ids[rows, positions])
        # a one-character row is selected only by the fallback 85% of the
        # time, and then always at its one payload position
        for row in ONE_CHARACTER_ROWS:
            np.testing.assert_array_equal(example.labels[rows == row],
                                          [[row, 2, ids[row, 2]]])
        selected = np.zeros(ids.shape, dtype=bool)
        selected[rows, positions] = True
        np.testing.assert_array_equal(example.input_ids[~selected], ids[~selected])


def test_masking_never_selects_or_writes_special_or_padding_positions():
    vocab, ids = mixed_batch()
    payload = ids >= len(vocab.specials)
    n_payload = int(payload.sum())
    # every selection draw selects and every branch draw replaces, so only
    # the payload rule keeps [PAD], [REP], [BEGIN] and [END] untouched
    replacements = np.full(n_payload, vocab.id_of("N"))
    rng = ScriptedRng(randoms=[np.zeros(ids.shape), np.full(ids.shape, 0.85)],
                      integers=[replacements])
    example = make_masked_example(ids, vocab, rng)
    assert rng.exhausted()
    assert rng.integer_calls == [(len(vocab.specials), len(vocab), n_payload)]
    np.testing.assert_array_equal(example.labels[:, :2], np.argwhere(payload))
    np.testing.assert_array_equal(example.input_ids[~payload], ids[~payload])
    assert (example.input_ids[payload] == vocab.id_of("N")).all()


class NothingSelected:
    """A generator whose selection draw selects nothing, so every row takes
    the fallback; later draws come from a seeded numpy generator."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = 0

    def random(self, size):
        self.calls += 1
        return np.ones(size) if self.calls == 1 else self.rng.random(size)

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)


def test_masking_fallback_is_uniform_over_each_rows_payload():
    vocab = build_vocab(["CN=C=O"], MOLECULE)
    cfg = CodecConfig(mol_max_len=10)
    rows = np.stack([encode_molecule(s, vocab, cfg, False) for s in ("CCO", "CN=C=O")])
    ids = np.tile(rows, (3000, 1))
    example = make_masked_example(ids, vocab, NothingSelected(5))
    rows, positions, _ = example.labels.T
    np.testing.assert_array_equal(rows, np.arange(len(ids)))
    for parity, span in ((0, range(2, 5)), (1, range(2, 8))):
        picked = positions[rows % 2 == parity]
        assert set(picked.tolist()) == set(span)
        shares = np.bincount(picked, minlength=span.stop)[span.start:] / picked.size
        assert np.abs(shares - 1 / len(span)).max() < 0.03


def test_masking_same_seed_same_example():
    vocab, ids = mixed_batch()
    first, second = (make_masked_example(ids, vocab, np.random.default_rng(11))
                     for _ in range(2))
    assert first.input_ids.tobytes() == second.input_ids.tobytes()
    assert first.labels.tobytes() == second.labels.tobytes()
    np.testing.assert_array_equal(ids, mixed_batch()[1])  # input left alone


def test_masking_statistics_and_special_token_immunity():
    # 64-character payload alphabet keeps random-replacement collisions with
    # the original token (which read as "kept") below the tolerance
    rng = np.random.default_rng(2026)
    alphabet = [chr(c) for c in range(33, 97)]
    corpus = ["".join(rng.choice(alphabet, size=50)) for _ in range(60)]
    vocab = build_vocab(corpus, MOLECULE)
    cfg = CodecConfig(mol_max_len=60)
    ids = np.stack([encode_molecule(s, vocab, cfg, False) for s in corpus])
    special = np.array(sorted(vocab.id_of(t) for t in vocab.specials))
    mask_id = vocab.id_of(MASK)

    payload_total = 0
    selected = 0
    masked = 0
    replaced = 0
    kept = 0
    while payload_total < 100_000:
        example = make_masked_example(ids, vocab, rng)
        payload_total += 50 * len(ids)
        rows, positions, true_ids = example.labels.T
        assert not np.isin(true_ids, special).any()
        assert ((2 <= positions) & (positions < 52)).all()  # inside the payload span
        selected += true_ids.size
        new_ids = example.input_ids[rows, positions]
        assert not np.isin(new_ids, special[special != mask_id]).any()
        masked += int((new_ids == mask_id).sum())
        replaced += int(((new_ids != mask_id) & (new_ids != true_ids)).sum())
        kept += int(((new_ids != mask_id) & (new_ids == true_ids)).sum())
    assert payload_total >= 100_000
    assert abs(selected / payload_total - 0.15) < 0.004
    assert abs(masked / selected - 0.80) < 0.01
    assert abs(replaced / selected - 0.10) < 0.01
    assert abs(kept / selected - 0.10) < 0.01


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text("CNO=()c1", min_size=1, max_size=14), min_size=1, max_size=6),
       st.integers(0, 2 ** 32 - 1))
def test_masking_labels_are_sorted_by_row_then_position(smiles, seed):
    # _masked_lm_logits places label i by its rank within its row, which
    # holds only while labels come sorted by (row, position)
    vocab = build_vocab(["CNO=()c1"], MOLECULE)
    cfg = CodecConfig(mol_max_len=10)  # molecules past 8 characters truncate
    ids = np.stack([encode_molecule(s, vocab, cfg, True) for s in smiles])
    rows, positions, _ = make_masked_example(ids, vocab, np.random.default_rng(seed)).labels.T
    np.testing.assert_array_equal(np.lexsort((positions, rows)), np.arange(len(rows)))
    assert len(set(zip(rows.tolist(), positions.tolist()))) == len(rows)


def test_masked_lm_logits_equal_the_full_block_logits_at_the_labels(monkeypatch):
    vocab = build_vocab(MIXED, MOLECULE)
    cfg = CodecConfig(mol_max_len=10)
    ids = np.stack([encode_molecule(s, vocab, cfg, True) for s in MIXED])
    labels = np.array([[0, 2, ids[0, 2]], [0, 5, ids[0, 5]], [0, 6, ids[0, 6]],
                       [1, 2, ids[1, 2]],                      # one masked position
                       [5, 1, ids[5, 1]], [5, 9, ids[5, 9]],
                       [7, 2, ids[7, 2]], [7, 3, ids[7, 3]]]
                      + [[row, 2, ids[row, 2]] for row in (2, 3, 4, 6)])
    labels = labels[np.lexsort((labels[:, 1], labels[:, 0]))]
    example = MaskedExample(input_ids=ids, labels=labels)
    w = TransformerWeights(TransformerConfig(len(vocab), num_layers=2, num_heads=2, hidden=8,
                                             intermediate=12, max_len=10),
                           np.random.default_rng(4))
    shapes = []
    encode = mt.encode_ids

    def recording(*args, **kwargs):
        out = encode(*args, **kwargs)
        shapes.append(out.data.shape)
        return out

    monkeypatch.setattr(mt, "encode_ids", recording)
    logits, truths = _masked_lm_logits(example, w)
    full = mt.lm_logits(encode(ids, ids != PAD_ID, w), w).data[labels[:, 0], labels[:, 1]]
    assert shapes == [(len(MIXED), 3, 8)]    # the last block ran at K = 3 rows per molecule
    np.testing.assert_array_equal(truths, labels[:, 2])
    assert np.max(np.abs(logits.data - full)) <= 1e-12


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def adam_reference(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook bias-corrected Adam step t on plain arrays (Kingma & Ba,
    Algorithm 1); returns new (params, m, v) and leaves its inputs alone."""
    new_params, new_m, new_v = [], [], []
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i = beta1 * m_i + (1 - beta1) * g
        v_i = beta2 * v_i + (1 - beta2) * (g * g)
        m_hat = m_i / (1 - beta1 ** t)
        v_hat = v_i / (1 - beta2 ** t)
        new_params.append(p - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m_i)
        new_v.append(v_i)
    return new_params, new_m, new_v


def test_adam_zero_gradient_leaves_params():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    tensors = [Tensor(p.copy(), requires_grad=True) for p in params]
    opt = AdamOptimizer({"a": tensors[0], "b": tensors[1]})
    for t in tensors:
        t.grad = np.zeros_like(t.data)
    opt.step(0.1)
    for p, t in zip(params, tensors):
        np.testing.assert_array_equal(p, t.data)
    assert opt.t == 1


def test_adam_first_step_magnitude_is_learning_rate():
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
    for g in (3.7, -0.02, 150.0):
        t = Tensor(np.array([5.0]), requires_grad=True)
        opt = AdamOptimizer({"p": t})
        t.grad = np.array([g])
        opt.step(0.01)
        delta = float(t.data[0] - 5.0)
        assert delta == pytest.approx(-0.01 * np.sign(g), rel=1e-5)


def test_adam_shape_mismatch():
    t = Tensor(np.zeros(3), requires_grad=True)
    opt = AdamOptimizer({"p": t})
    t.grad = np.zeros(4)
    with pytest.raises(ValueError):
        opt.step(0.1)


def test_adam_optimizer_applies_and_zeroes():
    t = Tensor(np.array([1.0, 1.0]), requires_grad=True)
    opt = AdamOptimizer({"p": t})
    t.grad = np.array([1.0, -1.0])
    opt.step(0.5)
    assert t.data[0] < 1.0 < t.data[1]
    opt.zero_grad()
    assert t.grad is None


def test_adam_optimizer_matches_reference_bitwise():
    # warmup-scheduled steps; the second tensor has no gradient on odd steps,
    # as the LM head has none in fine-tuning, which counts as a zero gradient
    rng = np.random.default_rng(12)
    shapes = [(3, 4), (5,), (2, 1, 3)]
    params = [rng.normal(size=s) for s in shapes]
    tensors = [Tensor(p.copy(), requires_grad=True) for p in params]
    opt = AdamOptimizer({f"p{i}": t for i, t in enumerate(tensors)})
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    warmup, base_lr = 4, 3e-3
    for step in range(1, 9):
        grads = [rng.normal(size=s) for s in shapes]
        for t, g in zip(tensors, grads):
            t.grad = g
        if step % 2:
            grads[1] = np.zeros(shapes[1])
            tensors[1].grad = None
        lr = base_lr * min(1.0, step / warmup)
        opt.step(lr)
        params, m, v = adam_reference(params, grads, m, v, step, lr)
        for t, p in zip(tensors, params):
            assert t.data.tobytes() == p.tobytes()
        for got, want in zip(opt.m + opt.v, m + v):
            assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# affinity transform
# ---------------------------------------------------------------------------

def test_pkd_transform_values():
    assert pkd_transform(1e9) == 0.0
    assert pkd_transform(10000.0) == pytest.approx(5.0, abs=1e-12)
    assert pkd_transform(1.0) == pytest.approx(9.0, abs=1e-12)


def test_pkd_transform_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            pkd_transform(bad)


# ---------------------------------------------------------------------------
# pretraining loop
# ---------------------------------------------------------------------------

def tiny_transformer_cfg(vocab_size, max_len=16):
    return TransformerConfig(vocab_size=vocab_size, num_layers=1, num_heads=2,
                             hidden=16, intermediate=32, max_len=max_len)


def test_pretrain_memorizes_single_molecule():
    mol = "CC(=O)NC"
    vocab = build_vocab([mol], MOLECULE)
    run = TrainRunConfig(seed=1, batch_size=4, steps=400, learning_rate=3e-3)
    result = pretrain([mol], vocab, tiny_transformer_cfg(len(vocab)), run,
                      codec_cfg=CodecConfig(mol_max_len=16), heldout=[mol])
    assert result.heldout_accuracy == 1.0


def test_untrained_accuracy_near_uniform_baseline():
    rng = np.random.default_rng(3)
    alphabet = list("CNOPS=#(")
    corpus = ["".join(rng.choice(alphabet, size=12)) for _ in range(80)]
    vocab = build_vocab(corpus, MOLECULE)
    cfg = tiny_transformer_cfg(len(vocab))
    weights = TransformerWeights(cfg, np.random.default_rng(0))
    encs = [encode_molecule(s, vocab, CodecConfig(mol_max_len=16), False) for s in corpus]
    _, acc = masked_token_eval(masked_eval_batches(encs, vocab, seed=5), weights)
    baseline = 1.0 / (len(vocab) - len(vocab.specials))
    assert acc < 3 * baseline  # untrained stays near random


def test_pretrain_training_loss_decreases_early():
    # training loss measured on the training set under one fixed masking:
    # a deterministic function of the weights, so early descent is clean
    from moldta.training import masked_token_eval
    from toydata import markov_molecules

    rng = np.random.default_rng(6)
    corpus = markov_molecules(256, rng)
    vocab = build_vocab(corpus, MOLECULE)
    cfg = TransformerConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                            hidden=16, intermediate=32, max_len=36)
    codec = CodecConfig(mol_max_len=36)
    encs = [encode_molecule(s, vocab, codec, True) for s in corpus]
    curve = []
    batches = masked_eval_batches(encs, vocab, seed=4321)

    def monitor(step, weights):
        curve.append(masked_token_eval(batches, weights)[0])

    run = TrainRunConfig(seed=0, batch_size=128, steps=100, learning_rate=2e-3,
                         warmup_fraction=0.2)
    pretrain(corpus, vocab, cfg, run, codec_cfg=codec, step_monitor=monitor)
    ma = np.convolve(np.array(curve), np.ones(5) / 5, mode="valid")
    assert (np.diff(ma) <= 1e-9).all(), "5-step moving average must not increase"


def test_pretrain_deterministic_checkpoint_bytes():
    corpus = ["CCO", "CN=C=O", "OCC", "NCC", "C(=O)O", "CCNC", "OC=O", "CNC"]
    vocab = build_vocab(corpus, MOLECULE)
    run = TrainRunConfig(seed=9, batch_size=4, steps=30, learning_rate=1e-3)
    outs = []
    for _ in range(2):
        result = pretrain(corpus, vocab, tiny_transformer_cfg(len(vocab)), run,
                          codec_cfg=CodecConfig(mol_max_len=16), heldout=corpus[:2])
        outs.append(result)
    assert outs[0].checkpoint.to_bytes() == outs[1].checkpoint.to_bytes()
    assert outs[0].losses == outs[1].losses
    assert outs[0].heldout_accuracy == outs[1].heldout_accuracy


def test_pretrain_numerical_blowup_aborts_with_step_diagnostic():
    # layer norm keeps moderate divergence finite; an absurd rate overflows
    # float64 inside the forward pass, which must abort naming the step
    corpus = ["CCO", "CN=C=O", "OCC"]
    vocab = build_vocab(corpus, MOLECULE)
    run = TrainRunConfig(seed=0, batch_size=2, steps=10, learning_rate=1e150,
                         warmup_fraction=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="pretraining step"):
            pretrain(corpus, vocab, tiny_transformer_cfg(len(vocab)), run,
                     codec_cfg=CodecConfig(mol_max_len=16))


# ---------------------------------------------------------------------------
# fine-tuning loop
# ---------------------------------------------------------------------------

PROTS = ["MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ", "MTEYKLVVVGAGGVGKSALTIQLIQNHFVDE"]
SMIS = ["CCO", "CN=C=O", "c1ccccc1", "CC(C)O", "NCCN", "OC=O", "CCN", "CO"]


def tiny_dti_setup(dropout=0.0):
    records = [Rec(s, PROTS[i % 2], 4.0 + 0.5 * i) for i, s in enumerate(SMIS)]
    mol_vocab = build_vocab([r.smiles for r in records], MOLECULE)
    prot_vocab = build_vocab([r.fasta for r in records], PROTEIN)
    codec = CodecConfig(mol_max_len=16, prot_max_len=40)
    cfg = ModelConfig(
        codec=codec,
        transformer=tiny_transformer_cfg(len(mol_vocab)),
        protein=ProteinCnnConfig(vocab_size=len(prot_vocab), embed_dim=8,
                                 filter_lengths=(4, 4), filter_counts=(6, 8)),
        interaction=InteractionConfig(dense_sizes=(16,), dropout=dropout))
    encoded = encode_affinity_data(records, mol_vocab, prot_vocab, codec, True)
    return records, encoded, cfg, mol_vocab, prot_vocab


def test_finetune_overfits_small_set():
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=2, batch_size=8, epochs=300, learning_rate=5e-3)
    result = finetune(encoded, encoded, cfg, run, mol_vocab, prot_vocab)
    assert result.best_dev_mse < 1e-2
    assert result.history[0]["dev_mse"] > result.best_dev_mse
    assert result.best_checkpoint.meta["kind"] == "dti"


def test_finetune_tracks_best_dev_epoch():
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=2, batch_size=8, epochs=40, learning_rate=5e-3)
    result = finetune(encoded[:6], encoded[6:], cfg, run, mol_vocab, prot_vocab)
    dev_curve = [h["dev_mse"] for h in result.history]
    assert result.best_dev_mse == min(dev_curve)
    assert result.history[result.best_epoch - 1]["dev_mse"] == result.best_dev_mse
    assert result.best_checkpoint.meta["epoch"] == result.best_epoch


def test_finetune_overfit_loss_decreases_early():
    # deterministic full-batch objective (dropout off): the learning rate is
    # low enough that the first 100 steps sit inside the initial descent
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=3, batch_size=8, epochs=120, learning_rate=8e-4,
                         warmup_fraction=0.0025)
    result = finetune(encoded, encoded, cfg, run, mol_vocab, prot_vocab)
    curve = np.array([h["train_mse"] for h in result.history[:100]])
    ma = np.convolve(curve, np.ones(5) / 5, mode="valid")
    assert (np.diff(ma) <= 1e-9).all(), "5-step moving average must not increase"


def test_finetune_numerical_blowup_aborts_with_epoch_diagnostic():
    # the first update at an absurd rate overflows the next forward pass
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=2, batch_size=4, epochs=2, learning_rate=1e150,
                         warmup_fraction=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="fine-tuning epoch"):
            finetune(encoded, encoded, cfg, run, mol_vocab, prot_vocab)


def test_finetune_blowup_first_seen_in_the_dev_pass_names_the_epoch():
    # one step per epoch, so the first non-finite values show in the dev pass
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=2, batch_size=8, epochs=2, learning_rate=1e150,
                         warmup_fraction=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="fine-tuning epoch 1"):
            finetune(encoded, encoded, cfg, run, mol_vocab, prot_vocab)


def test_finetune_rejects_a_short_dev_protein_before_the_first_step(monkeypatch):
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    short = encode_affinity_data([Rec("CCO", "MKT", 5.0)], mol_vocab, prot_vocab,
                                 cfg.codec, True)
    steps = []
    monkeypatch.setattr(AdamOptimizer, "step", lambda self, lr: steps.append(lr))
    run = TrainRunConfig(seed=2, batch_size=4, epochs=1)
    with pytest.raises(DataError, match="^protein with 3 real tokens is shorter than "
                                        "the receptive field 7$"):
        finetune(encoded, short, cfg, run, mol_vocab, prot_vocab)
    assert steps == []


def test_finetune_deterministic():
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup(dropout=0.1)
    run = TrainRunConfig(seed=4, batch_size=4, epochs=10, learning_rate=1e-3)
    a = finetune(encoded, encoded, cfg, run, mol_vocab, prot_vocab)
    b = finetune(encoded, encoded, cfg, run, mol_vocab, prot_vocab)
    assert a.best_checkpoint.to_bytes() == b.best_checkpoint.to_bytes()
    assert a.report_text() == b.report_text()


# ---------------------------------------------------------------------------
# warm start
# ---------------------------------------------------------------------------

def test_warm_start_reproduces_pretrained_forward_bitwise():
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=5, batch_size=4, steps=40, learning_rate=1e-3)
    pre = pretrain(SMIS, mol_vocab, cfg.transformer, run,
                   codec_cfg=cfg.codec)
    model = DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(11))
    load_warm_start(model, pre.checkpoint)

    reference = TransformerWeights(cfg.transformer, np.random.default_rng(99))
    pre.checkpoint.restore(reference.named(), "transformer.")
    ids = encoded[0].mol[None]
    mask = ids != PAD_ID
    out_model = mt.encode_ids(ids, mask, model.tw)
    out_reference = mt.encode_ids(ids, mask, reference)
    assert out_model.data.tobytes() == out_reference.data.tobytes()


def test_warm_start_rejects_config_mismatch():
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=5, batch_size=4, steps=5, learning_rate=1e-3)
    pre = pretrain(SMIS, mol_vocab, cfg.transformer, run, codec_cfg=cfg.codec)
    other = ModelConfig(
        codec=cfg.codec,
        transformer=TransformerConfig(vocab_size=len(mol_vocab), num_layers=2,
                                      num_heads=2, hidden=16, intermediate=32,
                                      max_len=16),
        protein=cfg.protein, interaction=cfg.interaction)
    model = DtiModel(other, mol_vocab, prot_vocab, np.random.default_rng(0))
    with pytest.raises(ValueError, match="config does not match"):
        load_warm_start(model, pre.checkpoint)


def test_warm_start_rejects_vocab_mismatch():
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=5, batch_size=4, steps=5, learning_rate=1e-3)
    pre = pretrain(SMIS, mol_vocab, cfg.transformer, run, codec_cfg=cfg.codec)
    pre.checkpoint.meta["mol_vocab"] = list(pre.checkpoint.meta["mol_vocab"][:-1]) + ["@"]
    model = DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(0))
    with pytest.raises(ValueError, match="vocabulary"):
        load_warm_start(model, pre.checkpoint)


@pytest.mark.parametrize("keep_rep", [True, False])
def test_warm_start_rejects_pooling_mismatch(keep_rep):
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    run = TrainRunConfig(seed=5, batch_size=4, steps=5, learning_rate=1e-3)
    pre = pretrain(SMIS, mol_vocab, cfg.transformer, run, codec_cfg=cfg.codec,
                   keep_rep_when_truncated=keep_rep)
    pooling = {True: "rep", False: "mean"}
    matching = DtiModel(replace(cfg, truncation_pooling=pooling[keep_rep]), mol_vocab,
                        prot_vocab, np.random.default_rng(0))
    load_warm_start(matching, pre.checkpoint)
    other = DtiModel(replace(cfg, truncation_pooling=pooling[not keep_rep]), mol_vocab,
                     prot_vocab, np.random.default_rng(0))
    with pytest.raises(DataError, match="warm-start truncation pooling does not match"):
        load_warm_start(other, pre.checkpoint)


def test_warm_start_names_missing_metadata_key():
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    model = DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(0))
    with pytest.raises(DataError, match="lacks 'transformer'"):
        load_warm_start(model, Checkpoint(meta={"kind": "pretrain"}, tensors={}))


def test_warm_start_requires_pretrain_kind():
    _, encoded, cfg, mol_vocab, prot_vocab = tiny_dti_setup()
    model = DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(0))
    with pytest.raises(ValueError, match="pretraining checkpoint"):
        load_warm_start(model, model.to_checkpoint())


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------

def test_encode_affinity_data_caches_duplicates():
    records = [Rec("CCO", PROTS[0], 1.0), Rec("CCO", PROTS[0], 2.0)]
    mol_vocab = build_vocab(["CCO"], MOLECULE)
    prot_vocab = build_vocab(PROTS[:1], PROTEIN)
    encoded = encode_affinity_data(records, mol_vocab, prot_vocab,
                                   CodecConfig(mol_max_len=16, prot_max_len=40), True)
    assert encoded[0].mol is encoded[1].mol
    assert encoded[0].prot is encoded[1].prot
    assert encoded[0].affinity != encoded[1].affinity


def test_run_config_validation():
    with pytest.raises(ValueError):
        TrainRunConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainRunConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainRunConfig(warmup_fraction=2.0)


@pytest.mark.parametrize("fraction", [-0.5, 1.0, 1.5, float("nan")])
def test_run_config_heldout_fraction_outside_unit_interval(fraction):
    with pytest.raises(ValueError, match=r"heldout_fraction must lie in \[0, 1\), got "):
        TrainRunConfig(heldout_fraction=fraction)
