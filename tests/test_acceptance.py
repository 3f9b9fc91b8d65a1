"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s to watch them stream).

Quantitative checks run at desk scale on synthetic corpora; tolerances are
pinned here and nowhere else.
"""

import contextlib
from fractions import Fraction

import numpy as np
import pytest

from capture import op_outputs
from gradcheck import check_param_gradients
from moldta import autodiff as ad
from moldta import transformer as mt
from moldta.checkpoint import Checkpoint
from moldta.cli import main
from moldta.codec import (MOLECULE, PAD_ID, PROTEIN, CodecConfig, build_vocab,
                          encode_molecule, encode_protein)
from moldta.data import Candidate, rank_candidates
from moldta.interaction import InteractionConfig, mse_loss
from moldta.metrics import aupr, binarize, concordance_index, rm2_index
from moldta.model import DtiModel, ModelConfig
from moldta.protein_cnn import ProteinCnnConfig
from moldta.training import (TrainRunConfig, encode_affinity_data, finetune,
                             load_warm_start, make_masked_example, masked_eval_batches,
                             masked_token_eval, pkd_transform, pretrain)
from moldta.transformer import TransformerConfig, TransformerWeights
from toydata import markov_molecules, random_proteins, synthetic_affinity_records


@contextlib.contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {title}")
        raise
    print(f"[PASS] criterion {num}: {title}")


# ---------------------------------------------------------------------------
# 1. tokenizer fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_tokenizer_fidelity(capsys):
    with criterion(1, "tokenize CN=C=O emits the 9-token stream"):
        assert main(["tokenize", "CN=C=O"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "[REP] [BEGIN] C N = C = O [END]"
        assert len(out.split(" ")) == 9


# ---------------------------------------------------------------------------
# 2. masking statistics
# ---------------------------------------------------------------------------

def test_criterion_2_masking_statistics():
    with criterion(2, "masking rates 0.15 / 0.80 / 0.10 / 0.10 over 1e6 tokens"):
        # 160 payload characters keep the random-replacement collision bias
        # (collisions read as "kept") at 0.1/160, far inside the tolerance
        alphabet = [chr(c) for c in range(33, 127)] + [chr(c) for c in range(161, 227)]
        assert len(alphabet) == 160
        rng = np.random.default_rng(97)
        payload_len = 100
        corpus = ["".join(rng.choice(alphabet, size=payload_len)) for _ in range(200)]
        vocab = build_vocab(corpus, MOLECULE)
        cfg = CodecConfig(mol_max_len=payload_len + 4)
        ids = np.stack([encode_molecule(s, vocab, cfg, False) for s in corpus])
        special = np.array(sorted(vocab.id_of(t) for t in vocab.specials))
        mask_id = vocab.id_of("[MASK]")

        payload_total = 0
        selected = masked = replaced = kept = 0
        while payload_total < 1_000_000:
            example = make_masked_example(ids, vocab, rng)
            payload_total += payload_len * len(ids)
            rows, positions, true_ids = example.labels.T
            assert not np.isin(true_ids, special).any(), "selected a special token"
            selected += true_ids.size
            new_ids = example.input_ids[rows, positions]
            assert not np.isin(new_ids, special[special != mask_id]).any(), \
                "a special token was used as a replacement"
            masked += int((new_ids == mask_id).sum())
            replaced += int(((new_ids != mask_id) & (new_ids != true_ids)).sum())
            kept += int(((new_ids != mask_id) & (new_ids == true_ids)).sum())
        assert payload_total >= 1_000_000
        assert abs(selected / payload_total - 0.15) < 0.002
        assert abs(masked / selected - 0.80) < 0.005
        assert abs(replaced / selected - 0.10) < 0.004
        assert abs(kept / selected - 0.10) < 0.004


# ---------------------------------------------------------------------------
# 3. gradient integrity, end to end
# ---------------------------------------------------------------------------

def test_criterion_3_end_to_end_gradient_integrity():
    with criterion(3, "every parameter gradient matches finite differences < 1e-4"):
        mol_vocab = build_vocab(["CNO=c"], MOLECULE)
        prot_vocab = build_vocab(["ACDEG"], PROTEIN)
        cfg = ModelConfig(
            codec=CodecConfig(mol_max_len=8, prot_max_len=20),
            transformer=TransformerConfig(vocab_size=len(mol_vocab), num_layers=1,
                                          num_heads=2, hidden=4, intermediate=8,
                                          dropout=0.1, max_len=8),
            protein=ProteinCnnConfig(vocab_size=len(prot_vocab), embed_dim=4,
                                     filter_lengths=(3, 3), filter_counts=(4, 4)),
            interaction=InteractionConfig(dense_sizes=(8,), dropout=0.1))
        model = DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(17))
        # zero-init biases can leave relu/maxpool kinks inside the probe
        # radius; move to a generic differentiable point
        bias_rng = np.random.default_rng(18)
        for b in model.pw.biases:
            b.data = bias_rng.normal(scale=0.3, size=b.data.shape)
        for _, b in model.iw.dense:
            b.data = bias_rng.normal(scale=0.3, size=b.data.shape)

        codec = cfg.codec
        mols = [encode_molecule(s, mol_vocab, codec, False) for s in ("CNO", "c=O")]
        prots = [encode_protein("ACDEGACDEGACDEGACDEG", prot_vocab, codec),
                 encode_protein("GEDCAGEDCAGEDCAGEDCA", prot_vocab, codec)]
        mol_ids = np.stack(mols)
        prot_ids = np.stack(prots)
        targets = np.array([1.3, -0.4])

        def loss_fn():
            pred = model.forward_ids(mol_ids, prot_ids)
            return mse_loss(pred, targets)

        named = model.named_params()
        worst = check_param_gradients(loss_fn, named, eps=1e-5, tol=1e-4)
        assert len(worst) == len(named)
        print(f"    checked {len(named)} tensors "
              f"({sum(t.data.size for t in named.values())} scalars), "
              f"worst rel err {max(worst.values()):.2e}", end=" ")


# ---------------------------------------------------------------------------
# 4. attention invariants
# ---------------------------------------------------------------------------

def test_criterion_4_attention_invariants():
    with criterion(4, "attention rows sum to 1, zero mass on padding, pad immunity"):
        rng = np.random.default_rng(21)
        corpus = markov_molecules(50, rng)
        vocab = build_vocab(corpus, MOLECULE)
        cfg = TransformerConfig(vocab_size=len(vocab), num_layers=2, num_heads=4,
                                hidden=32, intermediate=64, max_len=36)
        w = TransformerWeights(cfg, rng)
        codec = CodecConfig(mol_max_len=36)
        encs = [encode_molecule(s, vocab, codec, False) for s in corpus[:8]]
        ids = np.stack(encs)
        mask = ids != PAD_ID

        with op_outputs("softmax_rows") as attn:
            base = mt.encode_ids(ids, mask, w)
        for probs in attn:
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
            for row in range(ids.shape[0]):
                pads = ~mask[row]
                assert (probs[row][:, :, pads] == 0.0).all()

        tampered = ids.copy()
        for row in range(ids.shape[0]):
            pads = np.nonzero(~mask[row])[0]
            tampered[row, pads] = (pads % (len(vocab) - 1)) + 1
        out = mt.encode_ids(tampered, mask, w)
        for row in range(ids.shape[0]):
            real = mask[row]
            np.testing.assert_array_equal(base.data[row, real], out.data[row, real])


# ---------------------------------------------------------------------------
# 5. metric oracles
# ---------------------------------------------------------------------------

def _ci_oracle(y, f):
    num = 0.0
    den = 0
    n = len(y)
    for i in range(n):
        for j in range(n):
            if y[i] > y[j]:
                den += 1
                d = f[i] - f[j]
                num += 1.0 if d > 0 else (0.5 if d == 0 else 0.0)
    return num / den if den else None


def _aupr_oracle(labels, scores):
    order = sorted(range(len(labels)), key=lambda i: -scores[i])
    positives = sum(labels)
    area = Fraction(0)
    tp = seen = 0
    prev_recall = Fraction(0)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and scores[order[j]] == scores[order[i]]:
            tp += labels[order[j]]
            seen += 1
            j += 1
        recall = Fraction(tp, positives)
        area += (recall - prev_recall) * Fraction(tp, seen)
        prev_recall = recall
        i = j
    return float(area)


def _rm2_oracle(y, f):
    yF = [Fraction(v).limit_denominator(10**9) for v in y]
    fF = [Fraction(v).limit_denominator(10**9) for v in f]
    n = len(yF)
    ybar = sum(yF) / n
    fbar = sum(fF) / n
    cov = sum((a - fbar) * (b - ybar) for a, b in zip(fF, yF))
    ssf = sum((a - fbar) ** 2 for a in fF)
    ssy = sum((b - ybar) ** 2 for b in yF)
    if ssf == 0 or ssy == 0:
        return None
    r2 = cov * cov / (ssf * ssy)
    k = sum(a * b for a, b in zip(yF, fF)) / sum(a * a for a in fF)
    r02 = 1 - sum((b - k * a) ** 2 for a, b in zip(fF, yF)) / ssy
    return float(r2) * (1.0 - float(max(r2 - r02, Fraction(0))) ** 0.5)


def test_criterion_5_metric_oracles():
    with criterion(5, "CI / rm2 / AUPR match brute force (1e-9, 1000 instances)"):
        rng = np.random.default_rng(55)
        checked = {"ci": 0, "rm2": 0, "aupr": 0}
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            y = np.round(rng.normal(0, 2, size=n) * 2) / 2  # truth ties likely
            f = np.round(rng.normal(0, 2, size=n), 1)       # score ties likely
            if not np.all(y == y[0]):
                assert abs(concordance_index(y, f) - _ci_oracle(y, f)) < 1e-9
                checked["ci"] += 1
            if n >= 2 and not np.all(y == y[0]) and not np.all(f == f[0]):
                expect = _rm2_oracle(y, f)
                assert abs(rm2_index(y, f) - expect) < 1e-9
                checked["rm2"] += 1
            labels = binarize(y, 0.5)
            if 0 < labels.sum() < n:
                assert abs(aupr(labels, f) - _aupr_oracle(labels.tolist(),
                                                          f.tolist())) < 1e-9
                checked["aupr"] += 1
        assert min(checked.values()) > 800, f"too few usable instances: {checked}"

        # exact invariance under strictly increasing transforms
        for _ in range(50):
            n = int(rng.integers(3, 40))
            y = np.round(rng.normal(0, 2, size=n), 1)
            f = rng.normal(0, 1.5, size=n)
            labels = binarize(y, 0.0)
            if np.all(y == y[0]) or not 0 < labels.sum() < n:
                continue
            ci0 = concordance_index(y, f)
            assert concordance_index(y, 2 * f + 1) == ci0
            assert concordance_index(y, f ** 3) == ci0
            ap0 = aupr(labels, f)
            assert aupr(labels, 2 * f + 1) == ap0
            assert aupr(labels, f ** 3) == ap0


# ---------------------------------------------------------------------------
# 6. affinity log transform
# ---------------------------------------------------------------------------

def test_criterion_6_pkd_transform():
    with criterion(6, "dissociation transform: 10000 nM -> 5.0, 1e9 nM -> 0.0"):
        assert pkd_transform(10000.0) == 5.0
        assert pkd_transform(1e9) == 0.0


# ---------------------------------------------------------------------------
# 7. pretraining sanity
# ---------------------------------------------------------------------------

def test_criterion_7_pretraining_sanity():
    with criterion(7, "heldout masked accuracy >= 3x baseline; early loss descent"):
        rng = np.random.default_rng(7)
        corpus = markov_molecules(1100, rng)
        train, heldout = corpus[:1000], corpus[1000:]
        vocab = build_vocab(corpus, MOLECULE)
        codec = CodecConfig(mol_max_len=36)
        cfg = TransformerConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                                hidden=16, intermediate=32, max_len=36)
        run = TrainRunConfig(seed=0, batch_size=128, steps=2000, learning_rate=2e-3,
                             warmup_fraction=0.01, log_interval=500)

        train_encs = [encode_molecule(s, vocab, codec, True) for s in train]
        curve = []
        batches = masked_eval_batches(train_encs, vocab, seed=4321)

        def monitor(step, weights):
            # training loss on the training set under one fixed masking:
            # a deterministic measurement of optimization progress
            if step <= 104:
                curve.append(masked_token_eval(batches, weights)[0])

        result = pretrain(train, vocab, cfg, run, codec_cfg=codec, heldout=heldout,
                          step_monitor=monitor)
        baseline = result.payload_baseline
        assert baseline == pytest.approx(0.1)
        assert result.heldout_accuracy > 3 * baseline, (
            f"accuracy {result.heldout_accuracy:.3f} vs 3x baseline {3 * baseline:.3f}")

        ma = np.convolve(np.array(curve[:100]), np.ones(5) / 5, mode="valid")
        assert (np.diff(ma) <= 1e-9).all(), \
            "training-loss 5-step moving average increased in the first 100 steps"
        print(f"    heldout accuracy {result.heldout_accuracy:.3f} "
              f"(baseline {baseline:.3f}), loss {curve[0]:.3f}->{curve[99]:.3f}",
              end=" ")


# ---------------------------------------------------------------------------
# 8. fine-tuning sanity
# ---------------------------------------------------------------------------

def test_criterion_8_finetune_overfit():
    with criterion(8, "32 synthetic records reach training MSE < 1e-2 in 2000 steps"):
        rng = np.random.default_rng(88)
        records = synthetic_affinity_records(32, rng)
        mol_vocab = build_vocab([r.smiles for r in records], MOLECULE)
        prot_vocab = build_vocab([r.fasta for r in records], PROTEIN)
        codec = CodecConfig(mol_max_len=36, prot_max_len=36)
        cfg = ModelConfig(
            codec=codec,
            transformer=TransformerConfig(vocab_size=len(mol_vocab), num_layers=1,
                                          num_heads=2, hidden=24, intermediate=48,
                                          dropout=0.0, max_len=36),
            protein=ProteinCnnConfig(vocab_size=len(prot_vocab), embed_dim=8,
                                     filter_lengths=(4, 4), filter_counts=(6, 8)),
            interaction=InteractionConfig(dense_sizes=(32,), dropout=0.0))
        encoded = encode_affinity_data(records, mol_vocab, prot_vocab, codec, True)
        # full-batch epochs: one optimizer step per epoch, 2000 steps total
        run = TrainRunConfig(seed=3, batch_size=32, epochs=2000, learning_rate=8e-4,
                             warmup_fraction=0.0025)
        result = finetune(encoded, encoded, cfg, run, mol_vocab, prot_vocab)
        train_curve = [h["train_mse"] for h in result.history]
        best = min(train_curve)
        reached = next(i for i, v in enumerate(train_curve, start=1) if v < 1e-2)
        assert best < 1e-2, f"training MSE only reached {best:.4f}"
        ma = np.convolve(np.array(train_curve[:100]), np.ones(5) / 5, mode="valid")
        assert (np.diff(ma) <= 1e-9).all(), \
            "training MSE 5-step moving average increased in the first 100 steps"
        print(f"    mse<1e-2 at step {reached}, final {train_curve[-1]:.2e}", end=" ")


# ---------------------------------------------------------------------------
# 9. warm-start plumbing
# ---------------------------------------------------------------------------

def test_criterion_9_warm_start_bitwise():
    with criterion(9, "warm start reproduces pretrained forward outputs bitwise"):
        rng = np.random.default_rng(9)
        corpus = markov_molecules(64, rng)
        vocab = build_vocab(corpus, MOLECULE)
        codec = CodecConfig(mol_max_len=36, prot_max_len=36)
        tcfg = TransformerConfig(vocab_size=len(vocab), num_layers=1, num_heads=2,
                                 hidden=16, intermediate=32, max_len=36)
        run = TrainRunConfig(seed=4, batch_size=16, steps=50, learning_rate=1e-3)
        pre = pretrain(corpus, vocab, tcfg, run, codec_cfg=codec)

        reference = TransformerWeights(tcfg, np.random.default_rng(123))
        pre.checkpoint.restore(reference.named(), "transformer.")

        prot_vocab = build_vocab(random_proteins(4, rng), PROTEIN)
        cfg = ModelConfig(codec=codec, transformer=tcfg,
                          protein=ProteinCnnConfig(vocab_size=len(prot_vocab),
                                                   embed_dim=8, filter_lengths=(4, 4),
                                                   filter_counts=(6, 8)),
                          interaction=InteractionConfig(dense_sizes=(16,)))
        model = DtiModel(cfg, vocab, prot_vocab, np.random.default_rng(777))
        load_warm_start(model, pre.checkpoint)

        encs = [encode_molecule(s, vocab, codec, True) for s in corpus[:16]]
        ids = np.stack(encs)
        mask = ids != PAD_ID
        out_model = mt.encode_ids(ids, mask, model.tw)
        out_reference = mt.encode_ids(ids, mask, reference)
        assert out_model.data.tobytes() == out_reference.data.tobytes()


# ---------------------------------------------------------------------------
# 10. determinism
# ---------------------------------------------------------------------------

def test_criterion_10_bitwise_determinism(tmp_path):
    with criterion(10, "same seed + config -> bitwise-identical checkpoints/reports"):
        rng = np.random.default_rng(10)
        corpus = markov_molecules(60, rng)
        (tmp_path / "corpus.txt").write_text("\n".join(corpus) + "\n")
        records = synthetic_affinity_records(24, rng)
        rows = ["smiles\tfasta\taffinity"]
        rows += [f"{r.smiles}\t{r.fasta}\t{r.affinity}" for r in records]
        (tmp_path / "data.tsv").write_text("\n".join(rows) + "\n")
        (tmp_path / "config.txt").write_text(
            "model.num_layers = 1\nmodel.num_heads = 2\nmodel.hidden = 16\n"
            "model.intermediate = 32\nmodel.mol_max_len = 36\n"
            "model.prot_max_len = 36\nmodel.embed_dim = 8\n"
            "model.filter_lengths = 4,4\nmodel.filter_counts = 6,8\n"
            "model.dense_sizes = 16\ntrain.batch_size = 16\ntrain.steps = 40\n"
            "train.epochs = 4\ntrain.learning_rate = 0.002\n")

        for tag in ("a", "b"):
            assert main(["pretrain", "--corpus", str(tmp_path / "corpus.txt"),
                         "--out", str(tmp_path / f"pre_{tag}"),
                         "--config", str(tmp_path / "config.txt"),
                         "--seed", "12", "--deterministic"]) == 0
            assert main(["finetune", "--data", str(tmp_path / "data.tsv"),
                         "--out", str(tmp_path / f"fit_{tag}"),
                         "--config", str(tmp_path / "config.txt"),
                         "--warm-start", str(tmp_path / f"pre_{tag}" / "pretrain.ckpt"),
                         "--seed", "12", "--deterministic"]) == 0
        for name in ("pretrain.ckpt", "pretrain_log.txt", "mol_vocab.txt"):
            assert (tmp_path / "pre_a" / name).read_bytes() == \
                (tmp_path / "pre_b" / name).read_bytes(), f"{name} differs"
        for name in ("model.ckpt", "finetune_report.txt"):
            assert (tmp_path / "fit_a" / name).read_bytes() == \
                (tmp_path / "fit_b" / name).read_bytes(), f"{name} differs"


# ---------------------------------------------------------------------------
# 11. ranking workflow
# ---------------------------------------------------------------------------

def test_criterion_11_ranking_workflow(tmp_path):
    with criterion(11, "10-candidate ranking: sorted, contiguous, bitwise scores"):
        rng = np.random.default_rng(11)
        mols = markov_molecules(10, rng)
        target = random_proteins(1, rng)[0]
        mol_vocab = build_vocab(mols, MOLECULE)
        prot_vocab = build_vocab([target], PROTEIN)
        codec = CodecConfig(mol_max_len=36, prot_max_len=36)
        cfg = ModelConfig(
            codec=codec,
            transformer=TransformerConfig(vocab_size=len(mol_vocab), num_layers=1,
                                          num_heads=2, hidden=16, intermediate=32,
                                          max_len=36),
            protein=ProteinCnnConfig(vocab_size=len(prot_vocab), embed_dim=8,
                                     filter_lengths=(4, 4), filter_counts=(6, 8)),
            interaction=InteractionConfig(dense_sizes=(16,)))
        model = DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng(42))
        ckpt_path = tmp_path / "toy.ckpt"
        model.to_checkpoint().save(ckpt_path)

        candidates = [Candidate(f"c{i:02d}", f"mol{i}", s) for i, s in enumerate(mols)]
        restored = DtiModel.from_checkpoint(Checkpoint.load(ckpt_path))
        ranked, errors = rank_candidates(candidates, target, restored)
        assert not errors
        assert [rc.rank for rc in ranked] == list(range(1, 11))
        scores = [rc.score for rc in ranked]
        assert all(a >= b for a, b in zip(scores, scores[1:]))

        prot_enc = encode_protein(target, restored.prot_vocab, codec)
        for rc in ranked:
            mol_enc = encode_molecule(rc.smiles, restored.mol_vocab, codec,
                                      restored.cfg.keep_rep_when_truncated)
            direct = restored.predict([mol_enc], [prot_enc], batch_size=1)[0]
            assert rc.score == direct, "ranking score differs from direct prediction"

        # Table-layout check through the command-line path.
        cand_path = tmp_path / "cands.tsv"
        cand_path.write_text("id\tname\tsmiles\n" + "".join(
            f"{c.compound_id}\t{c.compound_name}\t{c.smiles}\n" for c in candidates))
        out_path = tmp_path / "ranking.tsv"
        assert main(["rank", "--checkpoint", str(ckpt_path),
                     "--candidates", str(cand_path), "--target-fasta", target,
                     "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "rank\tcompound_id\tcompound_name\tscore"
        assert [int(line.split("\t")[0]) for line in lines[1:]] == list(range(1, 11))
        file_scores = [float(line.split("\t")[3]) for line in lines[1:]]
        assert file_scores == scores  # repr round trip keeps full precision
