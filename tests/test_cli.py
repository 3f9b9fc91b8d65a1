"""Command-line surface: subcommands, config handling, exit codes, artifacts."""

import json

import numpy as np
import pytest

from dataclasses import asdict

from moldta import cli, data
from moldta.checkpoint import Checkpoint
from moldta.cli import load_config, main
from moldta.codec import MOLECULE, PAD_ID, PROTEIN, CodecConfig, build_vocab, encode_molecule
from moldta.model import ModelConfig, keep_rep_for
from moldta.transformer import TransformerConfig

PROTS = ["MKTAYIAKQRQISFVKSHFSRQLEERLG", "MTEYKLVVVGAGGVGKSALTIQLIQNHF"]
SMIS = ["CCO", "CN=C=O", "CCCNC", "CC(C)O", "NCCN", "OC=O",
        "CCN", "CO", "C(=O)O", "CNC", "OCCO", "NC=O"]

TINY_CONFIG = """\
# tiny model for fast end-to-end runs
model.num_layers = 1
model.num_heads = 2
model.hidden = 8
model.intermediate = 12
model.mol_max_len = 16
model.prot_max_len = 40
model.embed_dim = 6
model.filter_lengths = 3,3
model.filter_counts = 4,5
model.dense_sizes = 7
train.batch_size = 4
train.steps = 15
train.epochs = 3
train.learning_rate = 0.002
train.log_interval = 10
"""


def tiny_config_with(lines: str) -> str:
    """TINY_CONFIG with every key that `lines` sets moved to the end with its
    new value, so each key appears once."""
    keys = {line.split("=", 1)[0].strip() for line in lines.splitlines()}
    kept = [line for line in TINY_CONFIG.splitlines()
            if line.split("=", 1)[0].strip() not in keys]
    return "\n".join(kept) + "\n" + lines


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "config.txt").write_text(TINY_CONFIG)
    (tmp_path / "corpus.txt").write_text("\n".join(SMIS) + "\n")
    rows = ["smiles\tfasta\taffinity"]
    for i, s in enumerate(SMIS):
        rows.append(f"{s}\t{PROTS[i % 2]}\t{4.0 + 0.3 * i}")
    (tmp_path / "data.tsv").write_text("\n".join(rows) + "\n")
    (tmp_path / "candidates.tsv").write_text(
        "id\tname\tsmiles\n3\tGamma\tCCO\n1\tAlpha\tCNC\n2\tBeta\tOCCO\n")
    return tmp_path


def test_tokenize_prints_nine_token_stream(capsys):
    assert main(["tokenize", "CN=C=O"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "[REP] [BEGIN] C N = C = O [END]"


@pytest.mark.parametrize("smiles, cap", [("CN=C=O", 100), ("CN=C=O", 9), ("CN=C=O", 8),
                                         ("CC(=O)OC1=CC=CC=C1", 8), ("C" * 150, 100)])
def test_tokenize_prints_the_stream_the_default_pipeline_encodes(capsys, smiles, cap):
    vocab = build_vocab([smiles], MOLECULE)
    keep_rep = keep_rep_for(ModelConfig.truncation_pooling)
    ids = encode_molecule(smiles, vocab, CodecConfig(mol_max_len=cap), keep_rep)
    assert main(["tokenize", smiles, "--mol-max-len", str(cap)]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == [vocab.tokens[i] for i in ids if i != PAD_ID]


def test_tokenize_nonpositive_length_is_usage_error(capsys):
    assert main(["tokenize", "CCO", "--mol-max-len", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: --mol-max-len: ")
    assert "strictly positive" in captured.err
    assert captured.out == ""


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["pretrain", "--corpus", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "data error" in capsys.readouterr().err


def test_bad_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("model.num_voodoo = 3\n")
    assert main(["pretrain", "--corpus", str(cfg), "--out", str(tmp_path / "o"),
                 "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


def test_load_config_parses_and_validates(tmp_path):
    cfg = tmp_path / "c.txt"
    cfg.write_text("# comment\n\nmodel.hidden = 32\ntrain.seed = 5\n")
    parsed = load_config(cfg)
    assert parsed == {"model.hidden": "32", "train.seed": "5"}
    cfg.write_text("model.hidden 32\n")
    from moldta.cli import UsageError
    with pytest.raises(UsageError, match="key = value"):
        load_config(cfg)


def test_pretrain_writes_artifacts(workspace, capsys):
    out = workspace / "pre"
    code = main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(out), "--config", str(workspace / "config.txt"),
                 "--seed", "3"])
    assert code == 0
    assert (out / "pretrain.ckpt").exists()
    assert (out / "mol_vocab.txt").exists()
    log = (out / "pretrain_log.txt").read_text()
    assert "step 15 loss = " in log
    assert "heldout_accuracy = " in log
    ckpt = Checkpoint.load(out / "pretrain.ckpt")
    assert ckpt.meta["kind"] == "pretrain"
    assert ckpt.meta["transformer"]["hidden"] == 8


def test_finetune_then_evaluate_and_rank(workspace, capsys):
    pre_out = workspace / "pre"
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(pre_out), "--config", str(workspace / "config.txt"),
                 "--seed", "3"]) == 0
    fit_out = workspace / "fit"
    code = main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--mode", "kiba", "--out", str(fit_out),
                 "--config", str(workspace / "config.txt"), "--seed", "1",
                 "--warm-start", str(pre_out / "pretrain.ckpt")])
    assert code == 0
    assert (fit_out / "model.ckpt").exists()
    report = (fit_out / "finetune_report.txt").read_text()
    assert "best_epoch" in report and "dev_mse" in report

    # checkpoint + dataset evaluation path
    report_path = workspace / "report.txt"
    code = main(["evaluate", "--checkpoint", str(fit_out / "model.ckpt"),
                 "--data", str(workspace / "data.tsv"), "--mode", "kiba",
                 "--out", str(report_path)])
    assert code == 0
    text = report_path.read_text()
    assert "mse = " in text and "n = 12" in text

    # ranking against one target
    rank_path = workspace / "ranking.tsv"
    code = main(["rank", "--checkpoint", str(fit_out / "model.ckpt"),
                 "--candidates", str(workspace / "candidates.tsv"),
                 "--target-fasta", PROTS[0], "--out", str(rank_path)])
    assert code == 0
    lines = rank_path.read_text().splitlines()
    assert lines[0] == "rank\tcompound_id\tcompound_name\tscore"
    assert len(lines) == 4
    scores = [float(line.split("\t")[3]) for line in lines[1:]]
    assert scores == sorted(scores, reverse=True)
    assert [line.split("\t")[0] for line in lines[1:]] == ["1", "2", "3"]


def test_pretrain_checkpoint_interval_writes_periodic_snapshots(workspace):
    cfg = workspace / "periodic.txt"
    cfg.write_text(tiny_config_with("train.checkpoint_interval = 5\n"))
    out = workspace / "pre"
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(out), "--config", str(cfg)]) == 0
    assert sorted(p.name for p in out.glob("pretrain_step*.ckpt")) == [
        "pretrain_step10.ckpt", "pretrain_step15.ckpt", "pretrain_step5.ckpt"]
    assert (out / "pretrain_step15.ckpt").read_bytes() == (out / "pretrain.ckpt").read_bytes()


def test_rank_with_no_encodable_candidate_prints_only_the_header(workspace, capsys):
    fit_out = workspace / "fit"
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(fit_out), "--config", str(workspace / "config.txt")]) == 0
    candidates = workspace / "unencodable.tsv"
    candidates.write_text("id\tname\tsmiles\n7\tSeven\tCCX\n8\tEight\tXO\n")
    capsys.readouterr()  # drop the training logs
    assert main(["rank", "--checkpoint", str(fit_out / "model.ckpt"),
                 "--candidates", str(candidates), "--target-fasta", PROTS[0]]) == 0
    captured = capsys.readouterr()
    assert captured.out == "rank\tcompound_id\tcompound_name\tscore\n"
    warnings = captured.err.splitlines()
    assert warnings[0] == "warning: 2 candidate(s) skipped"
    assert sorted(line.split(":")[0].strip() for line in warnings[1:]) == ["7", "8"]


def test_rank_names_the_target_protein_it_cannot_encode(workspace, capsys):
    fit_out = workspace / "fit"
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(fit_out), "--config", str(workspace / "config.txt")]) == 0
    capsys.readouterr()  # drop the training logs
    assert main(["rank", "--checkpoint", str(fit_out / "model.ckpt"),
                 "--candidates", str(workspace / "candidates.tsv"),
                 "--target-fasta", PROTS[0].lower()]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"data error: target protein: unknown character "
                            f"{PROTS[0][0].lower()!r} at position 0\n")
    assert captured.out == ""


def test_rank_rejects_a_target_shorter_than_the_receptive_field(workspace, capsys,
                                                                 monkeypatch):
    fit_out = workspace / "fit"
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(fit_out), "--config", str(workspace / "config.txt")]) == 0
    capsys.readouterr()  # drop the training logs

    def no_candidate_encoded(*args):
        raise AssertionError("a candidate was encoded")

    monkeypatch.setattr(data, "encode_molecule", no_candidate_encoded)
    assert main(["rank", "--checkpoint", str(fit_out / "model.ckpt"),
                 "--candidates", str(workspace / "candidates.tsv"),
                 "--target-fasta", "MK"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("data error: target protein: protein with 2 real tokens "
                            "is shorter than the receptive field 5\n")
    assert captured.out == ""


def test_truncated_checkpoint_exits_two(workspace, capsys):
    blob = Checkpoint(meta={"kind": "dti"}, tensors={"w": np.ones(3)}).to_bytes()
    ckpt = workspace / "cut.ckpt"
    ckpt.write_bytes(blob[:12])
    assert main(["rank", "--checkpoint", str(ckpt),
                 "--candidates", str(workspace / "candidates.tsv"),
                 "--target-fasta", PROTS[0]]) == 2
    assert "data error: corrupt checkpoint" in capsys.readouterr().err


def test_warm_start_from_affinity_checkpoint_exits_two(workspace, capsys):
    ckpt = workspace / "dti.ckpt"
    Checkpoint(meta={"kind": "dti"}, tensors={}).save(ckpt)
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "fit"), "--config", str(workspace / "config.txt"),
                 "--warm-start", str(ckpt)]) == 2
    assert "warm start requires a pretraining checkpoint" in capsys.readouterr().err


def _rank_exit(workspace, meta):
    ckpt = workspace / "meta.ckpt"
    Checkpoint(meta=meta, tensors={}).save(ckpt)
    return main(["rank", "--checkpoint", str(ckpt),
                 "--candidates", str(workspace / "candidates.tsv"),
                 "--target-fasta", PROTS[0]])


def test_rank_checkpoint_without_model_config_exits_two(workspace, capsys):
    assert _rank_exit(workspace, {"kind": "dti"}) == 2
    assert "data error: checkpoint metadata lacks 'model'" in capsys.readouterr().err


def test_rank_checkpoint_with_unknown_config_field_exits_two(workspace, capsys):
    model = asdict(ModelConfig.for_mode("kiba", 40, 30))
    model["transformer"]["rotary"] = True
    assert _rank_exit(workspace, {"kind": "dti", "model": model,
                                  "mol_vocab": [], "prot_vocab": []}) == 2
    err = capsys.readouterr().err
    assert "data error: checkpoint model config:" in err and "rotary" in err


def test_rank_checkpoint_with_protein_cap_below_receptive_field_exits_two(workspace, capsys):
    model = asdict(ModelConfig.for_mode("kiba", 40, 30))
    model["codec"]["prot_max_len"] = 4
    assert _rank_exit(workspace, {"kind": "dti", "model": model,
                                  "mol_vocab": [], "prot_vocab": []}) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: codec prot_max_len 4 is shorter than the protein "
                          "receptive field 34")


def _tiny_pretrain_meta() -> dict:
    """Metadata of a pretraining checkpoint for TINY_CONFIG on SMIS."""
    mol_vocab = build_vocab(SMIS, MOLECULE)
    transformer = TransformerConfig(vocab_size=len(mol_vocab), num_layers=1, num_heads=2,
                                    hidden=8, intermediate=12, max_len=16)
    return {"kind": "pretrain", "transformer": asdict(transformer),
            "codec": asdict(CodecConfig(mol_max_len=16, prot_max_len=40)),
            "mol_vocab": list(mol_vocab.tokens), "keep_rep_when_truncated": True, "step": 1}


def _tiny_dti_meta() -> dict:
    """Metadata of an affinity-model checkpoint for TINY_CONFIG on SMIS and
    PROTS, as JSON holds it."""
    mol_vocab, prot_vocab = build_vocab(SMIS, MOLECULE), build_vocab(PROTS, PROTEIN)
    model = ModelConfig.for_mode("kiba", len(mol_vocab), len(prot_vocab), {
        "codec": {"mol_max_len": 16, "prot_max_len": 40},
        "transformer": {"num_layers": 1, "num_heads": 2, "hidden": 8, "intermediate": 12},
        "protein": {"embed_dim": 6, "filter_lengths": (3, 3), "filter_counts": (4, 5)},
        "interaction": {"dense_sizes": (7,)}})
    return {"kind": "dti", "model": json.loads(json.dumps(asdict(model))),
            "mol_vocab": list(mol_vocab.tokens), "prot_vocab": list(prot_vocab.tokens)}


def _with(meta: dict, path: tuple, value) -> dict:
    node = meta
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return meta


@pytest.mark.parametrize("path, value, message", [
    (("model", "transformer", "num_layers"), 1.5,
     "TransformerConfig.num_layers must be a strictly positive integer, got 1.5"),
    (("model", "protein", "filter_lengths"), [3.5, 3],
     "ProteinCnnConfig.filter_lengths must be a strictly positive integer, got (3.5, 3)"),
    (("model", "interaction", "dense_sizes"), [4.5],
     "InteractionConfig.dense_sizes must be a strictly positive integer, got (4.5,)"),
    (("mol_vocab",), 5, "checkpoint mol_vocab: 'int' object is not iterable"),
    (("prot_vocab",), "[PAD]ACD", "protein vocab must start with ('[PAD]',)"),
    (("mol_vocab", 5), 7, "molecule vocab token 5 is not a string: 7"),
], ids=["num_layers", "filter_lengths", "dense_sizes", "mol_vocab", "prot_vocab",
        "mol_vocab_token"])
def test_rank_checkpoint_with_mistyped_metadata_exits_two(workspace, capsys, path, value,
                                                          message):
    assert _rank_exit(workspace, _with(_tiny_dti_meta(), path, value)) == 2
    assert capsys.readouterr().err == f"data error: {message}\n"


@pytest.mark.parametrize("key, value, message", [
    ("mol_vocab", 5, "checkpoint mol_vocab: 'int' object is not iterable"),
    ("transformer", 5, "checkpoint transformer: "),
    ("keep_rep_when_truncated", 1, "warm-start truncation pooling does not match the model"),
])
def test_warm_start_with_mistyped_metadata_exits_two(workspace, capsys, key, value, message):
    ckpt = workspace / "pre.ckpt"
    Checkpoint(meta=_with(_tiny_pretrain_meta(), (key,), value), tensors={}).save(ckpt)
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "fit"), "--config", str(workspace / "config.txt"),
                 "--warm-start", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {message}") and len(err.splitlines()) == 1
    assert not (workspace / "fit").exists()


def test_warm_start_fills_in_only_an_unset_mol_max_len(workspace, capsys):
    pre_out = workspace / "pre"
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(pre_out), "--config", str(workspace / "config.txt")]) == 0
    unset = workspace / "unset.txt"
    unset.write_text(TINY_CONFIG.replace("model.mol_max_len = 16\n", ""))
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "fit"), "--config", str(unset),
                 "--warm-start", str(pre_out / "pretrain.ckpt")]) == 0
    meta = Checkpoint.load(workspace / "fit" / "model.ckpt").meta["model"]
    assert meta["codec"]["mol_max_len"] == 16
    # a configured length that differs from the warm start's is a conflict
    shorter = workspace / "shorter.txt"
    shorter.write_text(tiny_config_with("model.mol_max_len = 12\n"))
    capsys.readouterr()
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "fit12"), "--config", str(shorter),
                 "--warm-start", str(pre_out / "pretrain.ckpt")]) == 2
    err = capsys.readouterr().err
    assert "warm-start transformer config does not match the model" in err
    assert not (workspace / "fit12").exists()


def test_warm_start_with_other_pooling_exits_two(workspace, capsys):
    pre_out = workspace / "pre"
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(pre_out), "--config", str(workspace / "config.txt")]) == 0
    mean = workspace / "mean.txt"
    mean.write_text(tiny_config_with("model.truncation_pooling = mean\n"))
    capsys.readouterr()
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "fit"), "--config", str(mean),
                 "--warm-start", str(pre_out / "pretrain.ckpt")]) == 2
    err = capsys.readouterr().err
    assert err == "data error: warm-start truncation pooling does not match the model\n"
    assert not (workspace / "fit").exists()


def test_warm_start_without_codec_exits_two(workspace, capsys):
    ckpt = workspace / "pre.ckpt"
    Checkpoint(meta={"kind": "pretrain", "mol_vocab": ["[PAD]"]}, tensors={}).save(ckpt)
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "fit"), "--config", str(workspace / "config.txt"),
                 "--warm-start", str(ckpt)]) == 2
    assert "data error: checkpoint metadata lacks 'codec'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
@pytest.mark.parametrize("lines, message", [
    ("train.batch_size = 0\n", "batch_size, steps and epochs must be positive"),
    ("model.hidden = 10\nmodel.num_heads = 4\n", "divisible"),
    ("model.truncation_pooling = rpe\n", "truncation_pooling must be 'rep' or 'mean'"),
    ("train.log_interval = 0\n", "log_interval must be at least 1"),
    ("train.checkpoint_interval = -1\n", "checkpoint_interval must be non-negative"),
    ("train.seed = -1\n", "seed must be non-negative"),
    ("train.learning_rate = nan\n", "learning rate must be finite and positive, got nan"),
    ("train.learning_rate = inf\n", "learning rate must be finite and positive, got inf"),
])
def test_config_value_failing_validation_exits_one(workspace, capsys, command, lines, message):
    cfg = workspace / "invalid.txt"
    cfg.write_text(tiny_config_with(lines))
    inputs = (["--corpus", str(workspace / "corpus.txt")] if command == "pretrain"
              else ["--data", str(workspace / "data.tsv")])
    assert main([command, *inputs, "--out", str(workspace / "out"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: invalid config: ") and message in err
    assert not (workspace / "out").exists()


def test_finetune_protein_cap_below_the_receptive_field_exits_one(workspace, capsys):
    # filters 3,3 see 5 positions, so no protein could pass a cap of 4
    cfg = workspace / "short.txt"
    cfg.write_text(tiny_config_with("model.prot_max_len = 4\n"))
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "out"), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: invalid config: ")
    assert "prot_max_len 4 is shorter than the protein receptive field 5" in err
    assert not (workspace / "out").exists()


def test_finetune_fold_out_of_range_exits_one(workspace, capsys):
    assert main(["finetune", "--data", str(workspace / "data.tsv"), "--fold", "5",
                 "--out", str(workspace / "out"), "--config", str(workspace / "config.txt")]) == 1
    assert capsys.readouterr().err == "usage error: --fold must lie in 0..4\n"
    assert not (workspace / "out").exists()


def test_pretrain_negative_seed_flag_exits_one(workspace, capsys):
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(workspace / "pre"), "--config", str(workspace / "config.txt"),
                 "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: invalid config: ")
    assert "seed must be non-negative, got -1" in err
    assert not (workspace / "pre").exists()


@pytest.mark.parametrize("fraction", ["-0.5", "1", "1.5"])
def test_pretrain_heldout_fraction_outside_unit_interval_exits_one(workspace, capsys,
                                                                   fraction):
    cfg = workspace / "heldout.txt"
    cfg.write_text(TINY_CONFIG + f"data.heldout_fraction = {fraction}\n")
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(workspace / "pre"), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: invalid config: ")
    assert "heldout_fraction must lie in [0, 1)" in err
    assert not (workspace / "pre").exists()


def test_finetune_heldout_fraction_outside_unit_interval_exits_one(workspace, capsys):
    cfg = workspace / "heldout.txt"
    cfg.write_text(TINY_CONFIG + "data.heldout_fraction = 1.5\n")
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "out"), "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == ("usage error: invalid config: heldout_fraction "
                                       "must lie in [0, 1), got 1.5\n")
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", [
    ["rank", "--checkpoint", "m.ckpt", "--candidates", "c.tsv", "--target-fasta", "MKT"],
    ["evaluate", "--predictions", "p.tsv"],
], ids=["rank", "evaluate"])
@pytest.mark.parametrize("option", [["--config", "config.txt"], ["--seed", "1"],
                                    ["--deterministic"]], ids=lambda o: o[0])
def test_rank_and_evaluate_reject_training_options(capsys, command, option):
    assert main([*command, *option]) == 1
    err = capsys.readouterr().err
    assert err == f"usage error: unrecognized arguments: {' '.join(option)}\n"


def test_pretrain_rejects_unknown_pooling(workspace, capsys):
    cfg = workspace / "pool.txt"
    cfg.write_text(TINY_CONFIG + "model.truncation_pooling = rpe\n")
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(workspace / "pre"), "--config", str(cfg)]) == 1
    assert "truncation_pooling must be 'rep' or 'mean'" in capsys.readouterr().err
    assert not (workspace / "pre").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_config_not_utf8_exits_one(workspace, capsys, command):
    cfg = workspace / "latin1.txt"
    cfg.write_bytes(TINY_CONFIG.encode() + b"# caf\xe9 \xff\n")
    inputs = (["--corpus", str(workspace / "corpus.txt")] if command == "pretrain"
              else ["--data", str(workspace / "data.tsv")])
    assert main([command, *inputs, "--out", str(workspace / "out"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: cannot read config {cfg}: ")
    assert "can't decode byte" in err
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_repeated_config_key_exits_one(workspace, capsys, command):
    cfg = workspace / "twice.txt"
    cfg.write_text(TINY_CONFIG + "model.mol_max_len = 8\n")  # line 6 sets it first
    inputs = (["--corpus", str(workspace / "corpus.txt")] if command == "pretrain"
              else ["--data", str(workspace / "data.tsv")])
    assert main([command, *inputs, "--out", str(workspace / "out"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    last = len(TINY_CONFIG.splitlines()) + 1
    assert f"line {last}: config key 'model.mol_max_len' already set on line 6" in err
    assert not (workspace / "out").exists()


def test_bad_config_value_exits_one(workspace, capsys):
    cfg = workspace / "bad.txt"
    cfg.write_text("model.dense_sizes = 7,x\n")
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(workspace / "fit"), "--config", str(cfg)]) == 1
    assert "config key model.dense_sizes: bad value '7,x'" in capsys.readouterr().err


def test_config_dropout_sets_both_towers_and_mode_sets_defaults(workspace):
    cfg = workspace / "drop.txt"
    cfg.write_text(TINY_CONFIG.replace("model.dense_sizes = 7\n", "")
                   .replace("train.learning_rate = 0.002\n", "") + "model.dropout = 0.3\n")
    assert main(["finetune", "--data", str(workspace / "data.tsv"), "--mode", "davis",
                 "--out", str(workspace / "fit"), "--config", str(cfg)]) == 0
    meta = Checkpoint.load(workspace / "fit" / "model.ckpt").meta["model"]
    assert meta["transformer"]["dropout"] == 0.3
    assert meta["interaction"]["dropout"] == 0.3
    assert meta["interaction"]["dense_sizes"] == [1024, 512]   # davis preset
    assert meta["protein"]["filter_lengths"] == [3, 3]         # config beats preset


def test_evaluate_predictions_file_perfect(workspace, capsys):
    preds = workspace / "preds.tsv"
    rows = ["affinity\tprediction"] + [f"{4 + 0.5 * i}\t{4 + 0.5 * i}" for i in range(20)]
    preds.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--predictions", str(preds), "--mode", "kiba"]) == 0
    out = capsys.readouterr().out
    assert "mse = 0.0" in out
    assert "ci = 1.0" in out


def test_evaluate_predictions_header_repeating_a_column_exits_two(workspace, capsys):
    preds = workspace / "preds.tsv"
    preds.write_text("affinity\tprediction\taffinity\n1.0\t1.5\t9.0\n2.0\t2.5\t8.0\n")
    assert main(["evaluate", "--predictions", str(preds), "--mode", "kiba"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "repeats columns ['affinity']" in err


def test_evaluate_predictions_non_finite_value_exits_two(workspace, capsys):
    preds = workspace / "preds.tsv"
    preds.write_text("affinity\tprediction\n1.0\t1.5\nnan\t2.5\n3.0\t3.5\n")
    assert main(["evaluate", "--predictions", str(preds), "--mode", "kiba"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {preds} line 3: ")
    assert "must be finite" in err


@pytest.mark.parametrize("args", [
    ["pretrain", "--corpus", "{bad}", "--out", "{ws}/out"],
    ["pretrain", "--corpus", "{ws}/corpus.txt", "--vocab", "{bad}", "--out", "{ws}/out"],
    ["finetune", "--data", "{bad}", "--out", "{ws}/out"],
    ["evaluate", "--predictions", "{bad}"],
    ["rank", "--checkpoint", "{ws}/none.ckpt", "--candidates", "{ws}/candidates.tsv",
     "--target-file", "{bad}"],
], ids=["corpus", "vocab", "data", "predictions", "target-file"])
def test_input_not_utf8_exits_two_naming_the_file(workspace, capsys, args):
    bad = workspace / "latin1.txt"
    bad.write_bytes(b"caf\xe9 \xff\n")
    assert main([arg.format(bad=bad, ws=workspace) for arg in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {bad}: ")
    assert "can't decode byte" in err
    assert not (workspace / "out").exists()


AFFINITY_HEADER = "smiles\tfasta\taffinity\n"
PREDICTION_HEADER = "affinity\tprediction\n"
FINETUNE = ["finetune", "--data", "x.tsv", "--out", "out"]
EVALUATE = ["evaluate", "--predictions", "p.tsv"]
CANDIDATE_HEADER = "id\tname\tsmiles\n"
RANK = ["rank", "--checkpoint", "m.ckpt", "--candidates", "c.tsv", "--target-fasta", "MKT"]
MISSING = "No such file or directory"


@pytest.mark.parametrize("files, argv, message", [
    ({"x.tsv": AFFINITY_HEADER + "CCO\tMKT\tx1\n"}, FINETUNE,
     "x.tsv line 2: bad affinity 'x1'"),
    ({"x.tsv": AFFINITY_HEADER + "CCO\tMKT\t5.0\n\nCCN\tMKT\tnan\n"}, FINETUNE,
     "x.tsv line 4: affinity must be finite, got nan"),
    ({"x.tsv": "smiles\tfasta\taffinity\tfold\nCCO\tMKT\t5.0\ta\n"}, FINETUNE,
     "x.tsv line 2: bad fold id 'a'"),
    ({"x.tsv": "smiles\tfasta\taffinity\tfold\nCCO\tMKT\t5.0\t1\nCCN\tMKT\t5.0\t7\n"},
     FINETUNE, "x.tsv line 3: fold id must lie in 0..4, got 7"),
    ({"x.tsv": AFFINITY_HEADER + "CCO\tMKT\t100\nCCN\tMKT\t-1\n"},
     [*FINETUNE, "--mode", "davis", "--raw-kd"],
     "x.tsv line 3: dissociation constant must be positive, got -1.0"),
    ({"x.tsv": AFFINITY_HEADER + "CCO\tMKT\n"}, FINETUNE,
     "x.tsv line 2: expected 3 columns, got 2"),
    ({"x.tsv": AFFINITY_HEADER + "\n"}, FINETUNE, "x.tsv: no data rows"),
    ({"x.tsv": AFFINITY_HEADER + "CCO\tMKT\t5.0\n\tMKT\t5.0\n"}, FINETUNE,
     "x.tsv line 3: empty smiles cell"),
    ({"x.tsv": AFFINITY_HEADER + "CCO\t\t5.0\n"}, FINETUNE, "x.tsv line 2: empty fasta cell"),
    ({"p.tsv": PREDICTION_HEADER + "1.0\t1.5\n\n2.0\tx\n"}, EVALUATE,
     "p.tsv line 4: bad number"),
    ({"p.tsv": PREDICTION_HEADER + "1.0\t1.5\n2.0\tinf\n"}, EVALUATE,
     "p.tsv line 3: affinity and prediction must be finite"),
    ({"p.tsv": PREDICTION_HEADER}, EVALUATE, "p.tsv: no prediction rows"),
    ({}, FINETUNE, f"cannot read x.tsv: [Errno 2] {MISSING}: 'x.tsv'"),
    ({}, EVALUATE, f"cannot read p.tsv: [Errno 2] {MISSING}: 'p.tsv'"),
    ({"corpus.txt": "CCO\n"},
     ["pretrain", "--corpus", "corpus.txt", "--vocab", "v.txt", "--out", "out"],
     f"cannot read v.txt: [Errno 2] {MISSING}: 'v.txt'"),
    ({"c.tsv": CANDIDATE_HEADER + "1\tA\tCCO\n\tB\tCCN\n"}, RANK, "c.tsv line 3: empty id cell"),
    ({"c.tsv": CANDIDATE_HEADER + "1\tA\t\n"}, RANK, "c.tsv line 2: empty smiles cell"),
], ids=["bad-affinity", "nan-affinity", "bad-fold-id", "fold-out-of-range", "negative-kd",
        "ragged-row", "no-rows", "empty-smiles", "empty-fasta", "bad-number", "inf-prediction",
        "no-prediction-rows", "missing-table", "missing-predictions", "missing-vocab",
        "empty-candidate-id", "empty-candidate-smiles"])
def test_malformed_input_error_text(tmp_path, monkeypatch, capsys, files, argv, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_evaluate_requires_exactly_one_source(workspace, capsys):
    assert main(["evaluate", "--mode", "kiba"]) == 1
    assert main(["evaluate", "--predictions", "x", "--checkpoint", "y"]) == 1


@pytest.mark.parametrize("option", [["--data", "missing.tsv"], ["--raw-kd", "--mode", "davis"]])
def test_evaluate_predictions_rejects_the_checkpoint_options(workspace, capsys, option):
    preds = workspace / "preds.tsv"
    preds.write_text("affinity\tprediction\n1.0\t1.5\n2.0\t2.5\n")
    assert main(["evaluate", "--predictions", str(preds), *option]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: --predictions evaluation takes neither --data "
                            "nor --raw-kd\n")


@pytest.mark.parametrize("command, inputs", [
    ("pretrain", ["--corpus", "corpus.txt"]),
    ("finetune", ["--data", "data.tsv"]),
])
def test_training_out_that_is_a_file_fails_before_any_input_is_read(
        workspace, capsys, monkeypatch, command, inputs):
    monkeypatch.chdir(workspace)
    (workspace / "outfile").write_text("kept\n")
    read = []
    monkeypatch.setattr(data, "read_lines", lambda path: read.append(path))
    monkeypatch.setattr(cli, "read_lines", lambda path: read.append(path))
    monkeypatch.setattr(cli, "load_config", lambda path: read.append(path))
    assert main([command, *inputs, "--out", "outfile", "--config", "config.txt"]) == 1
    assert capsys.readouterr().err == ("usage error: --out outfile exists and is not a "
                                       "directory\n")
    assert read == []
    assert (workspace / "outfile").read_text() == "kept\n"


@pytest.mark.parametrize("argv, message", [
    (["finetune", "--data", "empty.tsv", "--fold", "9", "--out", "out"],
     "--fold must lie in 0..4"),
    (["finetune", "--data", "data.tsv", "--raw-kd", "--out", "out", "--config", "config.txt"],
     "--raw-kd applies to --mode davis only"),
    (["evaluate", "--checkpoint", "m.ckpt", "--data", "data.tsv", "--raw-kd"],
     "--raw-kd applies to --mode davis only"),
], ids=["finetune-fold", "finetune-raw-kd", "evaluate-raw-kd"])
def test_option_conflicts_fail_before_any_input_is_read(workspace, capsys, monkeypatch,
                                                        argv, message):
    monkeypatch.chdir(workspace)
    (workspace / "empty.tsv").write_text(AFFINITY_HEADER)
    read = []
    monkeypatch.setattr(data, "read_lines", lambda path: read.append(path))
    monkeypatch.setattr(cli, "load_config", lambda path: read.append(path))
    monkeypatch.setattr(Checkpoint, "load", lambda path: read.append(path))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert read == []
    assert not (workspace / "out").exists()


@pytest.mark.parametrize("target", [["--target-fasta", ""], ["--target-file", "header.fasta"]],
                         ids=["empty-fasta-option", "header-only-file"])
def test_rank_empty_target_is_a_data_error(workspace, capsys, monkeypatch, target):
    monkeypatch.chdir(workspace)
    (workspace / "header.fasta").write_text(">only a header\n")
    assert main(["rank", "--checkpoint", "m.ckpt", "--candidates", "candidates.tsv",
                 *target]) == 2
    captured = capsys.readouterr()
    assert captured.err == "data error: empty target protein sequence\n"
    assert captured.out == ""


def test_rank_target_file_fasta_format(workspace, capsys):
    pre_out = workspace / "pre2"
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                 "--out", str(pre_out), "--config", str(workspace / "config.txt")]) == 0
    fit_out = workspace / "fit2"
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(fit_out), "--config", str(workspace / "config.txt")]) == 0
    target = workspace / "target.fasta"
    target.write_text(f">sp|TEST|EXAMPLE\n{PROTS[0][:14]}\n{PROTS[0][14:]}\n")
    capsys.readouterr()  # drop the training logs
    code = main(["rank", "--checkpoint", str(fit_out / "model.ckpt"),
                 "--candidates", str(workspace / "candidates.tsv"),
                 "--target-file", str(target)])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("rank\t")


def test_rank_target_file_with_two_records_exits_two(workspace, capsys):
    fit_out = workspace / "fit"
    assert main(["finetune", "--data", str(workspace / "data.tsv"),
                 "--out", str(fit_out), "--config", str(workspace / "config.txt")]) == 0
    target = workspace / "two.fasta"
    target.write_text(f">first\n{PROTS[0]}\n>second\n{PROTS[1]}\n")
    capsys.readouterr()  # drop the training logs
    assert main(["rank", "--checkpoint", str(fit_out / "model.ckpt"),
                 "--candidates", str(workspace / "candidates.tsv"),
                 "--target-file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"data error: {target}: 2 FASTA records; rank scores one target\n"
    assert captured.out == ""


def test_pretrain_vocab_of_another_kind_exits_two_naming_the_file(workspace, capsys):
    vocab = workspace / "v.txt"
    vocab.write_text("C\nN\n")
    assert main(["pretrain", "--corpus", str(workspace / "corpus.txt"), "--vocab", str(vocab),
                 "--out", str(workspace / "out"), "--config", str(workspace / "config.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {vocab}: molecule vocab must start with ")
    assert not (workspace / "out").exists()


def test_numerical_blowup_exits_three(workspace, capsys):
    cfg = workspace / "blowup.txt"
    cfg.write_text(tiny_config_with("train.learning_rate = 1e150\n"))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["pretrain", "--corpus", str(workspace / "corpus.txt"),
                     "--out", str(workspace / "boom"), "--config", str(cfg)])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_cli_runs_are_deterministic(workspace):
    args_a = ["pretrain", "--corpus", str(workspace / "corpus.txt"),
              "--out", str(workspace / "da"), "--config", str(workspace / "config.txt"),
              "--seed", "7", "--deterministic"]
    args_b = ["pretrain", "--corpus", str(workspace / "corpus.txt"),
              "--out", str(workspace / "db"), "--config", str(workspace / "config.txt"),
              "--seed", "7", "--deterministic"]
    assert main(args_a) == 0
    assert main(args_b) == 0
    a = (workspace / "da" / "pretrain.ckpt").read_bytes()
    b = (workspace / "db" / "pretrain.ckpt").read_bytes()
    assert a == b
    assert (workspace / "da" / "pretrain_log.txt").read_text() == \
        (workspace / "db" / "pretrain_log.txt").read_text()
