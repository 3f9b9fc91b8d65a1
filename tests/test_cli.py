"""Command-line surface: subcommands, config handling, exit codes, artifacts."""

import numpy as np
import pytest

from dataclasses import asdict

from moldta.checkpoint import Checkpoint
from moldta.cli import load_config, main
from moldta.model import ModelConfig

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


def test_evaluate_requires_exactly_one_source(workspace, capsys):
    assert main(["evaluate", "--mode", "kiba"]) == 1
    assert main(["evaluate", "--predictions", "x", "--checkpoint", "y"]) == 1


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
