"""Command-line entry point.

Subcommands: pretrain, finetune, evaluate, rank, tokenize. A flat text
config file (dotted keys, `key = value` lines) supplies defaults; explicit
command-line flags win. Exit codes: 0 success, 1 usage, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .checkpoint import Checkpoint
from .codec import (MOLECULE, PROTEIN, CodecConfig, Vocab, build_vocab, read_lines,
                    tokenize_molecule)
from .data import (format_ranking, load_affinity_dataset, load_candidates,
                   load_predictions, rank_candidates, split_folds)
from .errors import DataError, NumericalError
from .metrics import evaluate
from .model import MODE_PRESETS, DtiModel, ModelConfig, keep_rep_for, read_meta
from .training import TrainRunConfig, encode_affinity_data, finetune, pretrain
from .transformer import TransformerConfig


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_tuple(raw: str) -> tuple:
    return tuple(int(part) for part in raw.split(","))


# Config key -> (parser, the sections whose field named like the key's last
# part it sets). Sections are codec, transformer, protein, interaction,
# model (ModelConfig itself) and run (TrainRunConfig). An unset field keeps
# its dataclass default or the dataset mode's preset.
CONFIG_KEYS = {
    "model.num_layers": (int, ("transformer",)),
    "model.num_heads": (int, ("transformer",)),
    "model.hidden": (int, ("transformer",)),
    "model.intermediate": (int, ("transformer",)),
    "model.dropout": (float, ("transformer", "interaction")),
    "model.mol_max_len": (int, ("codec",)),
    "model.prot_max_len": (int, ("codec",)),
    "model.embed_dim": (int, ("protein",)),
    "model.filter_lengths": (_int_tuple, ("protein",)),
    "model.filter_counts": (_int_tuple, ("protein",)),
    "model.dense_sizes": (_int_tuple, ("interaction",)),
    "model.truncation_pooling": (str, ("model",)),
    "train.batch_size": (int, ("run",)),
    "train.steps": (int, ("run",)),
    "train.epochs": (int, ("run",)),
    "train.learning_rate": (float, ("run",)),
    "train.warmup_fraction": (float, ("run",)),
    "train.checkpoint_interval": (int, ("run",)),
    "train.log_interval": (int, ("run",)),
    "train.seed": (int, ("run",)),
    "data.heldout_fraction": (float, ("run",)),
}


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    out, first_line = {}, {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"{path} line {lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path} line {lineno}: unknown config key {key!r}")
        if key in first_line:
            raise UsageError(f"{path} line {lineno}: config key {key!r} "
                             f"already set on line {first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def _sections(args, *names) -> dict:
    """Parse the --config values that set fields of the named sections into
    {section: {field: value}}; keys for other sections stay unparsed.
    --seed beats train.seed."""
    config = load_config(args.config) if args.config else {}
    out = {name: {} for name in names}
    for key, raw in config.items():
        cast, sections = CONFIG_KEYS[key]
        sections = [section for section in sections if section in out]
        if not sections:
            continue
        try:
            value = cast(raw)
        except ValueError as exc:
            raise UsageError(f"config key {key}: bad value {raw!r}") from exc
        for section in sections:
            out[section][key.split(".", 1)[1]] = value
    if args.seed is not None and "run" in out:
        out["run"]["seed"] = args.seed
    return out


def _configured(build, *args, **kwargs):
    """Build a config from --config values; a value that parses but fails
    the config's validation is a usage error, like one that does not parse."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(f"invalid config: {exc}") from exc


def _write_text(path, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_tokenize(args) -> int:
    try:
        cfg = CodecConfig(mol_max_len=args.mol_max_len)
    except ValueError as exc:
        raise UsageError(f"--mol-max-len: {exc}") from exc
    keep_rep = keep_rep_for(ModelConfig.truncation_pooling)  # the pipelines' default stream
    print(" ".join(tokenize_molecule(args.smiles, cfg, keep_rep)))
    return 0


def cmd_pretrain(args) -> int:
    sections = _sections(args, "codec", "transformer", "model", "run")
    codec_cfg = _configured(CodecConfig, **sections["codec"])
    lines = [line for line in read_lines(args.corpus) if line]
    if not lines:
        raise DataError(f"{args.corpus}: no molecules")
    vocab = Vocab.load(args.vocab, MOLECULE) if args.vocab else build_vocab(lines, MOLECULE)
    run = _configured(TrainRunConfig, **sections["run"])
    rng = np.random.default_rng(run.seed)
    order = rng.permutation(len(lines))
    n_heldout = int(len(lines) * run.heldout_fraction)
    heldout = [lines[i] for i in order[:n_heldout]]
    train = [lines[i] for i in order[n_heldout:]]
    if not train:
        raise DataError("heldout fraction leaves no training molecules")
    tcfg = _configured(TransformerConfig, vocab_size=len(vocab),
                       max_len=codec_cfg.mol_max_len, **sections["transformer"])
    keep_rep = _configured(keep_rep_for, sections["model"].get(
        "truncation_pooling", ModelConfig.truncation_pooling))

    os.makedirs(args.out, exist_ok=True)
    result = pretrain(train, vocab, tcfg, run, codec_cfg=codec_cfg, heldout=heldout,
                      keep_rep_when_truncated=keep_rep, checkpoint_dir=args.out, log=print)
    ckpt_path = os.path.join(args.out, "pretrain.ckpt")
    result.checkpoint.save(ckpt_path)
    vocab.save(os.path.join(args.out, "mol_vocab.txt"))
    log_lines = [f"step {i + 1} loss = {loss!r}" for i, loss in enumerate(result.losses)]
    log_lines.append(f"payload_baseline = {result.payload_baseline!r}")
    log_lines.append(f"heldout_accuracy = {result.heldout_accuracy!r}")
    _write_text(os.path.join(args.out, "pretrain_log.txt"), "\n".join(log_lines) + "\n")
    print(f"saved checkpoint to {ckpt_path}")
    if result.heldout_accuracy is not None:
        print(f"heldout masked-token accuracy {result.heldout_accuracy:.4f} "
              f"(baseline {result.payload_baseline:.4f})")
    return 0


def cmd_finetune(args) -> int:
    sections = _sections(args, "codec", "transformer", "protein", "interaction",
                         "model", "run")
    run = _configured(TrainRunConfig,
                      **{"learning_rate": MODE_PRESETS[args.mode]["learning_rate"],
                         **sections["run"]})
    records = load_affinity_dataset(args.data, mode=args.mode, raw_kd=args.raw_kd)
    split = split_folds(records, seed=run.seed)
    if not 0 <= args.fold < len(split.folds):
        raise UsageError(f"--fold must lie in 0..{len(split.folds) - 1}")
    train_records, dev_records = split.splits()[args.fold]
    if not train_records or not dev_records:
        raise DataError("chosen fold leaves an empty train or dev set")

    warm = Checkpoint.load(args.warm_start) if args.warm_start else None
    if warm is not None:
        codec, mol_vocab = read_meta(warm, "pretrain", "codec", "mol_vocab")
        sections["codec"].setdefault("mol_max_len", codec.mol_max_len)
    else:
        mol_vocab = build_vocab((r.smiles for r in records), MOLECULE)
    prot_vocab = build_vocab((r.fasta for r in records), PROTEIN)

    model_cfg = _configured(ModelConfig.for_mode, args.mode, len(mol_vocab),
                            len(prot_vocab), sections)
    train_enc, dev_enc = (encode_affinity_data(part, mol_vocab, prot_vocab, model_cfg.codec,
                                               model_cfg.keep_rep_when_truncated)
                          for part in (train_records, dev_records))
    result = finetune(train_enc, dev_enc, model_cfg, run, mol_vocab, prot_vocab,
                      warm_start=warm, log=print)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "model.ckpt")
    result.best_checkpoint.save(ckpt_path)
    _write_text(os.path.join(args.out, "finetune_report.txt"), result.report_text())
    print(f"saved best checkpoint (epoch {result.best_epoch}, "
          f"dev mse {result.best_dev_mse:.6f}) to {ckpt_path}")
    return 0


def cmd_evaluate(args) -> int:
    if bool(args.predictions) == bool(args.checkpoint):
        raise UsageError("evaluate needs exactly one of --predictions or "
                         "--checkpoint with --data")
    if args.predictions:
        y, y_hat = load_predictions(args.predictions)
    else:
        if not args.data:
            raise UsageError("--checkpoint evaluation needs --data")
        model = DtiModel.from_checkpoint(Checkpoint.load(args.checkpoint))
        records = load_affinity_dataset(args.data, mode=args.mode, raw_kd=args.raw_kd)
        encoded = encode_affinity_data(records, model.mol_vocab, model.prot_vocab,
                                       model.cfg.codec,
                                       model.cfg.keep_rep_when_truncated)
        y = np.array([r.affinity for r in encoded])
        y_hat = model.predict([r.mol for r in encoded], [r.prot for r in encoded])
    report = evaluate(y, y_hat, args.mode)
    text = report.to_text()
    print(text, end="")
    if args.out:
        _write_text(args.out, text)
    return 0


def cmd_rank(args) -> int:
    if bool(args.target_fasta) == bool(args.target_file):
        raise UsageError("rank needs exactly one of --target-fasta or --target-file")
    if args.target_file:
        lines = read_lines(args.target_file)
        n_records = sum(line.startswith(">") for line in lines)
        if n_records > 1:
            raise DataError(f"{args.target_file}: {n_records} FASTA records; "
                            f"rank scores one target")
        fasta = "".join(line.strip() for line in lines if not line.startswith(">"))
    else:
        fasta = args.target_fasta
    if not fasta:
        raise DataError("empty target protein sequence")
    model = DtiModel.from_checkpoint(Checkpoint.load(args.checkpoint))
    candidates = load_candidates(args.candidates)
    ranked, errors = rank_candidates(candidates, fasta, model)
    if errors:
        print(f"warning: {len(errors)} candidate(s) skipped", file=sys.stderr)
        for compound_id, reason in errors:
            print(f"  {compound_id}: {reason}", file=sys.stderr)
    text = format_ranking(ranked)
    print(text, end="")
    if args.out:
        _write_text(args.out, text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="moldta",
                     description="drug-target binding affinity model toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="overrides train.seed")
        p.add_argument("--deterministic", action="store_true",
                       help="runs are deterministic given --seed; accepted for "
                            "interface compatibility")

    p = sub.add_parser("tokenize", help="print the token stream for one molecule")
    p.add_argument("smiles")
    p.add_argument("--mol-max-len", type=int, default=CodecConfig.mol_max_len)
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("pretrain", help="masked-token pretraining on a molecule corpus")
    common(p)
    p.add_argument("--corpus", required=True, help="newline-delimited molecule strings")
    p.add_argument("--vocab", help="reuse an existing vocabulary file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("finetune", help="train the affinity model on a dataset")
    common(p)
    p.add_argument("--data", required=True, help="tab-separated affinity table")
    p.add_argument("--mode", choices=("kiba", "davis"), default="kiba")
    p.add_argument("--raw-kd", action="store_true",
                   help="davis affinities are raw nanomolar constants")
    p.add_argument("--fold", type=int, default=0, help="which fold is the dev set")
    p.add_argument("--warm-start", help="pretraining checkpoint to initialize from")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_finetune)

    p = sub.add_parser("evaluate", help="compute metrics for predictions")
    p.add_argument("--predictions", help="table with affinity and prediction columns")
    p.add_argument("--checkpoint", help="model checkpoint to run over --data")
    p.add_argument("--data", help="affinity table to predict and score")
    p.add_argument("--mode", choices=("kiba", "davis"), default="kiba")
    p.add_argument("--raw-kd", action="store_true")
    p.add_argument("--out", help="write the report here as well")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("rank", help="rank candidate molecules against one target")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--candidates", required=True,
                   help="tab-separated table with id, name, smiles columns")
    p.add_argument("--target-fasta", help="target protein sequence as a string")
    p.add_argument("--target-file", help="file holding the target protein sequence")
    p.add_argument("--out", help="write the ranking table here as well")
    p.set_defaults(fn=cmd_rank)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
