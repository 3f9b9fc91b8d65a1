"""Digest every output of a fixed `moldta` CLI matrix, to compare two trees.

    python3 tools/cli_digests.py SRC_DIR OUT_DIR

Runs the CLI of SRC_DIR/src (PYTHONPATH=SRC_DIR/src, one subprocess per
command) in a temporary directory, on the tiny config and data of this
repo's tests/test_cli.py (TINY_CONFIG, SMIS, PROTS). At seeds 1 and 3 it
runs pretrain, warm-started kiba and cold davis finetune, evaluate
--checkpoint, rank with one skipped candidate (by --target-fasta and by a
one-record --target-file) and pretrain reusing the saved vocabulary; once
it runs tokenize and two inputs that are data errors (a vocabulary of the
wrong kind, a two-record target file). At seed 1 it also runs pretrain
(with periodic snapshots), warm-started kiba finetune and rank on a
molecule cap of 6 tokens, which truncates most molecules: once with
`rep` and once with `mean` truncation pooling; then a finetune under the
`mean` config warm-started from the `rep` pretraining checkpoint, whose
pooling does not match (a data error). Then it runs nine malformed
inputs, each a data error naming its line (finetune on a table with a bad
affinity, one with a bad fold id, a davis table with a zero Kd under
--raw-kd, one with a ragged row, and on the tiny config the kiba table
with an empty smiles cell and with an empty fasta cell; evaluate on
predictions holding inf; rank on candidates with an empty id cell and
with an empty smiles cell), rank against a lower-case target protein (a
data error naming the target), and rank given --seed, an option only the
training commands take (a usage error). Then it runs four more usage
errors: pretrain and finetune whose --out names an existing file, and
evaluate --predictions given --data or --raw-kd; then three usage errors
raised before any input is read (finetune --fold 9 on a table with no
rows, finetune and evaluate --checkpoint given --raw-kd in kiba mode), rank
given an empty --target-fasta (a data error), and evaluate --checkpoint of
the seed-1 kiba model on a table that pairs each molecule with both
proteins, so every molecule repeats within the predict call. Last, it
runs rank on three copies of the seed-1 kiba checkpoint whose metadata holds a mistyped
value: a float `model.transformer.num_layers` (1.5), an integer
`mol_vocab` (5) or an integer token in `mol_vocab` (7 at id 5); the
tensors are left as they are. Every command runs with relative paths, so its output does not
depend on where the directory is.

It prints one line per command (name, exit code, sha256 of stdout and of
stderr), then one line per file left in the directory (sha256, path), and
writes the same listing to OUT_DIR/digests.txt. The directory itself is
copied to OUT_DIR, and each command's stdout and stderr go to OUT_DIR/logs/.
Running it on a `git archive` export of one commit and a checkout of
another and diffing the two listings shows every CLI difference between
them.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 3)
POOLINGS = ("rep", "mean")
# keys each truncation config sets; they replace TINY_CONFIG's lines for the
# same keys, so every key stays set once
TRUNCATING = "model.mol_max_len = 6\ntrain.checkpoint_interval = 5\n"
# (name, metadata key path, the value put there) for the mistyped checkpoints
MISTYPED = (("num-layers-float", ("model", "transformer", "num_layers"), 1.5),
            ("mol-vocab-int", ("mol_vocab",), 5),
            ("mol-vocab-token-int", ("mol_vocab", 5), 7))
# malformed input files; {row} stands for a well-formed smiles and fasta pair
MALFORMED = {
    "bad_affinity.tsv": "smiles\tfasta\taffinity\n{row}\tx1\n",
    "bad_fold.tsv": "smiles\tfasta\taffinity\tfold\n{row}\t5.0\t1\n{row}\t5.0\ta\n",
    "zero_kd.tsv": "smiles\tfasta\taffinity\n{row}\t10\n\n{row}\t0\n",
    "ragged.tsv": "smiles\tfasta\taffinity\n{row}\t5.0\n{row}\n",
    "inf_predictions.tsv": "affinity\tprediction\n1.0\t1.5\n2.0\tinf\n",
    "empty_id_candidates.tsv": "id\tname\tsmiles\n1\tA\tCCO\n\tB\tCCN\n",
    "empty_smiles_candidates.tsv": "id\tname\tsmiles\n1\tA\t\n",
}


def cli_test_inputs() -> dict:
    """TINY_CONFIG, SMIS and PROTS from tests/test_cli.py, read without
    importing it (that would import moldta from this process's path)."""
    tree = ast.parse((ROOT / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    wanted = {"TINY_CONFIG", "SMIS", "PROTS"}
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in wanted:
                found[name] = ast.literal_eval(node.value)
    missing = wanted - found.keys()
    if missing:
        raise SystemExit(f"tests/test_cli.py does not define {sorted(missing)}")
    return found


def config_with(config: str, lines: str) -> str:
    """config with every key that `lines` sets moved to the end with its new value."""
    keys = {line.split("=", 1)[0].strip() for line in lines.splitlines()}
    kept = [line for line in config.splitlines()
            if line.split("=", 1)[0].strip() not in keys]
    return "\n".join(kept) + "\n" + lines


def write_inputs(work: Path, inputs: dict):
    smis, prots = inputs["SMIS"], inputs["PROTS"]
    (work / "config.txt").write_text(inputs["TINY_CONFIG"])
    for pooling in POOLINGS:
        (work / f"truncate_{pooling}.txt").write_text(config_with(
            inputs["TINY_CONFIG"], f"{TRUNCATING}model.truncation_pooling = {pooling}\n"))
    (work / "corpus.txt").write_text("\n".join(smis) + "\n")
    kiba = ["smiles\tfasta\taffinity"]
    davis = ["smiles\tfasta\taffinity"]
    for i, s in enumerate(smis):
        kiba.append(f"{s}\t{prots[i % 2]}\t{4.0 + 0.3 * i}")
        davis.append(f"{s}\t{prots[(i + 1) % 2]}\t{10.0 * (i + 1) ** 2}")  # raw Kd, nM
    (work / "kiba.tsv").write_text("\n".join(kiba) + "\n")
    # each molecule a second time, with the other protein
    repeats = kiba + [f"{s}\t{prots[(i + 1) % 2]}\t{4.1 + 0.3 * i}" for i, s in enumerate(smis)]
    (work / "kiba_repeats.tsv").write_text("\n".join(repeats) + "\n")
    (work / "no_rows.tsv").write_text("smiles\tfasta\taffinity\n")
    (work / "davis.tsv").write_text("\n".join(davis) + "\n")
    # CCX holds a character outside every vocabulary, so rank skips it
    (work / "candidates.tsv").write_text(
        "id\tname\tsmiles\n3\tGamma\tCCO\n1\tAlpha\tCNC\n4\tDelta\tCCX\n2\tBeta\tOCCO\n")
    (work / "target.fasta").write_text(f">one\n{prots[0][:14]}\n{prots[0][14:]}\n")
    (work / "two.fasta").write_text(f">first\n{prots[0]}\n>second\n{prots[1]}\n")
    (work / "protein_vocab.txt").write_text("C\nN\n")
    (work / "predictions.tsv").write_text("affinity\tprediction\n1.0\t1.5\n2.0\t2.5\n3.0\t2.0\n")
    (work / "outfile").write_text("not a directory\n")  # where --out wants a directory
    row = f"{smis[0]}\t{prots[0]}"
    for name, text in MALFORMED.items():
        (work / name).write_text(text.format(row=row))
    # the kiba table with the first data row's smiles or fasta cell emptied
    for name, column in (("empty_smiles.tsv", 0), ("empty_fasta.tsv", 1)):
        rows = [line.split("\t") for line in kiba]
        rows[1][column] = ""
        (work / name).write_text("\n".join("\t".join(r) for r in rows) + "\n")


def matrix(prots) -> list:
    """(name, argv) pairs in run order; later commands read earlier outputs."""
    runs = [("tokenize", ["tokenize", "CN=C=O"]),
            ("tokenize-truncated", ["tokenize", "CC(=O)OC1=CC=CC=C1", "--mol-max-len", "8"]),
            ("pretrain-protein-vocab", ["pretrain", "--corpus", "corpus.txt", "--vocab",
                                        "protein_vocab.txt", "--out", "bad_vocab",
                                        "--config", "config.txt"])]
    for seed in SEEDS:
        d = f"seed{seed}"
        common = ["--config", "config.txt", "--seed", str(seed)]
        rank = ["rank", "--checkpoint", f"{d}/kiba/model.ckpt", "--candidates", "candidates.tsv"]
        runs += [
            (f"{d}-pretrain", ["pretrain", "--corpus", "corpus.txt", "--out", f"{d}/pre",
                               *common]),
            (f"{d}-pretrain-reuse-vocab", ["pretrain", "--corpus", "corpus.txt", "--vocab",
                                           f"{d}/pre/mol_vocab.txt", "--out", f"{d}/pre2",
                                           *common]),
            (f"{d}-finetune-kiba-warm", ["finetune", "--data", "kiba.tsv", "--mode", "kiba",
                                         "--warm-start", f"{d}/pre/pretrain.ckpt",
                                         "--out", f"{d}/kiba", *common]),
            (f"{d}-finetune-davis-cold", ["finetune", "--data", "davis.tsv", "--mode", "davis",
                                          "--raw-kd", "--out", f"{d}/davis", *common]),
            (f"{d}-evaluate-checkpoint", ["evaluate", "--checkpoint", f"{d}/kiba/model.ckpt",
                                          "--data", "kiba.tsv", "--mode", "kiba",
                                          "--out", f"{d}/evaluate.txt"]),
            (f"{d}-rank-fasta", [*rank, "--target-fasta", prots[0],
                                 "--out", f"{d}/ranking.tsv"]),
            (f"{d}-rank-target-file", [*rank, "--target-file", "target.fasta",
                                       "--out", f"{d}/ranking_file.tsv"]),
            (f"{d}-rank-two-records", [*rank, "--target-file", "two.fasta"]),
        ]
    for pooling in POOLINGS:
        d = f"truncate-{pooling}"
        common = ["--config", f"truncate_{pooling}.txt", "--seed", str(SEEDS[0])]
        runs += [
            (f"{d}-pretrain", ["pretrain", "--corpus", "corpus.txt", "--out", f"{d}/pre",
                               *common]),
            (f"{d}-finetune-kiba-warm", ["finetune", "--data", "kiba.tsv", "--mode", "kiba",
                                         "--warm-start", f"{d}/pre/pretrain.ckpt",
                                         "--out", f"{d}/kiba", *common]),
            (f"{d}-rank-fasta", ["rank", "--checkpoint", f"{d}/kiba/model.ckpt",
                                 "--candidates", "candidates.tsv", "--target-fasta", prots[0],
                                 "--out", f"{d}/ranking.tsv"]),
        ]
    runs.append(("truncate-mismatch-finetune",
                 ["finetune", "--data", "kiba.tsv", "--mode", "kiba", "--warm-start",
                  "truncate-rep/pre/pretrain.ckpt", "--out", "truncate-mismatch",
                  "--config", "truncate_mean.txt", "--seed", str(SEEDS[0])]))
    malformed = ["finetune", "--out", "malformed", "--data"]
    runs += [
        ("malformed-bad-affinity", [*malformed, "bad_affinity.tsv"]),
        ("malformed-bad-fold-id", [*malformed, "bad_fold.tsv"]),
        ("malformed-raw-kd-zero", [*malformed, "zero_kd.tsv", "--mode", "davis", "--raw-kd"]),
        ("malformed-ragged-row", [*malformed, "ragged.tsv"]),
        ("malformed-empty-smiles", [*malformed, "empty_smiles.tsv", "--config", "config.txt"]),
        ("malformed-empty-fasta", [*malformed, "empty_fasta.tsv", "--config", "config.txt"]),
        ("malformed-inf-prediction", ["evaluate", "--predictions", "inf_predictions.tsv"]),
    ]
    rank = ["rank", "--checkpoint", f"seed{SEEDS[0]}/kiba/model.ckpt", "--candidates"]
    runs += [
        ("malformed-empty-candidate-id", [*rank, "empty_id_candidates.tsv",
                                          "--target-fasta", prots[0]]),
        ("malformed-empty-candidate-smiles", [*rank, "empty_smiles_candidates.tsv",
                                              "--target-fasta", prots[0]]),
        ("rank-lowercase-target", [*rank, "candidates.tsv", "--target-fasta", prots[0].lower()]),
        ("rank-seed-option", [*rank, "candidates.tsv", "--target-fasta", prots[0],
                              "--seed", str(SEEDS[0])]),
        ("pretrain-out-is-a-file", ["pretrain", "--corpus", "corpus.txt", "--out", "outfile",
                                    "--config", "config.txt"]),
        ("finetune-out-is-a-file", ["finetune", "--data", "kiba.tsv", "--out", "outfile",
                                    "--config", "config.txt"]),
        ("evaluate-predictions-with-data", ["evaluate", "--predictions", "predictions.tsv",
                                            "--data", "kiba.tsv"]),
        ("evaluate-predictions-with-raw-kd", ["evaluate", "--predictions", "predictions.tsv",
                                              "--raw-kd", "--mode", "davis"]),
        ("finetune-fold-9-no-rows", ["finetune", "--data", "no_rows.tsv", "--fold", "9",
                                     "--out", "fold9"]),
        ("finetune-raw-kd-kiba", ["finetune", "--data", "kiba.tsv", "--raw-kd", "--mode", "kiba",
                                  "--out", "raw_kd_kiba"]),
        ("evaluate-checkpoint-raw-kd-kiba", ["evaluate", "--checkpoint",
                                             f"seed{SEEDS[0]}/kiba/model.ckpt", "--data",
                                             "kiba.tsv", "--raw-kd", "--mode", "kiba"]),
        ("rank-empty-target-fasta", [*rank, "candidates.tsv", "--target-fasta", ""]),
        ("evaluate-checkpoint-repeated-molecules",
         ["evaluate", "--checkpoint", f"seed{SEEDS[0]}/kiba/model.ckpt", "--data",
          "kiba_repeats.tsv", "--mode", "kiba", "--out", "evaluate_repeats.txt"]),
    ]
    return runs


def with_meta_value(blob: bytes, path: tuple, value) -> bytes:
    """A checkpoint file with one metadata value replaced, read and written in
    the layout of src/moldta/checkpoint.py: 8-byte magic, little-endian
    metadata length, sorted-key JSON metadata, then the tensor records."""
    meta_len = int.from_bytes(blob[8:16], "little")
    meta = json.loads(blob[16:16 + meta_len])
    node = meta
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    new = json.dumps(meta, sort_keys=True).encode("utf-8")
    return blob[:8] + len(new).to_bytes(8, "little") + new + blob[16 + meta_len:]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 1
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    if not (src / "src" / "moldta").is_dir():
        print(f"{src} holds no src/moldta", file=sys.stderr)
        return 1
    inputs = cli_test_inputs()
    env = {**os.environ, "PYTHONPATH": str(src / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    logs = out / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(name, args):
            proc = subprocess.run([sys.executable, "-m", "moldta.cli", *args], cwd=work,
                                  env=env, capture_output=True)
            (logs / f"{name}.stdout").write_bytes(proc.stdout)
            (logs / f"{name}.stderr").write_bytes(proc.stderr)
            lines.append(f"{name} exit={proc.returncode} stdout={sha256(proc.stdout)} "
                         f"stderr={sha256(proc.stderr)}")

        write_inputs(work, inputs)
        for name, args in matrix(inputs["PROTS"]):
            run(name, args)
        trained = (work / f"seed{SEEDS[0]}" / "kiba" / "model.ckpt").read_bytes()
        (work / "mistyped").mkdir()
        for name, path, value in MISTYPED:
            ckpt = f"mistyped/{name}.ckpt"
            (work / ckpt).write_bytes(with_meta_value(trained, path, value))
            run(f"rank-mistyped-{name}", ["rank", "--checkpoint", ckpt, "--candidates",
                                          "candidates.tsv", "--target-fasta", inputs["PROTS"][0]])
        for path in sorted(p for p in work.rglob("*") if p.is_file()):
            lines.append(f"{sha256(path.read_bytes())}  {path.relative_to(work).as_posix()}")
        shutil.copytree(work, out, dirs_exist_ok=True)
    listing = "\n".join(lines) + "\n"
    (out / "digests.txt").write_text(listing)
    print(listing, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
