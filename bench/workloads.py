"""The three workloads: inputs made from the seed, timed passes, output checks.

Every workload drives moldta only through its public functions. Inputs are
generated before timing and every check runs outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
import statistics
import subprocess
import sys

import numpy as np

from tracing import StepClock, perf

SMILES_ALPHABET = "CNOSPFcnos()[]=#+-@H123456"
AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
UNENCODABLE = "Z"  # not in SMILES_ALPHABET, so no molecule vocabulary holds it
_SUCCESSOR = {c: SMILES_ALPHABET[(7 * i + 3) % len(SMILES_ALPHABET)]
              for i, c in enumerate(SMILES_ALPHABET)}


def molecules(rng, count, lo, hi):
    """Markov-chain strings over a SMILES alphabet, lengths uniform in [lo, hi].

    Each character is followed by its fixed successor with probability 0.85,
    so masked characters are predictable from their neighbours.
    """
    out = []
    for length in rng.integers(lo, hi + 1, size=count):
        draws = rng.random(length)
        picks = rng.integers(len(SMILES_ALPHABET), size=length)
        chars = [SMILES_ALPHABET[picks[0]]]
        for j in range(1, length):
            chars.append(_SUCCESSOR[chars[-1]] if draws[j] < 0.85
                         else SMILES_ALPHABET[picks[j]])
        out.append("".join(chars))
    return out


def proteins(rng, count, lo=200, hi=2000):
    """Random amino-acid strings, lengths log-uniform in [lo, hi]."""
    letters = np.array(list(AMINO_ACIDS))
    lengths = np.exp(rng.uniform(math.log(lo), math.log(hi), size=count)).astype(int)
    return ["".join(letters[rng.integers(len(letters), size=n)]) for n in lengths]


MODULES = ("autodiff", "checkpoint", "cli", "codec", "data", "errors", "interaction",
           "metrics", "model", "protein_cnn", "training", "transformer")
_IMPORT_PROBE = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module("moldta." + name)
print(time.perf_counter() - t0)
"""


def fresh_import_s(m) -> float:
    """Seconds to import moldta's modules in a fresh interpreter.

    Each set-up sample pays one, so import time is sampled across the run
    like every other metric. The child inherits the pinned BLAS variables.
    """
    src = os.path.dirname(os.path.dirname(m.codec.__file__))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, src, *MODULES],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def median(values):
    return statistics.median(values) if values else 0.0


class Checks:
    """Output checks; a run is correct when every expectation held."""

    def __init__(self):
        self.count = 0
        self.failures = []

    def expect(self, ok, what: str):
        self.count += 1
        if not ok:
            self.failures.append(what)


class Pass:
    """What one timed pass measured."""

    def __init__(self):
        self.imports = []    # seconds per fresh-interpreter import, one per set-up
        self.setup = []      # seconds per set-up after import
        self.units = []      # seconds per timed unit: training step or rank request
        self.items = 0       # molecules, pairs or scored candidates
        self.item_wall = 0.0
        self.evals = []      # seconds per evaluation pass
        self.attempted = 0
        self.failed = 0
        self.expected_skips = 0
        self.peak_rss_mb = 0.0
        self.norm = {}       # unit kind -> divisor of its per-layer totals

    def end_to_end(self) -> dict:
        return {
            "setup_s": median([i + s for i, s in zip(self.imports, self.setup)]),
            "items_per_s": self.items / self.item_wall if self.item_wall else 0.0,
            "unit_ms_p50": 1e3 * median(self.units),
            "evaluate_s": median(self.evals),
            "peak_rss_mb": self.peak_rss_mb,
        }


def _keep_going(spent, last, budget):
    """Start another unit while it is expected to end within half a unit of the budget."""
    return spent + last / 2 <= budget


class TrainingWorkload:
    """Repeated calls into one training entry point, each from a fresh set-up.

    A call is set-up, its steps, and a tail (evaluation and final snapshot),
    timed by StepClock. Calls repeat until the budget is spent, so set-up is
    sampled several times per run.
    """

    ITEMS_PER_STEP = 0
    TAIL_IN_THROUGHPUT = False   # whether the tail counts in items_per_s wall time

    def call(self, index):
        raise NotImplementedError

    def check_call(self, result, index, checks):
        raise NotImplementedError

    def check(self, checks):
        return {}

    def warm_up(self):
        """One untimed call, so the timed pass does not pay first-call costs."""
        try:
            self.call(-1)
        except (self.m.errors.NumericalError, self.m.errors.DataError):
            pass   # the timed pass meets the same error and counts it

    def run(self, seconds, tracer, patches, checks) -> Pass:
        errors = self.m.errors
        clock = StepClock(tracer)
        clock.install(patches, self.m.training.AdamOptimizer)
        p = Pass()
        spent = 0.0
        index = 0
        while True:
            import_s = fresh_import_s(self.m)
            t0 = perf()
            clock.begin_call()
            try:
                result = self.call(index)
                setup, steps, tail = clock.end_call()
            except (errors.NumericalError, errors.DataError) as exc:
                p.attempted += clock.steps_done() + 1
                p.failed += 1
                checks.expect(False, f"call {index} raised {exc!r}")
                result = None
            wall = perf() - t0
            spent += wall
            if result is not None:
                p.imports.append(import_s)
                p.setup.append(setup)
                p.units += steps
                p.items += self.ITEMS_PER_STEP * len(steps)
                p.item_wall += sum(steps) + (tail if self.TAIL_IN_THROUGHPUT else 0.0)
                p.evals.append(tail)
                p.attempted += len(steps)
                self.check_call(result, index, checks)
            index += 1
            if not _keep_going(spent, wall, seconds):
                break
        # a call's set-up and tail are spread over the steps it ran
        p.norm = {"step": len(p.units), "call": len(p.units)}
        return p


# ----------------------------------------------------------------------
# pretrain-tiny
# ----------------------------------------------------------------------

class PretrainTiny(TrainingWorkload):
    """Masked-token pretraining at the acceptance-suite encoder size."""

    BATCH = ITEMS_PER_STEP = 128
    MAX_LEN = 36
    STEPS_PER_CALL = 50
    CORPUS = 4096
    HELDOUT = 1024
    LENGTHS = (18, 54)   # decorated length fits the cap up to 33 characters

    def __init__(self, m, seed, workdir):
        self.m = m
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        self.corpus = molecules(rng, self.CORPUS, *self.LENGTHS)
        self.heldout = molecules(rng, self.HELDOUT, *self.LENGTHS)

    def call(self, index):
        m = self.m
        vocab = m.codec.build_vocab(self.corpus, m.codec.MOLECULE)
        cfg = m.transformer.TransformerConfig(
            vocab_size=len(vocab), num_layers=1, num_heads=2, hidden=16,
            intermediate=32, max_len=self.MAX_LEN)
        run = m.training.TrainRunConfig(
            seed=self.seed * 1000 + index, batch_size=self.BATCH,
            steps=self.STEPS_PER_CALL, learning_rate=2e-3)
        return m.training.pretrain(self.corpus, vocab, cfg, run,
                                   codec_cfg=m.codec.CodecConfig(mol_max_len=self.MAX_LEN),
                                   heldout=self.heldout)

    def check_call(self, result, index, checks):
        losses = np.asarray(result.losses)
        checks.expect(losses.size == self.STEPS_PER_CALL, f"call {index}: {losses.size} losses")
        checks.expect(np.isfinite(losses).all(), f"call {index}: non-finite loss")
        checks.expect(losses[:5].mean() > losses[-5:].mean(),
                      f"call {index}: loss did not fall ({losses[:5].mean()} -> "
                      f"{losses[-5:].mean()})")
        acc = result.heldout_accuracy
        checks.expect(acc is not None and 0.0 <= acc <= 1.0,
                      f"call {index}: held-out accuracy {acc!r}")

    def named(self, p: Pass, e2e: dict) -> dict:
        steps_ms = [1e3 * s for s in p.units]
        p90 = statistics.quantiles(steps_ms, n=10)[-1] if len(steps_ms) >= 2 else 0.0
        return {
            "train_examples_per_s": {"value": e2e["items_per_s"], "unit": "examples/s"},
            "train_step_ms_p50": {"value": e2e["unit_ms_p50"], "unit": "ms",
                                  "steps": len(steps_ms)},
            "train_step_ms_p90": {"value": p90, "unit": "ms", "steps": len(steps_ms),
                                  "steps_beyond": sum(s > p90 for s in steps_ms)},
            "heldout_eval_s": {"value": e2e["evaluate_s"], "unit": "s",
                               "calls": len(p.evals)},
        }


# ----------------------------------------------------------------------
# finetune-kiba
# ----------------------------------------------------------------------

class FinetuneKiba(TrainingWorkload):
    """Fine-tuning of the published default kiba model, warm-started."""

    # Batch 8, not the published 32: a batch-32 step peaks at 5.7 GB resident
    # (batch 16: 2.6 GB, batch 8: 1.4 GB), too much for a small shared machine.
    BATCH = ITEMS_PER_STEP = 8
    # Train and dev sets in the 4:1 ratio of DeepDTA's KIBA protocol, where
    # five folds are cross-validated as four for training and one for dev.
    TRAIN = 32                    # four steps per epoch
    DEV = 8
    TAIL_IN_THROUGHPUT = True     # the per-epoch dev pass
    PROTEIN_POOL = 8
    MOL_LENGTHS = (20, 160)

    def __init__(self, m, seed, workdir):
        self.m = m
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        mols = molecules(rng, self.TRAIN + self.DEV, *self.MOL_LENGTHS)
        pool = proteins(rng, self.PROTEIN_POOL)
        records = []
        for smiles in mols:
            fasta = pool[rng.integers(len(pool))]
            affinity = (11.0 + 2.0 * smiles.count("c") / len(smiles)
                        + 8.0 * fasta.count("A") / len(fasta) + rng.normal(0.0, 0.3))
            records.append(m.data.AffinityRecord(smiles=smiles, fasta=fasta,
                                                 affinity=float(affinity)))
        self.train, self.dev = records[:self.TRAIN], records[self.TRAIN:]
        self.fastas = [r.fasta for r in records]
        # the warm start: one pretraining step at the default encoder size
        vocab = m.codec.build_vocab(mols, m.codec.MOLECULE)
        pre = m.training.pretrain(
            mols, vocab, m.transformer.TransformerConfig(vocab_size=len(vocab)),
            m.training.TrainRunConfig(seed=seed, batch_size=8, steps=1),
            codec_cfg=m.codec.CodecConfig())
        self.warm_path = os.path.join(workdir, "pretrain.ckpt")
        pre.checkpoint.save(self.warm_path)

    def call(self, index):
        m = self.m
        warm = m.checkpoint.Checkpoint.load(self.warm_path)
        mol_vocab = m.codec.Vocab(kind=m.codec.MOLECULE, tokens=tuple(warm.meta["mol_vocab"]))
        prot_vocab = m.codec.build_vocab(self.fastas, m.codec.PROTEIN)
        cfg = m.model.ModelConfig.for_mode("kiba", len(mol_vocab), len(prot_vocab))
        train, dev = (m.training.encode_affinity_data(records, mol_vocab, prot_vocab, cfg.codec,
                                                      cfg.keep_rep_when_truncated)
                      for records in (self.train, self.dev))
        run = m.training.TrainRunConfig(
            seed=self.seed * 1000 + index, batch_size=self.BATCH, epochs=1,
            learning_rate=m.model.MODE_PRESETS["kiba"]["learning_rate"])
        return m.training.finetune(train, dev, cfg, run, mol_vocab, prot_vocab,
                                   warm_start=warm)

    def check_call(self, result, index, checks):
        m = self.m
        for entry in result.history:
            checks.expect(math.isfinite(entry["train_mse"]) and math.isfinite(entry["dev_mse"]),
                          f"call {index}: non-finite mse in {entry}")
        ckpt = result.best_checkpoint
        blob = ckpt.to_bytes()
        back = m.checkpoint.Checkpoint.from_bytes(blob)
        checks.expect(back.to_bytes() == blob, f"call {index}: checkpoint bytes round trip")
        rebuilt = m.model.DtiModel.from_checkpoint(back).to_checkpoint(
            {"epoch": ckpt.meta["epoch"], "dev_mse": ckpt.meta["dev_mse"]})
        checks.expect(rebuilt.to_bytes() == blob, f"call {index}: model round trip")

    def named(self, p: Pass, e2e: dict) -> dict:
        return {
            "train_examples_per_s": {"value": e2e["items_per_s"], "unit": "examples/s"},
            "train_step_ms_p50": {"value": e2e["unit_ms_p50"], "unit": "ms",
                                  "steps": len(p.units)},
            "dev_pass_s": {"value": e2e["evaluate_s"], "unit": "s", "epochs": len(p.evals)},
        }


# ----------------------------------------------------------------------
# screen-kiba
# ----------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _skipped_ids(stderr: str) -> set:
    """Ids from `rank`'s skip warning, one `  <id>: <reason>` line each."""
    return {line.strip().split(":", 1)[0] for line in stderr.splitlines()
            if line.startswith("  ")}


class ScreenKiba:
    """`moldta rank` requests and `moldta evaluate` at KIBA test size.

    The client repeats rounds of one rank cycle then one evaluate request,
    so both medians sample the whole run rather than one end of it.
    """

    # One cycle of rank requests. An odd count of sizes keeps the median
    # request inside the middle size's cluster, not in the gap between two.
    LIBRARY_SIZES = (8, 16, 24)
    UNENCODABLE_EVERY = 8             # one unencodable candidate per 8
    CYCLES = 8                        # cycles generated; reused if more are run
    TARGETS = 4
    MOL_LENGTHS = (20, 160)
    EVAL_ROWS = 19709                 # the held-out sixth of KIBA's 118,254 pairs

    def __init__(self, m, seed, workdir):
        self.m = m
        rng = np.random.default_rng([seed, 3])
        mol_vocab = m.codec.build_vocab([SMILES_ALPHABET], m.codec.MOLECULE)
        prot_vocab = m.codec.build_vocab([AMINO_ACIDS], m.codec.PROTEIN)
        cfg = m.model.ModelConfig.for_mode("kiba", len(mol_vocab), len(prot_vocab))
        model = m.model.DtiModel(cfg, mol_vocab, prot_vocab, np.random.default_rng([seed, 4]))
        self.ckpt_path = os.path.join(workdir, "model.ckpt")
        model.to_checkpoint({"epoch": 1}).save(self.ckpt_path)
        self.targets = proteins(rng, self.TARGETS)

        self.cycles = []
        for c in range(self.CYCLES):
            cycle = []
            for size in rng.permutation(self.LIBRARY_SIZES):
                req = len(self.cycles) * len(self.LIBRARY_SIZES) + len(cycle)
                cycle.append(self._library(rng, workdir, req, int(size)))
            self.cycles.append(cycle)

        y = np.round(rng.normal(11.8, 0.9, self.EVAL_ROWS), 1)
        y_hat = np.round(y + rng.normal(0.0, 0.6, self.EVAL_ROWS), 2)
        self.eval_path = os.path.join(workdir, "predictions.tsv")
        with open(self.eval_path, "w", encoding="utf-8") as fh:
            fh.write("affinity\tprediction\n")
            fh.writelines(f"{a!r}\t{b!r}\n" for a, b in zip(y.tolist(), y_hat.tolist()))
        self.y, self.y_hat = y, y_hat

    def _library(self, rng, workdir, req, size):
        smiles = molecules(rng, size, *self.MOL_LENGTHS)
        bad = set(rng.choice(size, size // self.UNENCODABLE_EVERY, replace=False).tolist())
        ids = [f"c{req:03d}-{i:03d}" for i in range(size)]
        for i in bad:
            pos = int(rng.integers(len(smiles[i]) + 1))
            smiles[i] = smiles[i][:pos] + UNENCODABLE + smiles[i][pos:]
        path = os.path.join(workdir, f"library{req:03d}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tsmiles\n")
            fh.writelines(f"{cid}\tmol{i}\t{s}\n" for i, (cid, s) in enumerate(zip(ids, smiles)))
        return {"path": path, "target": int(rng.integers(self.TARGETS)),
                "smiles": dict(zip(ids, smiles)),
                "injected": {ids[i] for i in bad}, "sample": ids[int(rng.integers(size))]}

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = perf()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.m.cli.main(argv)
            except (self.m.errors.NumericalError, self.m.errors.DataError) as exc:
                code = repr(exc)
        return perf() - t0, code, out.getvalue(), err.getvalue()

    def _rank(self, req):
        return self._cli(["rank", "--checkpoint", self.ckpt_path, "--candidates", req["path"],
                          "--target-fasta", self.targets[req["target"]]])

    def warm_up(self):
        """One untimed rank request, so the timed pass does not pay first-call costs."""
        self._rank(self.cycles[0][0])

    def run(self, seconds, tracer, patches, checks) -> Pass:
        m = self.m
        p = Pass()
        self.requests, self.reports = [], []
        spent = 0.0
        while True:
            # one set-up sample per round: import, checkpoint load, model build
            p.imports.append(fresh_import_s(m))
            if tracer is not None:
                tracer.begin_unit("setup")
            t0 = perf()
            m.model.DtiModel.from_checkpoint(m.checkpoint.Checkpoint.load(self.ckpt_path))
            p.setup.append(perf() - t0)

            round_wall = 0.0
            for req in self.cycles[len(self.reports) % self.CYCLES]:
                if tracer is not None:
                    tracer.begin_unit("rank")
                wall, code, out, err = self._rank(req)
                if tracer is not None:
                    tracer.begin_unit("idle")
                round_wall += wall
                self.requests.append((req, code, out, err))
                n = len(req["smiles"])
                p.attempted += n
                if code == 0:
                    skipped = _skipped_ids(err)
                    p.units.append(wall)
                    p.items += n - len(skipped)
                    p.item_wall += wall
                    p.expected_skips += len(skipped & req["injected"])
                    p.failed += len(skipped - req["injected"])
                else:
                    p.failed += n

            if tracer is not None:
                tracer.begin_unit("evaluate")
            wall, code, out, err = self._cli(
                ["evaluate", "--predictions", self.eval_path, "--mode", "kiba"])
            if tracer is not None:
                tracer.begin_unit("idle")
            round_wall += wall
            self.reports.append((code, out, err))
            p.attempted += 1
            if code == 0:
                p.evals.append(wall)
            else:
                p.failed += 1

            spent += round_wall
            if not _keep_going(spent, round_wall, seconds):
                break
        p.norm = {"rank": len(self.requests), "evaluate": len(self.reports)}
        return p

    def check(self, checks) -> dict:
        """Check the last pass's outputs; returns notes for the report."""
        m = self.m
        model = m.model.DtiModel.from_checkpoint(m.checkpoint.Checkpoint.load(self.ckpt_path))
        codec_cfg, keep_rep = model.cfg.codec, model.cfg.keep_rep_when_truncated
        for req, code, out, err in self.requests:
            tag = os.path.basename(req["path"])
            checks.expect(code == 0, f"{tag}: rank exit code {code!r}: {err.strip()[-200:]}")
            if code != 0:
                continue
            lines = out.splitlines() or [""]
            checks.expect(lines[0] == "rank\tcompound_id\tcompound_name\tscore",
                          f"{tag}: header {lines[0]!r}")
            rows = [line.split("\t") for line in lines[1:]]
            keys = [(-float(score), cid) for _, cid, _, score in rows]
            checks.expect(keys == sorted(keys), f"{tag}: rows not sorted by (-score, id)")
            checks.expect([int(r[0]) for r in rows] == list(range(1, len(rows) + 1)),
                          f"{tag}: ranks not 1..n")
            usable = set(req["smiles"]) - req["injected"]
            checks.expect({r[1] for r in rows} == usable, f"{tag}: ranked ids differ")
            skipped = _skipped_ids(err)
            checks.expect(skipped == req["injected"],
                          f"{tag}: skipped {sorted(skipped)} != injected {sorted(req['injected'])}")
            sample = req["sample"] if req["sample"] in usable else min(usable)
            mol = m.codec.encode_molecule(req["smiles"][sample], model.mol_vocab, codec_cfg,
                                          keep_rep)
            prot = m.codec.encode_protein(self.targets[req["target"]], model.prot_vocab,
                                          codec_cfg)
            direct = float(model.predict([mol], [prot], batch_size=1)[0])
            scores = {r[1]: float(r[3]) for r in rows}
            checks.expect(scores[sample] == direct,
                          f"{tag}: score of {sample} {scores[sample]!r} != predict {direct!r}")

        expected = oracle_metrics(self.y, self.y_hat, m.metrics.KIBA_THRESHOLD)
        not_plain = set()
        for code, out, err in self.reports:
            checks.expect(code == 0, f"evaluate exit code {code!r}: {err.strip()[-200:]}")
            if code != 0:
                continue
            fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
            for name in ("n", "threshold", "mse", "ci", "rm2", "aupr"):
                text = fields.get(name, "")
                found = _NUMBER.findall(text)
                if not found or text.startswith("error"):
                    checks.expect(False, f"evaluate: {name} missing: {text!r}")
                    continue
                try:
                    float(text)
                except ValueError:
                    not_plain.add(name)
                got, want = float(found[-1]), expected[name]
                tol = 1e-9 * abs(want) if name == "rm2" else 1e-12 * max(1.0, abs(want))
                checks.expect(abs(got - want) <= tol, f"evaluate: {name} {got!r} != oracle {want!r}")
        return {"report_fields_not_plain_float": sorted(not_plain)}

    def named(self, p: Pass, e2e: dict) -> dict:
        return {
            "rank_candidates_per_s": {"value": e2e["items_per_s"], "unit": "candidates/s"},
            "rank_request_s_p50": {"value": e2e["unit_ms_p50"] / 1e3, "unit": "s",
                                   "requests": len(p.units)},
            "evaluate_s": {"value": e2e["evaluate_s"], "unit": "s", "requests": len(p.evals),
                           "rows": self.EVAL_ROWS},
        }


def oracle_metrics(y, y_hat, threshold):
    """The four metrics computed independently of moldta.metrics.

    The concordance index is an exact O(n^2) pair count over row chunks:
    each ordered pair with y_i > y_j scores 2 when y_hat_i > y_hat_j and 1
    on a prediction tie, over twice the number of such pairs.
    """
    n = y.size
    twice_credit = pairs = 0
    for start in range(0, n, 256):
        yi, hi = y[start:start + 256, None], y_hat[start:start + 256, None]
        ordered = yi > y[None, :]
        diff = hi - y_hat[None, :]
        pairs += int(np.count_nonzero(ordered))
        twice_credit += (2 * int(np.count_nonzero(ordered & (diff > 0)))
                         + int(np.count_nonzero(ordered & (diff == 0))))
    r = np.corrcoef(y, y_hat)[0, 1]
    k = np.dot(y, y_hat) / np.dot(y_hat, y_hat)
    r0 = 1.0 - np.sum((y - k * y_hat) ** 2) / np.sum((y - y.mean()) ** 2)
    r2 = r * r
    labels = (y >= threshold).astype(np.int64)
    # average precision with tied scores swept as one threshold
    scores, inverse = np.unique(-y_hat, return_inverse=True)
    tp = np.cumsum(np.bincount(inverse, weights=labels))
    seen = np.cumsum(np.bincount(inverse))
    recall = tp / labels.sum()
    ap = float(np.sum(np.diff(np.concatenate([[0.0], recall])) * tp / seen))
    return {"n": float(n), "threshold": float(threshold),
            "mse": float(np.mean(np.square(y_hat - y))),
            "ci": twice_credit / (2 * pairs),
            "rm2": float(r2 * (1.0 - math.sqrt(max(r2 - r0, 0.0)))),
            "aupr": ap}


WORKLOADS = {"pretrain-tiny": PretrainTiny, "finetune-kiba": FinetuneKiba,
             "screen-kiba": ScreenKiba}
