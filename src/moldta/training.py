"""Masked-token example generation, pretraining and fine-tuning loops,
the Adam optimizer, and the affinity-score log transform.

All randomness in a run derives from one 64-bit seed; runs are
deterministic given identical seed, config and inputs.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import transformer as mt
from .autodiff import Tensor
from .checkpoint import Checkpoint
from .codec import (MASK, CodecConfig, EncodedSequence, Vocab, encode_molecule,
                    encode_protein, stack_sequences)
from .errors import NumericalError
from .interaction import mse_loss
from .metrics import mse
from .model import DtiModel, ModelConfig
from .transformer import TransformerConfig, TransformerWeights

MASK_SELECT_RATE = 0.15
MASK_BRANCH_RATE = 0.8      # of selected: replaced by [MASK]
RANDOM_BRANCH_RATE = 0.1    # of selected: replaced by a random payload token


@dataclass
class MaskedExample:
    """Corrupted input ids plus (original_token_id, position) labels."""

    input_ids: np.ndarray
    labels: list[tuple[int, int]]


def make_masked_example(seq: EncodedSequence, vocab: Vocab, rng) -> MaskedExample:
    """Corrupt a molecule sequence for masked-token prediction.

    Every payload (non-special, non-padding) position is independently
    selected with probability 0.15; a selected token becomes [MASK] with
    probability 0.8, a uniformly random payload token with probability 0.1,
    and stays unchanged otherwise. At least one position is always selected.
    Special tokens are never selected and never used as replacements.
    """
    ids = seq.ids.copy()
    special = np.fromiter(vocab.special_ids(), dtype=np.int64)
    payload_mask = seq.mask & ~np.isin(ids, special)
    payload_positions = np.nonzero(payload_mask)[0]
    if payload_positions.size == 0:
        raise ValueError("sequence has no payload tokens to mask")
    selected = rng.random(payload_positions.size) < MASK_SELECT_RATE
    if not selected.any():
        selected[rng.integers(payload_positions.size)] = True
    payload_vocab = vocab.payload_ids()
    mask_id = vocab.id_of(MASK)
    labels = []
    for pos in payload_positions[selected]:
        original = int(ids[pos])
        branch = rng.random()
        if branch < MASK_BRANCH_RATE:
            ids[pos] = mask_id
        elif branch < MASK_BRANCH_RATE + RANDOM_BRANCH_RATE:
            ids[pos] = int(payload_vocab[rng.integers(payload_vocab.size)])
        labels.append((original, int(pos)))
    return MaskedExample(input_ids=ids, labels=labels)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamOptimizer:
    """Bias-corrected Adam over a named-tensor map, updating each tensor's
    .data in place from its .grad; a missing gradient counts as zero.

    The tensors themselves are held, not their arrays, so an array rebound
    onto a tensor (as Checkpoint.restore does) is the one updated next.
    """

    def __init__(self, named_params: dict[str, Tensor]):
        self.tensors = list(named_params.values())
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]
        self.t = 0

    def step(self, lr: float):
        self.t += 1
        c1 = 1 - ADAM_BETA1 ** self.t
        c2 = 1 - ADAM_BETA2 ** self.t
        for tensor, m, v in zip(self.tensors, self.m, self.v):
            p, g = tensor.data, tensor.grad
            if g is None:
                g = np.zeros_like(p)
            elif g.shape != p.shape:
                raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
            # in place, with the roundings of the textbook form
            # p - lr * (m / c1) / (sqrt(v / c2) + eps), so results are bitwise equal
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1 - ADAM_BETA2) * (g * g)
            update = m / c1
            update *= lr
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            update /= denom
            p -= update

    def zero_grad(self):
        for tensor in self.tensors:
            tensor.grad = None


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class TrainRunConfig:
    seed: int = 0
    batch_size: int = 32
    steps: int = 1000              # pretraining length
    epochs: int = 10               # fine-tuning length
    learning_rate: float = 1e-4
    warmup_fraction: float = 0.01  # pretraining linear warmup share
    checkpoint_interval: int = 0   # steps between periodic saves; 0 = off
    log_interval: int = 100

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if min(self.batch_size, self.steps, self.epochs) <= 0:
            raise ValueError("batch_size, steps and epochs must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1]")
        if self.log_interval < 1:
            raise ValueError("log_interval must be at least 1")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative (0 = off)")


def pkd_transform(kd_nanomolar: float) -> float:
    """Dissociation constant in nanomolar -> -log10(kd / 1e9)."""
    if kd_nanomolar <= 0:
        raise ValueError(f"dissociation constant must be positive, got {kd_nanomolar}")
    return -math.log10(kd_nanomolar / 1e9)


# ---------------------------------------------------------------------------
# pretraining
# ---------------------------------------------------------------------------

def _masked_batch(encs, vocab, rng):
    """Stack masked examples into (inputs, masks, flat label arrays)."""
    examples = [make_masked_example(e, vocab, rng) for e in encs]
    inputs = np.stack([ex.input_ids for ex in examples])
    masks = np.stack([e.mask for e in encs])
    rows, positions, truths = [], [], []
    for i, ex in enumerate(examples):
        for true_id, pos in ex.labels:
            rows.append(i)
            positions.append(pos)
            truths.append(true_id)
    return inputs, masks, (np.array(rows), np.array(positions), np.array(truths))


def _masked_lm_logits(inputs, masks, labels, w, rng=None):
    rows, positions, truths = labels
    b, length = inputs.shape
    enc = mt.encode_ids(inputs, masks, w, rng)
    flat = ad.reshape(enc, (b * length, w.cfg.hidden))
    picked = ad.embedding_lookup(flat, rows * length + positions)
    return mt.lm_logits(picked, w), truths


EVAL_CHUNK = 64  # molecules per batch, so per forward pass in masked_token_eval


def masked_eval_batches(encs, vocab, seed: int) -> list:
    """One fixed-seed masking of a sequence set, as batches of EVAL_CHUNK
    molecules for masked_token_eval.

    The masks depend only on the seed and the sequences, so a set masked once
    can be scored after every step as the same corrupted inputs.
    """
    rng = np.random.default_rng(seed)
    return [_masked_batch(encs[start:start + EVAL_CHUNK], vocab, rng)
            for start in range(0, len(encs), EVAL_CHUNK)]


def masked_token_eval(batches, w: TransformerWeights) -> tuple[float, float]:
    """(cross-entropy, accuracy) of the weights on masked_eval_batches output.

    A deterministic function of the weights, suitable for monitoring training
    progress. Accuracy is the fraction of masked positions whose argmax logit
    is the original token.
    """
    loss_sum = 0.0
    correct = total = 0
    with ad.no_grad():
        for inputs, masks, labels in batches:
            logits, truths = _masked_lm_logits(inputs, masks, labels, w)
            loss_sum += float(ad.softmax_cross_entropy(logits, truths).data) * truths.size
            correct += int((logits.data.argmax(axis=-1) == truths).sum())
            total += truths.size
    return loss_sum / total, correct / total


@dataclass
class PretrainResult:
    checkpoint: Checkpoint
    losses: list
    heldout_accuracy: float | None
    payload_baseline: float


def pretrain(corpus, vocab: Vocab, transformer_cfg: TransformerConfig,
             run: TrainRunConfig, codec_cfg: CodecConfig | None = None,
             heldout=None, keep_rep_when_truncated: bool = True,
             checkpoint_dir=None, log=None, step_monitor=None) -> PretrainResult:
    """Train the molecule encoder on masked-token prediction.

    corpus/heldout are iterables of raw molecule strings; empty lines are
    skipped. Returns the final checkpoint plus the per-step loss history and
    the held-out masked-token accuracy (None without a heldout set).
    step_monitor(step, weights), when given, runs after every update.
    """
    codec_cfg = codec_cfg or CodecConfig(mol_max_len=transformer_cfg.max_len)
    if codec_cfg.mol_max_len != transformer_cfg.max_len:
        raise ValueError("codec mol_max_len must equal transformer max_len")
    encs = [encode_molecule(s, vocab, codec_cfg, keep_rep_when_truncated)
            for s in corpus if s]
    if not encs:
        raise ValueError("pretraining corpus has no non-empty molecules")
    rng = np.random.default_rng(run.seed)
    weights = TransformerWeights(transformer_cfg, rng)
    optimizer = AdamOptimizer(weights.named())
    warmup_steps = max(1, int(run.warmup_fraction * run.steps))
    losses = []

    def snapshot(step):
        meta = {"kind": "pretrain", "transformer": asdict(transformer_cfg),
                "codec": asdict(codec_cfg), "mol_vocab": list(vocab.tokens),
                "keep_rep_when_truncated": keep_rep_when_truncated,
                "step": step}
        return Checkpoint(meta=meta, tensors={f"transformer.{n}": t.data.copy()
                                              for n, t in weights.named().items()})

    for step in range(1, run.steps + 1):
        idx = rng.integers(0, len(encs), size=min(run.batch_size, len(encs)))
        inputs, masks, labels = _masked_batch([encs[i] for i in idx], vocab, rng)
        try:
            logits, truths = _masked_lm_logits(inputs, masks, labels, weights, rng)
            loss = ad.softmax_cross_entropy(logits, truths)
        except NumericalError as exc:
            raise NumericalError(f"pretraining step {step}: {exc}") from exc
        optimizer.zero_grad()
        ad.backward(loss)
        optimizer.step(run.learning_rate * min(1.0, step / warmup_steps))
        losses.append(float(loss.data))
        if step_monitor is not None:
            step_monitor(step, weights)
        if log and (step % run.log_interval == 0 or step == run.steps):
            log(f"step {step} loss {float(loss.data):.6f}")
        if checkpoint_dir and run.checkpoint_interval and step % run.checkpoint_interval == 0:
            snapshot(step).save(f"{checkpoint_dir}/pretrain_step{step}.ckpt")

    accuracy = None
    if heldout is not None:
        heldout_encs = [encode_molecule(s, vocab, codec_cfg, keep_rep_when_truncated)
                        for s in heldout if s]
        if heldout_encs:
            batches = masked_eval_batches(heldout_encs, vocab, seed=run.seed + 1)
            _, accuracy = masked_token_eval(batches, weights)
    return PretrainResult(checkpoint=snapshot(run.steps), losses=losses,
                          heldout_accuracy=accuracy,
                          payload_baseline=1.0 / vocab.payload_ids().size)


# ---------------------------------------------------------------------------
# fine-tuning
# ---------------------------------------------------------------------------

@dataclass
class EncodedRecord:
    mol: EncodedSequence
    prot: EncodedSequence
    affinity: float


def encode_affinity_data(records, mol_vocab: Vocab, prot_vocab: Vocab,
                         codec_cfg: CodecConfig, keep_rep_when_truncated: bool = True):
    """Encode (smiles, fasta, affinity) records once, caching duplicates."""
    mol_cache, prot_cache = {}, {}
    out = []
    for rec in records:
        if rec.smiles not in mol_cache:
            mol_cache[rec.smiles] = encode_molecule(rec.smiles, mol_vocab, codec_cfg,
                                                    keep_rep_when_truncated)
        if rec.fasta not in prot_cache:
            prot_cache[rec.fasta] = encode_protein(rec.fasta, prot_vocab, codec_cfg)
        out.append(EncodedRecord(mol=mol_cache[rec.smiles],
                                 prot=prot_cache[rec.fasta],
                                 affinity=float(rec.affinity)))
    return out


def check_pretrain_kind(ckpt: Checkpoint):
    """Reject a checkpoint that pretrain did not write."""
    if ckpt.meta.get("kind") != "pretrain":
        raise ValueError(f"warm start requires a pretraining checkpoint, got "
                         f"kind={ckpt.meta.get('kind')!r}")


def load_warm_start(model: DtiModel, ckpt: Checkpoint):
    """Initialize the molecule encoder from a pretraining checkpoint.

    The transformer config and molecule vocabulary must match exactly; the
    protein tower and interaction head keep their fresh initialization.
    """
    check_pretrain_kind(ckpt)
    if ckpt.require("transformer") != asdict(model.cfg.transformer):
        raise ValueError("warm-start transformer config does not match the model")
    if tuple(ckpt.require("mol_vocab")) != model.mol_vocab.tokens:
        raise ValueError("warm-start molecule vocabulary does not match the model")
    ckpt.restore(model.tw.named(), "transformer.")


@dataclass
class FinetuneResult:
    best_checkpoint: Checkpoint
    history: list
    best_epoch: int
    best_dev_mse: float

    def report_text(self) -> str:
        lines = [f"epochs = {len(self.history)}"]
        for entry in self.history:
            lines.append(f"epoch {entry['epoch']} train_mse = {entry['train_mse']!r} "
                         f"dev_mse = {entry['dev_mse']!r}")
        lines.append(f"best_epoch = {self.best_epoch}")
        lines.append(f"best_dev_mse = {self.best_dev_mse!r}")
        return "\n".join(lines) + "\n"


def finetune(train, dev, model_cfg: ModelConfig, run: TrainRunConfig,
             mol_vocab: Vocab, prot_vocab: Vocab,
             warm_start: Checkpoint | None = None, log=None) -> FinetuneResult:
    """Minimize squared error over encoded affinity records.

    Tracks dev MSE each epoch and retains the checkpoint with the lowest one.
    train/dev are lists of EncodedRecord.
    """
    if not train or not dev:
        raise ValueError("finetune needs non-empty train and dev sets")
    rng = np.random.default_rng(run.seed)
    model = DtiModel(model_cfg, mol_vocab, prot_vocab, rng)
    if warm_start is not None:
        load_warm_start(model, warm_start)
    optimizer = AdamOptimizer(model.named_params())
    steps_per_epoch = (len(train) + run.batch_size - 1) // run.batch_size
    warmup_steps = max(1, int(run.warmup_fraction * run.epochs * steps_per_epoch))
    step = 0

    best_ckpt = None
    best_mse = np.inf
    best_epoch = -1
    history = []
    for epoch in range(1, run.epochs + 1):
        order = rng.permutation(len(train))
        epoch_losses = []
        for start in range(0, len(train), run.batch_size):
            batch = [train[i] for i in order[start:start + run.batch_size]]
            targets = np.array([r.affinity for r in batch])
            try:
                pred = model.forward_ids(*stack_sequences([r.mol for r in batch]),
                                         *stack_sequences([r.prot for r in batch]), rng)
                loss = mse_loss(pred, targets)
            except NumericalError as exc:
                raise NumericalError(f"fine-tuning epoch {epoch}: {exc}") from exc
            optimizer.zero_grad()
            ad.backward(loss)
            step += 1
            optimizer.step(run.learning_rate * min(1.0, step / warmup_steps))
            epoch_losses.append(float(loss.data))
        dev_mse = mse(np.array([r.affinity for r in dev]),
                      model.predict([r.mol for r in dev], [r.prot for r in dev]))
        entry = {"epoch": epoch, "train_mse": float(np.mean(epoch_losses)),
                 "dev_mse": dev_mse}
        history.append(entry)
        if log:
            log(f"epoch {epoch} train_mse {entry['train_mse']:.6f} dev_mse {dev_mse:.6f}")
        if dev_mse < best_mse:
            best_mse = dev_mse
            best_epoch = epoch
            best_ckpt = model.to_checkpoint({"epoch": epoch, "dev_mse": dev_mse})
    return FinetuneResult(best_checkpoint=best_ckpt, history=history,
                          best_epoch=best_epoch, best_dev_mse=best_mse)
