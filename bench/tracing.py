"""Run-time instrumentation: unit boundaries and per-layer spans.

No moldta source is edited. Timing comes from replacing module and class
attributes with wrappers for the length of one pass and restoring them
afterwards. A function is replaced wherever a caller looks it up: every
loaded moldta module whose globals bind the same function object gets the
wrapper, so `from .protein_cnn import protein_forward_ids` in `model` is
caught as well as attribute calls such as `ad.matmul`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

perf = time.perf_counter


class Patches:
    """Attribute replacements, undone in reverse order by restore()."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        old = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._undo.append((owner, name, old))
        setattr(owner, name, value)

    def restore(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


def _moldta_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "moldta" or name.startswith("moldta."))]


def rebind_function(patches: Patches, func, wrapper):
    """Point every moldta module global bound to `func` at `wrapper`."""
    hits = 0
    for mod in _moldta_modules():
        for key, value in list(vars(mod).items()):
            if value is func:
                patches.set(mod, key, wrapper)
                hits += 1
    if hits == 0:
        raise RuntimeError(f"{func.__module__}.{func.__qualname__} is bound in no moldta module")


def wrap_method(patches: Patches, cls, name: str, make_wrapper):
    """Replace a class attribute; classmethods keep their descriptor."""
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        patches.set(cls, name, classmethod(make_wrapper(raw.__func__)))
    else:
        patches.set(cls, name, make_wrapper(raw))


class StepClock:
    """Times training calls through the public Adam optimizer.

    A call's set-up ends when `AdamOptimizer.__init__` returns, each step
    ends when `AdamOptimizer.step` returns, and whatever follows the last
    step (held-out or dev evaluation, final snapshot) is the call's tail.
    """

    def __init__(self, tracer: "Tracer | None" = None):
        self.tracer = tracer
        self._start = self._ready = None
        self._ends = []

    def install(self, patches: Patches, optimizer_cls):
        clock = self

        def init_wrapper(init):
            def __init__(opt, *args, **kwargs):
                init(opt, *args, **kwargs)
                clock._ready = perf()
                if clock.tracer is not None:
                    clock.tracer.begin_unit("step")
            return __init__

        def step_wrapper(step):
            def step_(opt, *args, **kwargs):
                out = step(opt, *args, **kwargs)
                clock._ends.append(perf())
                if clock.tracer is not None:
                    clock.tracer.begin_unit("step")
                return out
            return step_

        wrap_method(patches, optimizer_cls, "__init__", init_wrapper)
        wrap_method(patches, optimizer_cls, "step", step_wrapper)

    def steps_done(self) -> int:
        return len(self._ends)

    def begin_call(self):
        self._ready = None
        self._ends = []
        if self.tracer is not None:
            self.tracer.begin_unit("call")
        self._start = perf()

    def end_call(self):
        """Close the call; returns (setup_s, [step_s], tail_s)."""
        end = perf()
        if self.tracer is not None:
            # the unit opened by the last step boundary is the call's tail
            self.tracer.relabel_unit("call")
            self.tracer.begin_unit("idle")
        if self._ready is None or not self._ends:
            raise RuntimeError("training call finished without an optimizer step")
        marks = [self._ready] + self._ends
        steps = [b - a for a, b in zip(marks, marks[1:])]
        return self._ready - self._start, steps, end - self._ends[-1]


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, unit id).

    Units group the spans of one training step, one training call's set-up
    and tail, or one request. Counters derived from argument and result
    shapes accumulate per unit kind.
    """

    def __init__(self):
        self.spans = []
        self.units = []          # [kind, start, end]
        self._stack = []
        self.counts = defaultdict(float)   # (kind, key) -> value
        self.distinct = defaultdict(set)   # unit id -> hashes of protein rows
        self.unit = -1
        self.begin_unit("idle")

    def begin_unit(self, kind: str):
        now = perf()
        if self.units and self.units[-1][2] is None:
            self.units[-1][2] = now
        self.units.append([kind, now, None])
        self.unit = len(self.units) - 1

    def relabel_unit(self, kind: str):
        self.units[self.unit][0] = kind

    def add(self, key: str, value):
        self.counts[(self.units[self.unit][0], key)] += float(value)

    def finish(self):
        if self.units[-1][2] is None:
            self.units[-1][2] = perf()

    def wrap(self, name, fn, after=None):
        """Time calls of fn as spans; `name` may be a function of the args."""
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[idx] = (label, start, end, parent, tracer.unit)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------

    def busy(self, kinds):
        """name -> kind -> (inclusive seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, unit in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for i, (name, start, end, parent, unit) in enumerate(self.spans):
            kind = self.units[unit][0]
            if kind in kinds:
                cell = out[name][kind]
                cell[0] += end - start
                cell[1] += end - start - child[i]
                cell[2] += 1
        return out

    def step_coverage(self):
        """(step seconds, seconds not covered by a step's top-level spans, steps)."""
        covered = defaultdict(float)
        for name, start, end, parent, unit in self.spans:
            if parent < 0:
                covered[unit] += end - start
        total = uncovered = 0.0
        steps = 0
        for unit, (kind, start, end) in enumerate(self.units):
            if kind == "step":
                total += end - start
                uncovered += end - start - covered[unit]
                steps += 1
        return total, uncovered, steps

    def write(self, path):
        """Write the spans as JSON lines, one per span, after the run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "unit": unit,
                                     "unit_kind": self.units[unit][0]}) + "\n")


# ----------------------------------------------------------------------
# the layers: which public names are timed, and what each reports
# ----------------------------------------------------------------------

AUTODIFF_PRIMITIVES = (
    "add", "subtract", "multiply", "scale", "matmul", "transpose", "reshape",
    "concat", "embedding_lookup", "take_index", "reduce_sum", "reduce_mean",
    "relu", "gelu", "softmax_rows", "layer_norm", "dropout", "unfold_windows",
    "max_pool_over_length", "softmax_cross_entropy",
)
REPORTED_OPS = ("matmul", "softmax_rows", "layer_norm", "gelu", "add", "dropout",
                "embedding_lookup", "unfold_windows", "max_pool_over_length",
                "softmax_cross_entropy")


def install_layers(tracer: Tracer, patches: Patches, m):
    """Wrap every layer entry point; `m` holds the imported moldta modules."""
    t = tracer

    def wrap_fn(name, func, after=None):
        rebind_function(patches, func, t.wrap(name, func, after))

    def wrap_meth(name, cls, attr, after=None):
        wrap_method(patches, cls, attr, lambda fn: t.wrap(name, fn, after))

    def op_after(op):
        def after(args, out):
            t.add("autodiff.ops", 1)
            if out is not args[0]:          # dropout at inference returns its input
                t.add("autodiff.op_output_bytes", out.data.nbytes)
            if op == "matmul":
                t.add("autodiff.matmul.flop", 2.0 * out.data.size * args[0].data.shape[-1])
        return after

    for op in AUTODIFF_PRIMITIVES:
        wrap_fn(f"autodiff.{op}", getattr(m.autodiff, op), op_after(op))
    wrap_fn("autodiff.conv1d", m.autodiff.conv1d)
    wrap_fn("autodiff.backward", m.autodiff.backward)

    wrap_fn("codec.encode_molecule", m.codec.encode_molecule)
    wrap_fn("codec.encode_protein", m.codec.encode_protein)

    def tokens_after(args, out):
        mask = args[1]
        t.add("transformer.real_tokens", mask.sum())
        t.add("transformer.positions", mask.size)

    wrap_fn("transformer.encode_ids", m.transformer.encode_ids, tokens_after)
    wrap_fn("transformer.attention_block", m.transformer.attention_block)
    wrap_fn("transformer.lm_logits", m.transformer.lm_logits)

    def protein_after(args, out):
        ids, mask = args[0], args[1]
        t.add("protein_cnn.rows", ids.shape[0])
        t.add("protein_cnn.real_positions", mask.sum())
        t.add("protein_cnn.positions", mask.size)
        t.distinct[t.unit].update(hash(row.tobytes()) for row in ids)

    wrap_fn("protein_cnn.forward", m.protein_cnn.protein_forward_ids, protein_after)
    wrap_fn("interaction.predict_affinity_batch", m.interaction.predict_affinity_batch)
    wrap_fn("interaction.mse_loss", m.interaction.mse_loss)

    for attr in ("forward_ids", "predict", "to_checkpoint", "from_checkpoint"):
        wrap_meth(f"model.{attr}", m.model.DtiModel, attr)

    wrap_fn("training.make_masked_example", m.training.make_masked_example,
            lambda args, out: t.add("training.masked_positions", len(out.labels)))
    wrap_meth("training.adam", m.training.AdamOptimizer, "step")

    for name in ("concordance_index", "rm2_index", "aupr", "mse"):
        wrap_fn(f"metrics.{name}", getattr(m.metrics, name))

    def rank_after(args, out):
        t.add("data.rank.candidates", len(args[0]))
        t.add("data.rank.skipped", len(out[1]))

    for name in ("load_candidates", "format_ranking", "load_predictions"):
        wrap_fn(f"data.{name}", getattr(m.data, name))
    wrap_fn("data.rank_candidates", m.data.rank_candidates, rank_after)

    wrap_meth("checkpoint.load", m.checkpoint.Checkpoint, "load",
              lambda args, out: t.add("checkpoint.read_bytes", os.path.getsize(args[1])))

    wrap_fn(lambda args: f"cli.main.{args[0][0]}", m.cli.main)


def layer_metrics(tracer: Tracer, norm: dict) -> dict:
    """Per-layer figures from one traced pass.

    `norm` maps each unit kind that counts to the number it is divided by.
    A time or count is its total in units of each kind divided by that
    number, summed over kinds: per step for training, with each call's
    set-up and tail spread over the steps; per rank request plus per
    evaluate request for screening. Shares and rates are ratios of totals.
    """
    busy = tracer.busy(norm)

    def per_unit(name, field):
        cells = busy.get(name, {})
        return sum(cells[k][field] / n for k, n in norm.items() if n and k in cells)

    def ms(name):
        return 1e3 * per_unit(name, 0)

    def count(key):
        return sum(tracer.counts[(k, key)] / n for k, n in norm.items() if n)

    def total(key):
        return sum(tracer.counts[(k, key)] for k in norm)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("encode_molecule", "encode_protein"):
        out[f"codec.{name}.ms"] = ms(f"codec.{name}")
        out[f"codec.{name}.calls"] = per_unit(f"codec.{name}", 2)
    for op in REPORTED_OPS:
        out[f"autodiff.{op}.ms"] = ms(f"autodiff.{op}")
        out[f"autodiff.{op}.calls"] = per_unit(f"autodiff.{op}", 2)
    out["autodiff.backward.ms"] = ms("autodiff.backward")
    out["autodiff.ops_per_step"] = count("autodiff.ops")
    out["autodiff.matmul.gflop"] = count("autodiff.matmul.flop") / 1e9
    out["autodiff.op_output_mb"] = count("autodiff.op_output_bytes") / 1e6
    matmul_s = sum(busy.get("autodiff.matmul", {}).get(k, (0.0,))[0] for k in norm)
    out["autodiff.matmul.gflop_per_s"] = ratio(total("autodiff.matmul.flop") / 1e9, matmul_s)

    for name in ("encode_ids", "attention_block", "lm_logits"):
        out[f"transformer.{name}.ms"] = ms(f"transformer.{name}")
    out["transformer.real_token_share"] = ratio(total("transformer.real_tokens"),
                                                total("transformer.positions"))

    distinct = sum(len(rows) for unit, rows in tracer.distinct.items()
                   if tracer.units[unit][0] in norm)
    out["protein_cnn.forward.ms"] = ms("protein_cnn.forward")
    out["protein_cnn.rows"] = count("protein_cnn.rows")
    out["protein_cnn.distinct_row_share"] = ratio(distinct, total("protein_cnn.rows"))
    out["protein_cnn.real_position_share"] = ratio(total("protein_cnn.real_positions"),
                                                   total("protein_cnn.positions"))

    out["interaction.predict_affinity_batch.ms"] = ms("interaction.predict_affinity_batch")
    out["interaction.mse_loss.ms"] = ms("interaction.mse_loss")
    for name in ("forward_ids", "predict", "to_checkpoint", "from_checkpoint"):
        out[f"model.{name}.ms"] = ms(f"model.{name}")

    step_s, uncovered_s, steps = tracer.step_coverage()
    out["training.make_masked_example.ms"] = ms("training.make_masked_example")
    out["training.make_masked_example.calls"] = per_unit("training.make_masked_example", 2)
    out["training.masked_positions"] = count("training.masked_positions")
    out["training.adam.ms"] = ms("training.adam")
    out["training.step.self_ms"] = 1e3 * ratio(uncovered_s, steps)
    out["training.step.uncovered_share"] = ratio(uncovered_s, step_s)

    for name in ("concordance_index", "rm2_index", "aupr", "mse"):
        out[f"metrics.{name}.ms"] = ms(f"metrics.{name}")
    for name in ("load_candidates", "rank_candidates", "format_ranking", "load_predictions"):
        out[f"data.{name}.ms"] = ms(f"data.{name}")
    out["data.rank.skipped_share"] = ratio(total("data.rank.skipped"),
                                           total("data.rank.candidates"))

    out["checkpoint.load.ms"] = ms("checkpoint.load")
    out["checkpoint.read_mb"] = count("checkpoint.read_bytes") / 1e6

    out["cli.main.rank.ms"] = ms("cli.main.rank")
    out["cli.main.evaluate.ms"] = ms("cli.main.evaluate")
    out["cli.main.self_ms"] = 1e3 * sum(per_unit(name, 1) for name in busy
                                        if name.startswith("cli.main."))
    return out


def self_times(tracer: Tracer, norm: dict) -> dict:
    """Self milliseconds per unit for every span name, for the trace report."""
    busy = tracer.busy(norm)
    return {name: 1e3 * sum(cells[k][1] / n for k, n in norm.items() if n and k in cells)
            for name, cells in sorted(busy.items())}
