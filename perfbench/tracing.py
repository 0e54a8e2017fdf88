"""Spans around mlmforge's public functions, installed from outside the package.

A site is the attribute where a caller looks a function up. The encoder
reaches the primitives through the `ops` module, so those are patched on
`mlmforge.numerics.ops`; `training` binds `cross_entropy`, `build_batch`,
`adam_step` and the encoder functions by name, so those are patched on
`mlmforge.training`, and so on. Every patch is undone when `installed()`
exits.

Spans are kept in memory as [name, start, end, parent, pass id, attrs] and
written out once, at the end of the run. A "step" span is opened by the
first call that starts a training step (`build_batch` in pretraining,
`cls_loss_and_backward` in fine-tuning) and closed when `adam_step`
returns, so everything a step does is one of its children or its self time.
"""

import functools
import importlib
import json
import os
import statistics
import time
from contextlib import contextmanager

from mlmforge.numerics.ops import IGNORE_ID
from mlmforge.tokenizer import UNK_ID


class SetupDone(Exception):
    """Raised at the first step or eval batch when only set-up is measured."""


def _matmul_flop(args, kwargs, out):
    a = args[0]
    return {"flop": 2.0 * out.size * a.shape[-1]}


def _matmul_backward_flop(args, kwargs, out):
    dout, a = args[0], args[1]
    # dA = dC @ B^T and dB = A^T @ dC each cost as much as the forward product.
    return {"flop": 4.0 * dout.size * a.shape[-1]}


def _batch_counts(args, kwargs, out):
    att = out.attention_mask
    return {"cells": int(att.size), "real": int(att.sum()),
            "labels": int((out.labels != IGNORE_ID).sum())}


def _head_rows(args, kwargs, out):
    hidden = args[1]
    return {"rows": int(hidden.shape[0] * hidden.shape[1])}


def _encode_counts(args, kwargs, out):
    return {"tokens": len(out), "unk": out.count(UNK_ID)}


def _file_mb(index):
    def attrs(args, kwargs, out):
        return {"mb": os.path.getsize(args[index]) / 1e6}
    return attrs


# Roles a site can play besides recording its own span.
OPENS_STEP, CLOSES_STEP, EVAL_WORK = "opens_step", "closes_step", "eval_work"

_OPS = ("matmul", "add_bias", "layer_norm", "softmax", "gelu", "embedding_lookup")

# (module, attribute, span name, role, attrs function)
SITES = [
    ("mlmforge.cli", "load_checkpoint", "checkpoint.load_checkpoint", None, _file_mb(0)),
    ("mlmforge.cli", "save_checkpoint", "checkpoint.save_checkpoint", None, _file_mb(2)),
    ("mlmforge.cli", "init_params", "encoder.init_params", None, None),
    ("mlmforge.cli", "pretrain", "training.pretrain", None, None),
    ("mlmforge.cli", "finetune", "training.finetune", None, None),
    ("mlmforge.cli", "write_log", "training.write_log", None, None),
    ("mlmforge.training", "pretrain", "training.pretrain", None, None),
    ("mlmforge.training", "build_batch", "masking.build_batch", OPENS_STEP, _batch_counts),
    ("mlmforge.training", "cls_loss_and_backward", "training.cls_loss_and_backward",
     OPENS_STEP, None),
    ("mlmforge.training", "adam_step", "params.adam_step", CLOSES_STEP, None),
    ("mlmforge.training", "mlm_loss_and_backward", "training.mlm_loss_and_backward", None, None),
    ("mlmforge.training", "mlm_eval_loss", "training.mlm_eval_loss", None, None),
    ("mlmforge.training", "forward_hidden", "encoder.forward_hidden", None, None),
    ("mlmforge.training", "backward_hidden", "encoder.backward_hidden", None, None),
    ("mlmforge.training", "mlm_head", "encoder.mlm_head", None, _head_rows),
    ("mlmforge.training", "mlm_head_backward", "encoder.mlm_head_backward", None, None),
    ("mlmforge.training", "cls_head", "encoder.cls_head", None, None),
    ("mlmforge.training", "cls_head_backward", "encoder.cls_head_backward", None, None),
    ("mlmforge.training", "init_classifier", "encoder.init_classifier", None, None),
    ("mlmforge.training", "cross_entropy", "ops.cross_entropy", None, None),
    ("mlmforge.training", "cross_entropy_backward", "ops.cross_entropy_backward", None, None),
    ("mlmforge.training", "encode", "tokenizer.encode", None, _encode_counts),
    ("mlmforge.masking", "build_batch", "masking.build_batch", None, _batch_counts),
    ("mlmforge.evaluation", "evaluate_model", "evaluation.evaluate_model", None, None),
    ("mlmforge.evaluation", "forward_hidden", "encoder.forward_hidden", EVAL_WORK, None),
    ("mlmforge.evaluation", "cls_head", "encoder.cls_head", None, None),
    ("mlmforge.evaluation", "encode", "tokenizer.encode", None, _encode_counts),
    ("mlmforge.numerics.ops", "ensure_finite", "ops.ensure_finite", None, None),
    ("mlmforge.numerics.ops", "matmul", "ops.matmul", None, _matmul_flop),
    ("mlmforge.numerics.ops", "matmul_backward", "ops.matmul_backward", None,
     _matmul_backward_flop),
    *[("mlmforge.numerics.ops", op, f"ops.{op}", None, None)
      for op in _OPS[1:] + tuple(f"{o}_backward" for o in _OPS[1:])
      + ("dropout", "dropout_backward", "tanh", "tanh_backward")],
    ("mlmforge.numerics.params", "ParameterStore.clone", "params.clone", None, None),
    ("mlmforge.tokenizer", "train_vocab", "tokenizer.train_vocab", None, None),
    ("mlmforge.tokenizer", "encode", "tokenizer.encode", None, _encode_counts),
    ("mlmforge.corpus", "segment", "corpus.ingest_segment", None, None),
    ("mlmforge.corpus", "read_sentences", "corpus.read_sentences", None, None),
    ("mlmforge.benchmarks", "load_manifest_dataset", "benchmarks.load_manifest_dataset",
     None, None),
    ("mlmforge.benchmarks", "holdout_split", "benchmarks.holdout_split", None, None),
]


class Tracer:
    """Records spans for one benchmark run. `full=False` installs only the
    sites that mark step boundaries and the first eval batch, which is all
    an untraced run needs for step times and set-up time. A `speed` given
    here is sampled between steps, outside every span."""

    def __init__(self, full: bool, speed=None):
        self.full = full
        self.speed = speed  # calibrate.HostSpeed sampled before each step, or None
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step: int | None = None
        self.pass_id = -1
        self.first_work: float | None = None
        self.stop_at_work = False

    # --- recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id, None])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def _close(self, i: int) -> None:
        self.spans[i][2] = time.perf_counter()
        # Pop through i even if an exception skipped a child's close.
        while self.stack and self.stack.pop() != i:
            pass

    def clock(self) -> float:
        """perf_counter less the time spent in host-speed references so far:
        the difference of two readings is the program's time alone."""
        return time.perf_counter() - (self.speed.total if self.speed is not None else 0.0)

    def work_starts(self) -> None:
        if self.first_work is None:
            self.first_work = time.perf_counter()
        if self.stop_at_work:
            raise SetupDone

    def begin_step(self) -> None:
        self.work_starts()
        if self.speed is not None:
            self.speed.sample()
        self.step = self._open("step")

    def end_step(self) -> None:
        if self.step is not None:
            self._close(self.step)
            self.step = None

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def new_pass(self, pass_id: int, stop_at_work: bool = False) -> None:
        self.pass_id = pass_id
        self.stack.clear()
        self.step = None
        self.first_work = None
        self.stop_at_work = stop_at_work

    def _wrap(self, fn, name, role, attrs_fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if role == OPENS_STEP and tracer.step is None:
                tracer.begin_step()
            elif role == EVAL_WORK and tracer.step is None:
                tracer.work_starts()
            i = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if attrs_fn is not None:
                tracer.spans[i][5] = attrs_fn(args, kwargs, out)
            if role == CLOSES_STEP:
                tracer.end_step()
            return out

        return wrapper

    @contextmanager
    def installed(self):
        undo = []
        try:
            for module, attr, name, role, attrs_fn in SITES:
                if not self.full and role is None:
                    continue
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                setattr(owner, leaf, self._wrap(original, name, role, attrs_fn))
                undo.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def write(self, path, run_id: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, pass_id, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id, "run": run_id,
                                     **({"attrs": attrs} if attrs else {})}) + "\n")

    # --- analysis -------------------------------------------------------------

    def step_ms(self, passes) -> list[float]:
        return [1e3 * (s[2] - s[1]) for s in self.spans
                if s[0] == "step" and s[4] in passes and s[2] is not None]


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


# Functions timed inside training steps, reported as {calls,ms}_per_step or ms_per_step.
STEP_CALLS = tuple(f"ops.{op}{sfx}" for op in _OPS for sfx in ("", "_backward")) + (
    "ops.ensure_finite",)
STEP_MS = ("encoder.forward_hidden", "encoder.backward_hidden", "encoder.mlm_head",
           "encoder.mlm_head_backward", "ops.cross_entropy", "ops.cross_entropy_backward",
           "masking.build_batch", "params.adam_step")
# Functions timed per call wherever they run, reported as a median in ms.
CALL_MS = ("evaluation.evaluate_model", "training.mlm_eval_loss", "params.clone",
           "checkpoint.save_checkpoint", "checkpoint.load_checkpoint", "corpus.ingest_segment",
           "corpus.read_sentences", "benchmarks.load_manifest_dataset",
           "benchmarks.holdout_split")
HEAD_AND_LOSS = ("encoder.mlm_head", "encoder.mlm_head_backward", "ops.cross_entropy",
                 "ops.cross_entropy_backward")
CLI_COMMANDS = ("prep-corpus", "build-vocab", "continue-pretrain", "finetune", "evaluate",
                "report")


# The calls a training step holds exactly once, by the call that opens it.
STEP_CALLS_ONCE = {
    "masking.build_batch": ("masking.build_batch", "training.mlm_loss_and_backward",
                            "params.adam_step"),
    "training.cls_loss_and_backward": ("training.cls_loss_and_backward", "params.adam_step"),
}


def _well_formed(kid_names: list[str]) -> bool:
    """A step's direct children, in start order. A step opened by a training
    call holds each call of its kind once; any other step (the encode
    batches of text-prep) holds at least one call."""
    if not kid_names:
        return False
    once = STEP_CALLS_ONCE.get(kid_names[0])
    return once is None or all(kid_names.count(name) == 1 for name in once)


def layer_metrics(spans: list[list], passes: set[int]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the given passes, plus the
    accounting check: (metrics, {"steps": n, "accounted": n_ok})."""
    keep = [k for k, s in enumerate(spans) if s[4] in passes and s[2] is not None]
    pos = {orig: new for new, orig in enumerate(keep)}
    spans = [[*spans[k][:3], pos.get(spans[k][3]), *spans[k][4:]] for k in keep]
    n = len(spans)
    step_of: list[int | None] = [None] * n
    children: dict[int, list[int]] = {}
    for k, s in enumerate(spans):
        parent = s[3]
        if parent is not None:
            children.setdefault(parent, []).append(k)
            step_of[k] = parent if spans[parent][0] == "step" else step_of[parent]
    dur = [s[2] - s[1] for s in spans]
    steps = [k for k, s in enumerate(spans) if s[0] == "step"]

    per_step: dict[str, dict[int, float]] = {}
    calls: dict[str, dict[int, int]] = {}
    flop: dict[str, dict[int, float]] = {}
    sums: dict[str, float] = {}
    per_call: dict[str, list[float]] = {}
    for k, s in enumerate(spans):
        name, attrs, st = s[0], s[5] or {}, step_of[k]
        if st is not None:
            per_step.setdefault(name, {}).setdefault(st, 0.0)
            per_step[name][st] += dur[k]
            calls.setdefault(name, {}).setdefault(st, 0)
            calls[name][st] += 1
            if "flop" in attrs:
                flop.setdefault(name, {}).setdefault(st, 0.0)
                flop[name][st] += attrs["flop"]
            for key in ("cells", "real", "labels", "rows"):
                if key in attrs:
                    sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0.0) + attrs[key]
        else:
            per_call.setdefault(name, []).append(dur[k])
        for key in ("tokens", "unk", "mb"):
            if key in attrs:
                sums[f"{name}.{key}"] = sums.get(f"{name}.{key}", 0.0) + attrs[key]

    def step_median(table, name, scale=1.0):
        col = table.get(name, {})
        return _median([scale * col.get(st, 0) for st in steps]) if col else 0.0

    m: dict[str, float] = {}
    for name in STEP_MS:
        m[f"{name}.ms_per_step"] = step_median(per_step, name, 1e3)
    for name in STEP_CALLS:
        m[f"{name}.calls_per_step"] = step_median(calls, name)
        m[f"{name}.ms_per_step"] = step_median(per_step, name, 1e3)
    m["ops.matmul.gflop_per_step"] = step_median(flop, "ops.matmul", 1e-9)
    m["ops.matmul_backward.gflop_per_step"] = step_median(flop, "ops.matmul_backward", 1e-9)
    m["encoder.forward_hidden.eval_ms_per_batch"] = 1e3 * _median(
        per_call.get("encoder.forward_hidden", []))

    def ratio(a, b):
        return sums.get(a, 0.0) / sums[b] if sums.get(b) else 0.0

    m["masking.pad_frac"] = (1.0 - ratio("masking.build_batch.real", "masking.build_batch.cells")
                             if sums.get("masking.build_batch.cells") else 0.0)
    m["masking.label_frac"] = ratio("masking.build_batch.labels", "masking.build_batch.real")
    m["encoder.mlm_head.useful_frac"] = ratio("masking.build_batch.labels",
                                              "encoder.mlm_head.rows")

    for name in CALL_MS:
        m[f"{name}.ms"] = 1e3 * _median(per_call.get(name, []))
    for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        n_calls = len(per_call.get(name, []))
        m[f"{name}.mb"] = sums.get(f"{name}.mb", 0.0) / n_calls if n_calls else 0.0
    m["tokenizer.train_vocab.s"] = _median(per_call.get("tokenizer.train_vocab", []))
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = _median(per_call.get(f"cli.{cmd}", []))

    # Encode work per pass (encode runs both inside and outside steps).
    enc = [k for k, s in enumerate(spans) if s[0] == "tokenizer.encode"]
    by_pass: dict[int, list[int]] = {}
    for k in enc:
        by_pass.setdefault(spans[k][4], []).append(k)
    m["tokenizer.encode.calls"] = _median([len(v) for v in by_pass.values()])
    m["tokenizer.encode.ms"] = 1e3 * _median([sum(dur[k] for k in v) for v in by_pass.values()])
    enc_s = sum(dur[k] for k in enc)
    m["tokenizer.encode.tok_per_s"] = (sums.get("tokenizer.encode.tokens", 0.0) / enc_s
                                       if enc else 0.0)
    m["tokenizer.unk_frac"] = ratio("tokenizer.encode.unk", "tokenizer.encode.tokens")

    # Self time of the training loops, per step they ran.
    for loop in ("training.pretrain", "training.finetune"):
        vals = []
        for k, s in enumerate(spans):
            if s[0] != loop:
                continue
            kids = children.get(k, [])
            n_steps = sum(1 for c in kids if spans[c][0] == "step")
            if n_steps:
                vals.append(1e3 * (dur[k] - sum(dur[c] for c in kids)) / n_steps)
        m[f"{loop}.self_ms_per_step"] = _median(vals)

    # Accounting: a training step holds exactly one of each call of its kind,
    # and its children lie inside it and do not overlap, so children plus
    # self time equal the step span.
    ok = 0
    selfs, shares = [], []
    for st in steps:
        kids = sorted(children.get(st, []), key=lambda c: spans[c][1])
        start, end = spans[st][1], spans[st][2]
        inside = all(start <= spans[c][1] <= spans[c][2] <= end for c in kids)
        disjoint = all(spans[a][2] <= spans[b][1] for a, b in zip(kids, kids[1:]))
        self_t = dur[st] - sum(dur[c] for c in kids)
        if inside and disjoint and self_t >= 0.0 and _well_formed([spans[c][0] for c in kids]):
            ok += 1
        selfs.append(1e3 * self_t)
        head = sum(per_step.get(name, {}).get(st, 0.0) for name in HEAD_AND_LOSS)
        shares.append(head / dur[st] if dur[st] > 0 else 0.0)
    m["step.ms"] = 1e3 * _median([dur[st] for st in steps])
    m["step.self_ms"] = _median(selfs)
    m["step.mlm_head_ce_share"] = _median(shares)
    m["trace.step_accounted_frac"] = ok / len(steps) if steps else 1.0
    return m, {"steps": len(steps), "accounted": ok}
