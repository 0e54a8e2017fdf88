"""The four workloads: seeded inputs, one pass through mlmforge, its checks.

A pass drives the shipped pipeline through its public entry points:
`mlmforge.cli.main` for commands and `mlmforge.training` /
`mlmforge.tokenizer` for library calls. Functions are looked up on their
module at call time, so the tracer's patches see every call. Stage times
are read from `tracer.clock()`, which leaves out the host-speed samples
taken at step boundaries.
"""

import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from mlmforge import benchmarks, checkpoint, cli, corpus, encoder, tokenizer, training

import datagen

CONFIG = encoder.ModelConfig()  # the desk layout: 4 layers, 128 hidden, 4 heads, 512 ffn
N_WORDS = CONFIG.vocab_size - len(tokenizer.SPECIAL_TOKENS)
BATCH = 16
PRETRAIN_LR = "0.001"


@dataclass
class PassResult:
    timings: dict[str, float]          # seconds per stage of the pass
    digest: str                        # outputs that must be byte-identical on every pass
    losses: list[float] = field(default_factory=list)   # train loss of each step
    values: dict = field(default_factory=dict)          # other outputs to check or report


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_cli(tracer, checks: list, *argv) -> float:
    """One command through `mlmforge.cli.main`; returns its time. A
    non-zero exit or a `.lock` left in the run directory is a failed check."""
    argv = [str(a) for a in argv]
    run_dir = Path(argv[argv.index("--run-dir") + 1])
    out, err = io.StringIO(), io.StringIO()
    t0 = tracer.clock()
    with tracer.span(f"cli.{argv[0]}"), redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    elapsed = tracer.clock() - t0
    ok = code == 0 and not (run_dir / ".lock").exists()
    checks.append((f"cli {argv[0]}", ok))
    if not ok:
        print(f"{argv[0]} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
    return elapsed


def train_losses(log_path: Path, metric: str) -> list[float]:
    recs = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
    return [r["value"] for r in recs if r["split"] == "train" and r["metric"] == metric]


def _write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{s}\n" for s in lines), encoding="utf-8")


def _word_vocab(seed: int, work: Path):
    """A vocabulary holding every lexicon word whole, so a sentence of n
    words encodes to exactly n + 2 tokens."""
    words = datagen.lexicon(seed, N_WORDS)
    vocab = tokenizer.Vocab([*tokenizer.SPECIAL_TOKENS, *words])
    vocab.save(work / "vocab.txt")
    return words, vocab


def _seeded_checkpoint(seed: int, vocab, path: Path) -> None:
    checkpoint.save_checkpoint(encoder.init_params(CONFIG, seed), CONFIG, path,
                               vocab.content_hash())


class Workload:
    name = ""
    why = ""
    tail_q = 0.5        # step_ms_tail percentile; the run takes enough steps for 10 beyond it
    pretrains = False   # whether mlm_loss_end applies
    code = "numeric"    # the host-speed reference its times are scaled by (calibrate.py)

    def min_steps(self) -> int:
        return math.ceil(10 / (1.0 - self.tail_q)) + 1

    def prepare(self, seed: int, work: Path) -> dict:
        raise NotImplementedError

    def run(self, inp: dict, pdir: Path, tracer, checks: list) -> PassResult:
        raise NotImplementedError


class PretrainShort(Workload):
    name = "pretrain-short"
    why = ("library pretrain of fresh desk params on ~48-token Zipfian sentences: the "
           "vocab-wide MLM head, loss and Adam dominate and padding is ~0")
    tail_q = 0.8
    pretrains = True
    steps = 12

    def prepare(self, seed, work):
        words, _ = _word_vocab(seed, work)
        lengths = datagen.uniform_lengths(seed, self.steps * BATCH)
        _write_lines(work / "corpus.txt", datagen.sentences(seed, 10, words, lengths))
        return {"seed": seed, "vocab": work / "vocab.txt", "corpus": work / "corpus.txt",
                "train_tokens": sum(lengths)}

    def run(self, inp, pdir, tracer, checks):
        vocab = tokenizer.Vocab.load(inp["vocab"])
        sents = corpus.read_sentences(inp["corpus"])
        ids = [tokenizer.encode(vocab, s, CONFIG.max_positions) for s in sents.sentences]
        params = encoder.init_params(CONFIG, inp["seed"])
        cfg = training.TrainConfig(batch_size=BATCH, max_steps=self.steps,
                                   eval_every=self.steps, lr_encoder=float(PRETRAIN_LR),
                                   seed=inp["seed"])
        t0 = tracer.clock()
        result = training.pretrain(ids, params, CONFIG, cfg)
        pretrain_s = tracer.clock() - t0
        checks.append(("encoded length", sum(map(len, ids)) == inp["train_tokens"]))
        log = pdir / "logs" / "pretrain.jsonl"
        log.parent.mkdir(parents=True)
        training.write_log(result.log, log)
        return PassResult({"pretrain_s": pretrain_s}, digest([log]),
                          train_losses(log, "mlm_loss"))


class ContinueLongMixed(Workload):
    name = "continue-long-mixed"
    why = ("CLI continue-pretrain from a checkpoint on an 8..128-token long-tailed mix with "
           "validation: attention, FFN, padding waste and checkpoint I/O dominate")
    tail_q = 0.65
    pretrains = True
    steps = 8
    eval_every = 4
    val_batches = 2

    def prepare(self, seed, work):
        words, vocab = _word_vocab(seed, work)
        _seeded_checkpoint(seed, vocab, work / "init.ckpt")
        lengths = datagen.long_tailed_lengths(seed, self.steps + self.val_batches, BATCH)
        sents = datagen.sentences(seed, 11, words, lengths)
        cut = self.steps * BATCH
        _write_lines(work / "corpus.txt", sents[:cut])
        _write_lines(work / "val.txt", sents[cut:])
        return {"seed": seed, "vocab": work / "vocab.txt", "ckpt": work / "init.ckpt",
                "corpus": work / "corpus.txt", "val": work / "val.txt",
                "train_tokens": sum(lengths[:cut])}

    def run(self, inp, pdir, tracer, checks):
        run_dir = pdir / "ct"
        elapsed = run_cli(
            tracer, checks, "continue-pretrain", "--from", inp["ckpt"],
            "--corpus", inp["corpus"], "--vocab", inp["vocab"], "--val-corpus", inp["val"],
            "--run-dir", run_dir, "--set", f"train.max_steps={self.steps}",
            "--set", f"train.eval_every={self.eval_every}",
            "--set", f"train.lr_encoder={PRETRAIN_LR}", "--set", f"train.seed={inp['seed']}")
        log = run_dir / "logs" / "pretrain.jsonl"
        n_val = sum(1 for line in log.read_text().splitlines()
                    if json.loads(line)["split"] == "validation")
        checks.append(("validation ran", n_val == self.steps // self.eval_every
                       and (run_dir / "ckpt" / "best.ckpt").is_file()))
        return PassResult({"continue_pretrain_s": elapsed}, digest([log]),
                          train_losses(log, "mlm_loss"))


class FinetuneEval(Workload):
    name = "finetune-eval"
    why = ("CLI finetune, evaluate, report on a 9-class SAD-shaped set: encoder train and "
           "eval passes, no MLM head, tokenizer.encode in every evaluation")
    tail_q = 0.8
    n_train, n_test, epochs = 200, 96, 2
    lr = "0.003"

    def prepare(self, seed, work):
        words, vocab = _word_vocab(seed, work)
        _seeded_checkpoint(seed, vocab, work / "init.ckpt")
        data = work / "data"
        data.mkdir()
        test = datagen.labelled_examples(seed, words, self.n_test, 7)
        for split, recs in (("train", datagen.labelled_examples(seed, words, self.n_train, 6)),
                            ("test", test)):
            _write_lines(data / f"{split}.jsonl",
                         (json.dumps(r, sort_keys=True) for r in recs))
        manifest = data / "manifest.json"
        benchmarks.write_manifest({"name": "sad-synthetic", "format": "jsonl",
                                   "files": {"train": "train.jsonl", "test": "test.jsonl"}},
                                  manifest)
        ds = benchmarks.holdout_split(benchmarks.load_manifest_dataset(manifest),
                                      benchmarks.SplitSpec(seed=seed))
        counts = [sum(r["label"] == lab for r in test) for lab in {r["label"] for r in test}]
        p = max(counts) / len(test)
        return {"seed": seed, "vocab": work / "vocab.txt", "ckpt": work / "init.ckpt",
                "manifest": manifest, "train_examples": len(ds.splits["train"]) * self.epochs,
                "test_examples": len(test),
                # Weighted F1 of always predicting the most frequent test class.
                "f1_floor": 100.0 * p * 2 * p / (p + 1)}

    def run(self, inp, pdir, tracer, checks):
        common = ["--dataset", inp["manifest"], "--vocab", inp["vocab"]]
        ft, ev, rp = pdir / "ft", pdir / "ev", pdir / "rp"
        t_ft = run_cli(tracer, checks, "finetune", "--from", inp["ckpt"], *common,
                       "--run-dir", ft, "--set", f"train.epochs={self.epochs}",
                       "--set", f"train.lr_head={self.lr}", "--set", f"train.lr_encoder={self.lr}",
                       "--set", f"train.seed={inp['seed']}", "--set", f"split.seed={inp['seed']}")
        t_ev = run_cli(tracer, checks, "evaluate", "--from", ft / "ckpt" / "best.ckpt", *common,
                       "--split", "test", "--model-name", "desk", "--run-dir", ev)
        results = sorted((ev / "results").glob("*.json"))
        t_rp = run_cli(tracer, checks, "report", *results, "--run-dir", rp)
        log = ft / "logs" / "finetune.jsonl"
        f1 = json.loads(results[0].read_text())["f1"]
        return PassResult({"finetune_s": t_ft, "evaluate_s": t_ev, "report_s": t_rp},
                          digest([log, *results, rp / "report.json"]),
                          train_losses(log, "cls_loss"), {"eval_f1": f1})


class TextPrep(Workload):
    name = "text-prep"
    why = ("CLI prep-corpus on JSONL posts with duplicates and malformed lines, build-vocab "
           "to 8192, then encode: pure-Python corpus and tokenizer, no BLAS")
    tail_q = 0.95
    code = "python"
    n_posts = 1000

    def prepare(self, seed, work):
        lines, injected = datagen.posts_jsonl(seed, datagen.lexicon(seed, N_WORDS), self.n_posts)
        _write_lines(work / "posts.jsonl", lines)
        return {"seed": seed, "posts": work / "posts.jsonl",
                "malformed": sum(v for k, v in injected.items() if k != "duplicate"),
                "duplicates": injected["duplicate"]}

    def run(self, inp, pdir, tracer, checks):
        prep, vdir = pdir / "prep", pdir / "vocab"
        t_prep = run_cli(tracer, checks, "prep-corpus", "--input", inp["posts"],
                         "--run-dir", prep)
        tracer.work_starts()
        stats = json.loads((prep / "stats.json").read_text())
        checks.append(("malformed lines skipped", stats["n_malformed_lines"] == inp["malformed"]))
        checks.append(("duplicates removed", stats["n_duplicates_removed"] >= inp["duplicates"]))
        t_vocab = run_cli(tracer, checks, "build-vocab", "--corpus", prep / "corpus.txt",
                          "--run-dir", vdir)
        vocab = tokenizer.Vocab.load(vdir / "vocab.txt")
        sents = corpus.read_sentences(prep / "corpus.txt").sentences
        encoded = []
        t0 = tracer.clock()
        for lo in range(0, len(sents), BATCH):
            tracer.begin_step()
            encoded += [tokenizer.encode(vocab, s, CONFIG.max_positions)
                        for s in sents[lo:lo + BATCH]]
            tracer.end_step()
        t_encode = tracer.clock() - t0
        ids_digest = hashlib.sha256(repr(encoded).encode()).hexdigest()
        return PassResult({"prep_s": t_prep, "vocab_s": t_vocab, "encode_s": t_encode},
                          digest([prep / "corpus.txt", vdir / "vocab.txt"]) + ids_digest,
                          values={"vocab_sha256": vocab.content_hash(), "vocab_size": len(vocab),
                                  "encode_tokens": sum(map(len, encoded))})


WORKLOADS = {w.name: w for w in (PretrainShort(), ContinueLongMixed(), FinetuneEval(), TextPrep())}
