"""Digest every output of a fixed set of seeded runs, to compare two trees.

    python3 tools/output_digest.py SRC_DIR OUT

With SRC_DIR (a checkout's `src/`) first on `sys.path`, this runs, in a
temporary directory:

- `tokenizer.encode` of a fixed set of texts (mixed case, accents,
  punctuation, a word over 100 characters, Cyrillic and CJK) with a
  vocabulary trained on part of them: once with one `Vocab`, again with the
  same `Vocab`, then with a fresh one;
- `encoder.init_params(ModelConfig(), 0)`;
- one MLM training step (forward and backward, dropout on) on the first
  batch of the pretraining corpus below, in float32 and float64;
- a same-seed library `pretrain` (desk layout, vocab 1500, dropout 0.1,
  mixed 4..98-token sentences, 6 steps, validation every 3) and `finetune`
  (SAD-shaped fixture, 2 layers, dropout 0.1, 2 epochs), each in float32
  and float64;
- the CLI chain prep-corpus -> build-vocab -> pretrain (with --val-corpus)
  -> continue-pretrain -> finetune (manifest without a validation split, so
  the holdout runs; 3 epochs, and the best one is not the first) -> evaluate (validation with eval.batch_size=5, and
  test) -> report.

OUT gets one `sha256  name` line for that vocabulary, per pass of encodes,
per initial parameter value, per gradient, the loss and the real
tokens' hidden states of the single step (these show which tensors' float
bits a change moves before training mixes them), per parameter value, Adam
moment, step count and log of the library runs (final and best snapshots),
and per file the CLI chain wrote. Two trees whose digest files are byte-identical gave
the same outputs; `diff` lists the outputs whose bits moved. Run it twice
on one tree to check that reruns are bitwise equal.

Digest both trees at the same BLAS thread count, for example
`OPENBLAS_NUM_THREADS=1 python3 tools/output_digest.py ...` for each: the
thread count alone moves the bits of most lines (1,023 of 1,710 between
one and two OpenBLAS threads), so a diff across thread counts says
nothing about the change.
"""

import contextlib
import hashlib
import io
import json
import logging
import sys
import tempfile
from pathlib import Path

N_WORDS = 1495  # + 5 specials = vocab 1500
SEED = 0


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _store_lines(prefix, store):
    yield _sha(str(store.step_count).encode()), f"{prefix}/step_count"
    for name, p in store.items():
        for part in ("value", "adam_m", "adam_v"):
            yield _sha(getattr(p, part).tobytes()), f"{prefix}/{name}.{part}"


def _log_line(prefix, log):
    return _sha(json.dumps(log, sort_keys=True).encode()), f"{prefix}/log"


def _words(rng, n):
    letters = "abcdefghijklmnopqrstuvwxyz"
    words = set()
    while len(words) < n:
        words.add("".join(letters[i] for i in rng.integers(0, 26, size=rng.integers(3, 9))))
    return sorted(words)


TEXTS = [
    "The RAIN kept falling; I couldn't sleep... again!",
    "Café crème, naïve RÉSUMÉ: déjà vu (2021) #mentalhealth @user",
    "rain, Rain, RAIN! rain-rain?? sleep/SLEEP",
    "Привет, как дела? Я не могу спать, опять.",
    "a" * 101 + " short " + "ab" * 60 + " Cafés",
    "我今天很累。睡不着！ Привет café",
    "Ünïcödé ŠPAÇÉ “quotes” — dashes… and tabs\tand\nlines",
]
TRAIN_TEXTS = 4  # the vocabulary sees no CJK, so those characters are [UNK]


def direct_lines():
    from mlmforge import encoder, tokenizer
    from mlmforge.corpus import CorpusStats, SentenceCorpus

    vocab = tokenizer.train_vocab(SentenceCorpus(TEXTS[:TRAIN_TEXTS], CorpusStats()),
                                  target_size=120, min_freq=1)
    yield _sha(vocab.serialize().encode()), "tok/vocab"
    for tag, v in (("cold", vocab), ("warm", vocab), ("fresh", tokenizer.Vocab(vocab.tokens))):
        ids = [tokenizer.encode(v, t, max_len) for max_len in (8, 64) for t in TEXTS]
        yield _sha(repr(ids).encode()), f"tok/encode/{tag}"

    for name, p in encoder.init_params(encoder.ModelConfig(), SEED).items():
        yield _sha(p.value.tobytes()), f"init/{name}.value"


def library_runs(root: Path):
    import numpy as np
    from mlmforge import benchmarks, encoder, masking, tokenizer, training

    rng = np.random.default_rng(SEED)
    words = _words(rng, N_WORDS)
    vocab = tokenizer.Vocab([*tokenizer.SPECIAL_TOKENS, *words])
    # Sentence lengths 2..96 words, so batches mix short rows with padding.
    sents = [" ".join(words[i] for i in rng.integers(0, N_WORDS, size=rng.integers(2, 97)))
             for _ in range(112)]
    config = encoder.ModelConfig(vocab_size=len(vocab), dropout=0.1)
    ids = [tokenizer.encode(vocab, s, config.max_positions) for s in sents]
    train_ids, val_ids = ids[:96], ids[96:]
    cfg = training.TrainConfig(batch_size=16, max_steps=6, eval_every=3, lr_encoder=1e-3,
                               seed=SEED)

    manifest = benchmarks.make_fixture("SAD", root, seed=SEED)
    dataset = benchmarks.load_manifest_dataset(manifest)
    ft_vocab = tokenizer.Vocab([*tokenizer.SPECIAL_TOKENS, *sorted(
        {w for ex in dataset.examples for w in tokenizer.pretokenize(ex.text)})])
    ft_config = encoder.ModelConfig(n_layers=2, vocab_size=len(ft_vocab), dropout=0.1)
    ft_cfg = training.TrainConfig(batch_size=8, epochs=2, lr_encoder=1e-3, lr_head=3e-3,
                                  seed=SEED)

    for dtype in (np.float32, np.float64):
        tag = np.dtype(dtype).name
        params = encoder.init_params(config, SEED, dtype=dtype)
        batch = masking.build_batch(train_ids, range(16), "static", 0, SEED, len(vocab),
                                    config.max_positions)
        enc = batch.encoded()
        hidden, _ = encoder.forward_hidden(params, config, enc,
                                           np.flatnonzero(enc.attention_mask.reshape(-1)),
                                           rng=np.random.default_rng(SEED))
        yield _sha(hidden.tobytes()), f"lib/step/{tag}/hidden"
        loss = training.mlm_loss_and_backward(params, config, batch,
                                              rng=np.random.default_rng(SEED))
        yield _sha(repr(loss).encode()), f"lib/step/{tag}/loss"
        for name, p in params.items():
            yield _sha(p.grad.tobytes()), f"lib/step/{tag}/{name}.grad"

        params = encoder.init_params(config, SEED, dtype=dtype)
        res = training.pretrain(train_ids, params, config, cfg, val_ids)
        yield from _store_lines(f"lib/pretrain/{tag}/final", res.params)
        yield from _store_lines(f"lib/pretrain/{tag}/best", res.best_params)
        yield _log_line(f"lib/pretrain/{tag}", res.log)

        params = encoder.init_params(ft_config, SEED, dtype=dtype)
        res = training.finetune(dataset, params, ft_config, ft_cfg, ft_vocab)
        yield from _store_lines(f"lib/finetune/{tag}/final", res.final_params)
        yield from _store_lines(f"lib/finetune/{tag}/best", res.params)
        yield _log_line(f"lib/finetune/{tag}", res.log)


SMALL = ["--set", "model.n_layers=2", "--set", "model.hidden=32", "--set", "model.n_heads=2",
         "--set", "model.ffn=64", "--set", "model.max_positions=64",
         "--set", "model.dropout=0.1", "--set", "train.batch_size=8",
         "--set", "train.lr_encoder=0.001", "--set", "train.eval_every=3"]


def cli_chain(root: Path):
    import numpy as np
    from mlmforge import benchmarks
    from mlmforge.cli import main

    def run(*argv):
        code = main([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"output_digest: {argv[0]} exited {code}")

    rng = np.random.default_rng(SEED + 1)
    words = _words(rng, 60)
    root.mkdir()
    posts = root / "posts.jsonl"
    with open(posts, "w", encoding="utf-8") as fh:
        for i in range(60):
            n_sent = int(rng.integers(1, 4))
            body = " ".join(
                " ".join(words[j] for j in rng.integers(0, len(words), size=rng.integers(3, 30)))
                + "." for _ in range(n_sent))
            fh.write(json.dumps({"id": str(i), "subforum": "toy", "body": body}) + "\n")

    run("prep-corpus", "--input", posts, "--run-dir", root / "prep")
    corpus = root / "prep" / "corpus.txt"
    run("build-vocab", "--corpus", corpus, "--run-dir", root / "vocab",
        "--set", "vocab.target_size=300", "--set", "vocab.min_freq=1")
    vocab = root / "vocab" / "vocab.txt"
    run("pretrain", "--corpus", corpus, "--vocab", vocab, "--val-corpus", corpus,
        "--run-dir", root / "pt", *SMALL, "--set", "train.max_steps=6")
    run("continue-pretrain", "--from", root / "pt" / "ckpt" / "last.ckpt", "--corpus", corpus,
        "--vocab", vocab, "--val-corpus", corpus, "--run-dir", root / "ct", *SMALL,
        "--set", "train.max_steps=12")

    manifest = benchmarks.make_fixture("Dreaddit", root / "data", seed=SEED)
    m = json.loads(manifest.read_text(encoding="utf-8"))
    del m["files"]["validation"]
    del m["expected_splits"]["validation"]
    manifest.write_text(json.dumps(m), encoding="utf-8")
    common = ["--dataset", manifest, "--vocab", vocab]
    run("finetune", "--from", root / "ct" / "ckpt" / "last.ckpt", *common,
        "--run-dir", root / "ft", *SMALL, "--set", "train.epochs=3",
        "--set", "train.lr_encoder=0.01", "--set", "train.lr_head=0.01")
    best = root / "ft" / "ckpt" / "best.ckpt"
    run("evaluate", "--from", best, *common, "--split", "validation",
        "--model-name", "val", "--run-dir", root / "ev-val", "--set", "eval.batch_size=5")
    run("evaluate", "--from", best, *common, "--split", "test",
        "--model-name", "test", "--run-dir", root / "ev-test")
    run("report", *sorted((root / "ev-val" / "results").glob("*.json")),
        *sorted((root / "ev-test" / "results").glob("*.json")), "--run-dir", root / "rep")

    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        yield _sha(path.read_bytes()), f"cli/{path.relative_to(root).as_posix()}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1])
    sys.path.insert(0, str(src))
    import mlmforge
    if Path(mlmforge.__file__).resolve().parents[1] != src:
        print(f"output_digest: imported mlmforge from {mlmforge.__file__}, not {src}",
              file=sys.stderr)
        return 2
    logging.disable(logging.WARNING)  # split-size notes about the small fixtures
    with tempfile.TemporaryDirectory(prefix="output-digest-") as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        lines = [*direct_lines(), *library_runs(Path(tmp) / "fixture"),
                 *cli_chain(Path(tmp) / "cli")]
    out.write_text("".join(f"{h}  {name}\n" for h, name in lines), encoding="utf-8")
    print(f"wrote {len(lines)} digests to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
