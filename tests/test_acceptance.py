"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with its measured numbers (run with `pytest -s` to see them all).

Budgets are wall-clock upper bounds on the machine class this targets
(plain CPU); every training run here is fully seeded, so reruns reproduce
the same numbers.
"""

import json
import time

import numpy as np
import numpy.testing as npt

from mlmforge.benchmarks import Example, LabeledDataset, make_fixture
from mlmforge.checkpoint import load_checkpoint, save_checkpoint
from mlmforge.cli import main as cli_main
from mlmforge.corpus import CorpusStats, SentenceCorpus
from mlmforge.encoder import (
    EncodedBatch,
    ModelConfig,
    count_params,
    forward_hidden,
    init_classifier,
    init_params,
    mlm_head,
)
from mlmforge.evaluation import (
    ConfusionTable,
    EvalReport,
    compute_metrics,
    evaluate_model,
    render_report,
)
from mlmforge.masking import IGNORE_ID, build_epoch_batches, mask_sequence
from mlmforge.numerics import grad_check
from mlmforge.tokenizer import CLS_ID, MASK_ID, SEP_ID, encode, train_vocab
from mlmforge.training import (
    TrainConfig,
    cls_loss,
    cls_loss_and_backward,
    finetune,
    mlm_eval_loss,
    mlm_loss,
    mlm_loss_and_backward,
    pretrain,
)


def report_line(criterion, detail):
    print(f"\n[criterion {criterion}] PASS - {detail}")


def toy_corpus(n=32):
    nouns = ["cat", "dog", "bird", "tree", "house", "river", "cloud", "stone"]
    verbs = ["sees", "likes", "finds", "follows"]
    sents = [f"the {nouns[i % 8]} {verbs[i % 4]} the {nouns[(i * 3 + 1) % 8]}."
             for i in range(n)]
    return SentenceCorpus(sents, CorpusStats(len(sents), 0, 0))


# --- 1. gradient correctness --------------------------------------------------


def test_criterion_1_gradient_correctness():
    """Full desk-scale encoder + MLM head and + classification head vs
    central differences: 64-bit, h=1e-5, >= 64 coords per tensor,
    max relative error < 1e-4, runtime < 5 min."""
    t0 = time.time()
    config = ModelConfig(dropout=0.0)  # desk 4/128/4/512, vocab 8192, 128 pos
    store = init_params(config, seed=0)
    init_classifier(store, config, 3, seed=1)
    store64 = store.astype(np.float64)

    corpus = [[CLS_ID, 10, 11, 12, 13, 14, SEP_ID],
              [CLS_ID, 20, 21, 22, 23, 24, 25, 26, SEP_ID]]
    from mlmforge.masking import build_batch
    mlm_batch = build_batch(corpus, [0, 1], "static", 0, 7, config.vocab_size, 16)
    cls_batch = EncodedBatch.from_sequences(corpus)
    targets = np.array([0, 2])

    rep_mlm = grad_check(
        lambda s: mlm_loss_and_backward(s, config, mlm_batch),
        store64, h=1e-5, tol=1e-4, coords_per_tensor=64, seed=3,
        loss_fn=lambda s: mlm_loss(s, config, mlm_batch),
    )
    rep_cls = grad_check(
        lambda s: cls_loss_and_backward(s, config, cls_batch, targets),
        store64, h=1e-5, tol=1e-4, coords_per_tensor=64, seed=4,
        loss_fn=lambda s: cls_loss(s, config, cls_batch, targets),
    )
    elapsed = time.time() - t0
    assert rep_mlm.passed, rep_mlm.summary()
    assert rep_cls.passed, rep_cls.summary()
    assert all(t.n_checked == min(64, store64[t.name].value.size)
               for t in rep_mlm.tensors)
    assert elapsed < 300
    report_line(1, f"mlm max_rel_err {rep_mlm.max_rel_err:.2e}, "
                   f"cls max_rel_err {rep_cls.max_rel_err:.2e}, {elapsed:.0f}s")


# --- 2. masking distribution ---------------------------------------------------


def test_criterion_2_masking_distribution():
    """>= 1e5 selected positions: per-sequence selection count follows the
    round rule exactly, replacement mix within 0.80/0.10/0.10 +- 0.01,
    specials never selected; runtime < 1 min."""
    t0 = time.time()
    vocab_size = 1000
    rng_data = np.random.default_rng(0)
    n_mask = n_rand = n_keep = total = 0
    for i in range(7000):
        n_content = int(rng_data.integers(80, 120))
        seq = [CLS_ID, *(int(x) for x in rng_data.integers(5, vocab_size, size=n_content)),
               SEP_ID]
        rng = np.random.default_rng((99, i))
        input_ids, labels = mask_sequence(seq, vocab_size, rng, ratio=0.15)
        sel = np.nonzero(labels != IGNORE_ID)[0]
        assert sel.size == max(1, round(0.15 * n_content))
        assert labels[0] == IGNORE_ID and labels[-1] == IGNORE_ID
        arr = np.asarray(seq)
        for pos in sel:
            assert arr[pos] >= 5
            if input_ids[pos] == MASK_ID:
                n_mask += 1
            elif input_ids[pos] == labels[pos]:
                n_keep += 1
            else:
                assert input_ids[pos] >= 5
                n_rand += 1
        total += sel.size
    elapsed = time.time() - t0
    assert total >= 100_000
    frac_mask, frac_rand, frac_keep = n_mask / total, n_rand / total, n_keep / total
    assert abs(frac_mask - 0.80) < 0.01
    assert abs(frac_rand - 0.10) < 0.01
    assert abs(frac_keep - 0.10) < 0.01
    assert elapsed < 60
    report_line(2, f"{total} selected; mix {frac_mask:.3f}/{frac_rand:.3f}/"
                   f"{frac_keep:.3f}, {elapsed:.0f}s")


# --- 3. static/dynamic contract ------------------------------------------------


def test_criterion_3_static_dynamic_contract():
    """Static masking repeats bitwise across epochs; dynamic masking differs
    on a 100-sentence corpus."""
    rng = np.random.default_rng(5)
    corpus = [[CLS_ID, *(int(x) for x in rng.integers(5, 500, size=24)), SEP_ID]
              for _ in range(100)]

    def epoch(mode, e):
        return list(build_epoch_batches(corpus, mode, e, seed=11, batch_size=10,
                                        max_len=32, vocab_size=500))

    s1, s2 = epoch("static", 1), epoch("static", 2)
    for a, b in zip(s1, s2):
        assert (a.input_ids == b.input_ids).all()
        assert (a.labels == b.labels).all()

    d1, d2 = epoch("dynamic", 1), epoch("dynamic", 2)
    differs = any((a.labels != b.labels).any() for a, b in zip(d1, d2))
    assert differs
    report_line(3, "static epochs bitwise equal; dynamic epochs differ")


# --- 4. memorization ------------------------------------------------------------


def test_criterion_4_memorization():
    """32-sentence toy corpus, desk config: training MLM loss < 0.1 within
    2,000 steps and masked-position argmax recovers >= 99% of original
    tokens, on 3 seeds; runtime < 10 min."""
    t0 = time.time()
    corpus = toy_corpus(32)
    vocab = train_vocab(corpus, target_size=256, min_freq=1)
    results = []
    for seed in (0, 1, 2):
        config = ModelConfig(vocab_size=len(vocab))  # desk defaults incl. dropout 0.1
        ids = [encode(vocab, s, config.max_positions) for s in corpus.sentences]
        params = init_params(config, seed=seed)
        loss = np.inf
        for target in (400, 800, 1200, 1600, 2000):
            cfg = TrainConfig(batch_size=16, max_steps=target, eval_every=10**6,
                              lr_encoder=1e-3, seed=seed, masking_mode="static")
            pretrain(ids, params, config, cfg)
            stream = build_epoch_batches(ids, "static", 0, seed, 16,
                                         config.max_positions, len(vocab))
            loss = mlm_eval_loss(params, config, stream)
            if loss < 0.05:
                break
        assert params.step_count <= 2000
        assert loss < 0.1, f"seed {seed}: loss {loss}"

        correct = total = 0
        for batch in build_epoch_batches(ids, "static", 0, seed, 16,
                                         config.max_positions, len(vocab)):
            sel = batch.labels != IGNORE_ID
            hidden, _ = forward_hidden(params, config, batch.encoded(),
                                       np.flatnonzero(sel.reshape(-1)))
            logits, _ = mlm_head(params, hidden)
            pred = np.argmax(logits, axis=-1)
            correct += int((pred == batch.labels[sel]).sum())
            total += int(sel.sum())
        acc = correct / total
        assert acc >= 0.99, f"seed {seed}: argmax accuracy {acc}"
        results.append((seed, params.step_count, loss, acc))
    elapsed = time.time() - t0
    assert elapsed < 600
    detail = "; ".join(f"seed {s}: {n} steps, loss {l:.4f}, acc {a:.3f}"
                       for s, n, l, a in results)
    report_line(4, f"{detail}; {elapsed:.0f}s")


# --- 5. domain-adaptation direction ---------------------------------------------

DETS = ["the", "a", "my", "this"]
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _random_words(rng, n, lengths=(4, 5, 6)):
    out = set()
    while len(out) < n:
        ln = lengths[rng.integers(0, len(lengths))]
        out.add("".join(LETTERS[j] for j in rng.integers(0, 26, size=ln)))
    return sorted(out)


def _general_sentence(rng, adj, noun, verb):
    d1, d2 = DETS[rng.integers(0, 4)], DETS[rng.integers(0, 4)]
    return (f"{d1} {adj[rng.integers(0, len(adj))]} {noun[rng.integers(0, len(noun))]} "
            f"{verb[rng.integers(0, len(verb))]} {d2} {noun[rng.integers(0, len(noun))]}.")


def _target_sentence(rng, cls, nouns, verbs):
    noun = nouns[cls]
    d1, d2 = DETS[rng.integers(0, 4)], DETS[rng.integers(0, 4)]
    n1, n2 = noun[rng.integers(0, len(noun))], noun[rng.integers(0, len(noun))]
    return f"{d1} {n1} {verbs[rng.integers(0, len(verbs))]} {d2} {n2}."


def _domain_adaptation_seed(seed, tmp_path):
    """One paired comparison: pretrain on general corpus A, continue on
    target corpus B through a saved checkpoint, fine-tune both checkpoints
    on a B-distribution task. Returns median validation F1 per arm over
    five fine-tuning restarts."""
    rng = np.random.default_rng((77, seed))
    words = _random_words(rng, 8 + 12 + 8 + 8 + 32)
    rng.shuffle(words)
    adj_a, words = words[:8], words[8:]
    noun_a, words = words[:12], words[12:]
    verb_a, words = words[:8], words[8:]
    verb_b, words = words[:8], words[8:]
    noun_b = (words[:16], words[16:32])

    corpus_a = [_general_sentence(rng, adj_a, noun_a, verb_a) for _ in range(300)]
    corpus_b = [_target_sentence(rng, i % 2, noun_b, verb_b) for i in range(600)]
    vocab = train_vocab(SentenceCorpus(corpus_a + corpus_b, CorpusStats()),
                        target_size=1024, min_freq=1)
    config = ModelConfig(n_layers=2, hidden=64, n_heads=2, ffn=128,
                         vocab_size=len(vocab), max_positions=32, dropout=0.0)
    ids_a = [encode(vocab, s, config.max_positions) for s in corpus_a]
    ids_b = [encode(vocab, s, config.max_positions) for s in corpus_b]

    n_train, n_val = 16, 160
    examples = []
    for i in range(n_train + n_val):
        c = i % 2
        examples.append(Example(_target_sentence(rng, c, noun_b, verb_b),
                                ["calm", "risk"][c]))
    ds = LabeledDataset("twodomain", examples, {"calm": 0, "risk": 1},
                        {"train": list(range(n_train)),
                         "validation": list(range(n_train, n_train + n_val))})

    params_a = init_params(config, seed=seed)
    pretrain(ids_a, params_a, config,
             TrainConfig(batch_size=16, max_steps=400, eval_every=10**6,
                         lr_encoder=1e-3, seed=seed, masking_mode="dynamic"))
    ckpt = tmp_path / f"general_{seed}.ckpt"
    save_checkpoint(params_a, config, ckpt, vocab.content_hash())
    params_ab, _ = load_checkpoint(ckpt, expected_vocab_hash=vocab.content_hash())
    pretrain(ids_b, params_ab, config,
             TrainConfig(batch_size=16, max_steps=800, eval_every=10**6,
                         lr_encoder=5e-4, seed=seed, masking_mode="dynamic"))

    f_a, f_ab = [], []
    for restart in range(5):
        ft = TrainConfig(batch_size=8, max_steps=1, eval_every=1000,
                         lr_encoder=3e-4, lr_head=1e-2,
                         seed=seed * 31 + restart + 1, epochs=15)
        f_a.append(finetune(ds, params_a.clone(), config, ft, vocab).best_val_f1)
        f_ab.append(finetune(ds, params_ab.clone(), config, ft, vocab).best_val_f1)
    return float(np.median(f_a)), float(np.median(f_ab))


def test_criterion_5_domain_adaptation_direction(tmp_path):
    """Fine-tuning from the continued-on-target checkpoint reaches
    validation F1 >= the general-only checkpoint on >= 4 of 5 seeds;
    runtime < 30 min."""
    t0 = time.time()
    pairs = []
    for seed in range(5):
        fa, fab = _domain_adaptation_seed(seed, tmp_path)
        pairs.append((fa, fab))
    elapsed = time.time() - t0
    wins = sum(fab >= fa for fa, fab in pairs)
    detail = "; ".join(f"seed {i}: general {fa:.1f} vs continued {fab:.1f}"
                       for i, (fa, fab) in enumerate(pairs))
    assert wins >= 4, detail
    assert elapsed < 1800
    report_line(5, f"{wins}/5 seeds; {detail}; {elapsed:.0f}s")


# --- 6. fine-tuning sanity -------------------------------------------------------


def _separable_dataset(seed, n_train=200, n_val=80):
    rng = np.random.default_rng(seed)
    pos = [f"sun{i}" for i in range(10)]
    neg = [f"rain{i}" for i in range(10)]
    fill = [f"plain{i}" for i in range(12)]

    def text(cls):
        own = [(pos if cls == 0 else neg)[j] for j in rng.integers(0, 10, size=3)]
        extra = [fill[j] for j in rng.integers(0, 12, size=4)]
        ws = own + extra
        rng.shuffle(ws)
        return " ".join(ws) + "."

    examples = []
    for i in range(n_train + n_val):
        c = i % 2
        examples.append(Example(text(c), ["bright", "gloomy"][c]))
    return LabeledDataset("separable", examples, {"bright": 0, "gloomy": 1},
                          {"train": list(range(n_train)),
                           "validation": list(range(n_train, n_train + n_val))})


def _logreg_token_count_oracle(ds, vocab, max_len):
    """Independent check that the dataset is linearly separable: plain
    logistic regression by gradient descent on bag-of-token counts."""
    def counts(split):
        X = np.zeros((len(ds.splits[split]), len(vocab)))
        y = np.zeros(len(ds.splits[split]))
        for row, i in enumerate(ds.splits[split]):
            ex = ds.examples[i]
            for t in encode(vocab, ex.text, max_len):
                X[row, t] += 1
            y[row] = ds.label_map[ex.label]
        return X, y

    Xtr, ytr = counts("train")
    Xva, yva = counts("validation")
    w = np.zeros(Xtr.shape[1])
    b = 0.0
    for _ in range(500):
        z = Xtr @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        g = p - ytr
        w -= 0.5 * (Xtr.T @ g) / len(ytr)
        b -= 0.5 * g.mean()
    pred = (Xva @ w + b) > 0
    return (pred == yva).mean()


def test_criterion_6_finetune_sanity():
    """Linearly separable 2-class dataset reaches >= 0.95 validation
    accuracy within 10 epochs; with lr_encoder = 0 the encoder tensors are
    bitwise unchanged. Oracle: token-count logistic regression is 100%."""
    t0 = time.time()
    ds = _separable_dataset(seed=0)
    corpus = SentenceCorpus([ex.text for ex in ds.examples], CorpusStats())
    vocab = train_vocab(corpus, target_size=512, min_freq=1)
    config = ModelConfig(vocab_size=len(vocab), dropout=0.0)  # desk architecture

    oracle_acc = _logreg_token_count_oracle(ds, vocab, config.max_positions)
    assert oracle_acc == 1.0, f"dataset not separable (oracle {oracle_acc})"

    ids = [encode(vocab, s, config.max_positions) for s in corpus.sentences]
    params = init_params(config, seed=0)
    pretrain(ids, params, config,
             TrainConfig(batch_size=16, max_steps=150, eval_every=10**6,
                         lr_encoder=1e-3, seed=0, masking_mode="dynamic"))

    cfg = TrainConfig(batch_size=16, max_steps=1, eval_every=1000,
                      lr_encoder=1e-4, lr_head=5e-3, seed=1, epochs=10)
    res = finetune(ds, params.clone(), config, cfg, vocab)
    table = evaluate_model(res.params, config, ds, "validation", vocab)
    acc = np.trace(table.counts) / table.total()
    assert acc >= 0.95, f"validation accuracy {acc}"

    frozen_cfg = TrainConfig(batch_size=16, max_steps=1, eval_every=1000,
                             lr_encoder=0.0, lr_head=5e-3, seed=1, epochs=3)
    before = {n: params[n].value.copy() for n in params.names()}
    frozen = finetune(ds, params, config, frozen_cfg, vocab)
    for name, value in before.items():
        assert (frozen.final_params[name].value == value).all(), name
    elapsed = time.time() - t0
    report_line(6, f"oracle 1.00, val accuracy {acc:.3f} at epoch "
                   f"{res.best_epoch}, frozen encoder bitwise stable; {elapsed:.0f}s")


# --- 7. metric oracle -------------------------------------------------------------


def _brute_force(table, aggregation):
    pairs = []
    c = table.shape[0]
    for i in range(c):
        for j in range(c):
            pairs.extend([(i, j)] * int(table[i, j]))
    per = []
    for k in range(c):
        tp = sum(1 for t, p in pairs if t == k and p == k)
        fp = sum(1 for t, p in pairs if t != k and p == k)
        fn = sum(1 for t, p in pairs if t == k and p != k)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per.append((prec, rec, f1, tp + fn))
    if aggregation == "macro":
        return [100.0 * sum(x[i] for x in per) / c for i in range(3)]
    total = len(pairs)
    return [100.0 * sum(x[i] * x[3] for x in per) / total for i in range(3)]


def test_criterion_7_metric_oracle():
    """recall/precision/F1 (macro and weighted) match the brute-force
    oracle on 1,000 random confusion tables to 1e-12; the symmetric binary
    fixture reads 93.00/93.00."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(1000):
        c = int(rng.integers(2, 7))
        table = rng.integers(0, 50, size=(c, c))
        if table.sum() == 0:
            table[rng.integers(0, c), rng.integers(0, c)] = 1
        ct = ConfusionTable(table)
        for agg in ("macro", "weighted"):
            m = compute_metrics(ct, agg)
            prec, rec, f1 = _brute_force(table, agg)
            npt.assert_allclose([m.precision, m.recall, m.f1],
                                [prec, rec, f1], atol=1e-12)
        checked += 1
    sym = compute_metrics(ConfusionTable(np.array([[93, 7], [7, 93]])), "weighted")
    assert f"{sym.recall:.2f}" == "93.00"
    assert f"{sym.f1:.2f}" == "93.00"
    report_line(7, f"{checked} random tables match oracle to 1e-12; "
                   f"binary fixture 93.00/93.00")


# --- 8. report fidelity -----------------------------------------------------------

MODELS = ["BERT", "RoBERTa", "BioBERT", "ClinicalBERT", "MentalBERT", "MentalRoBERTa"]

DEPRESSION_RESULTS = {
    "eRisk T1": [(88.53, 88.54), (92.25, 92.25), (79.16, 78.86),
                 (76.25, 75.41), (86.27, 86.20), (93.38, 93.38)],
    "CLPsych": [(64.67, 62.75), (67.67, 66.07), (65.67, 65.50),
                (65.67, 65.30), (64.67, 62.63), (70.33, 69.71)],
    "Depression_Reddit": [(91.13, 90.90), (95.07, 95.11), (91.13, 90.98),
                          (89.41, 89.03), (94.58, 94.62), (94.33, 94.23)],
}

OTHER_RESULTS = {
    "UMD": [(61.63, 58.01), (59.39, 60.26), (57.76, 58.76),
            (58.78, 58.74), (64.08, 58.26), (57.96, 58.58)],
    "T-SID": [(88.44, 88.51), (88.75, 88.76), (86.25, 86.12),
              (85.31, 85.39), (88.65, 88.61), (88.96, 89.01)],
    "SWMH": [(69.78, 70.46), (70.89, 72.03), (67.10, 68.60),
             (67.05, 68.16), (69.87, 71.11), (70.65, 72.16)],
    "SAD": [(62.77, 62.72), (66.86, 67.53), (66.72, 66.71),
            (62.34, 61.25), (67.45, 67.34), (68.61, 68.44)],
    "Dreaddit": [(78.46, 78.26), (80.56, 80.56), (75.52, 74.76),
                 (76.36, 76.25), (80.28, 80.04), (81.82, 81.76)],
}

EXPECTED_BOLD = {
    ("eRisk T1", "recall"): {"MentalRoBERTa"},
    ("eRisk T1", "f1"): {"MentalRoBERTa"},
    ("CLPsych", "recall"): {"MentalRoBERTa"},
    ("CLPsych", "f1"): {"MentalRoBERTa"},
    ("Depression_Reddit", "recall"): {"RoBERTa"},
    ("Depression_Reddit", "f1"): {"RoBERTa"},
    ("UMD", "recall"): {"MentalBERT"},
    ("UMD", "f1"): {"RoBERTa"},
    ("T-SID", "recall"): {"MentalRoBERTa"},
    ("T-SID", "f1"): {"MentalRoBERTa"},
    ("SWMH", "recall"): {"RoBERTa"},
    ("SWMH", "f1"): {"MentalRoBERTa"},
    ("SAD", "recall"): {"MentalRoBERTa"},
    ("SAD", "f1"): {"MentalRoBERTa"},
    ("Dreaddit", "recall"): {"MentalRoBERTa"},
    ("Dreaddit", "f1"): {"MentalRoBERTa"},
}


def _bold_cells(markdown, datasets):
    header = None
    bold = {}
    for line in markdown.splitlines():
        if not line.startswith("|"):
            continue
        cells = [c.strip() for c in line.strip("|").split("|")]
        if header is None:
            header = cells
            continue
        if set(cells[0]) == {"-"} or not cells[0]:
            continue
        model = cells[0]
        for col, cell in zip(header[1:], cells[1:]):
            if cell.startswith("**"):
                ds = col.rsplit(" ", 1)[0]
                metric = "recall" if col.endswith("Rec.") else "f1"
                bold.setdefault((ds, metric), set()).add(model)
    return bold


def test_criterion_8_report_fidelity():
    """Rendering the stored comparison-table numbers bolds exactly the
    per-column best models reported alongside them."""
    for results in (DEPRESSION_RESULTS, OTHER_RESULTS):
        report = EvalReport(aggregation="weighted")
        for m_idx, model in enumerate(MODELS):
            for ds, rows in results.items():
                rec, f1 = rows[m_idx]
                report.add(model, ds, rec, f1)
        md = render_report(report, "markdown")
        bold = _bold_cells(md, list(results))
        for ds in results:
            for metric in ("recall", "f1"):
                assert bold[(ds, metric)] == EXPECTED_BOLD[(ds, metric)], (ds, metric)
    # spot checks called out explicitly
    assert EXPECTED_BOLD[("eRisk T1", "f1")] == {"MentalRoBERTa"}     # 93.38
    assert EXPECTED_BOLD[("Dreaddit", "f1")] == {"MentalRoBERTa"}     # 81.76
    assert EXPECTED_BOLD[("Depression_Reddit", "f1")] == {"RoBERTa"}  # 95.11
    report_line(8, "all 16 bolded cells match the stored comparison tables")


# --- 9. checkpoint integrity -------------------------------------------------------


def test_criterion_9_checkpoint_integrity(tmp_path):
    """save -> load -> save is byte-identical; interrupting a 2-step run
    with a save/load round trip reproduces the uninterrupted run bitwise."""
    config = ModelConfig(n_layers=2, hidden=32, n_heads=2, ffn=64, vocab_size=64,
                         max_positions=16, dropout=0.0)
    corpus = [[CLS_ID, *range(5, 12), SEP_ID], [CLS_ID, *range(12, 20), SEP_ID]]

    def cfg(steps):
        return TrainConfig(batch_size=2, max_steps=steps, eval_every=10**6,
                           lr_encoder=1e-3, seed=0, masking_mode="static")

    params = init_params(config, seed=0)
    pretrain(corpus, params, config, cfg(2))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, config, p1, vocab_hash="v")
    loaded, _ = load_checkpoint(p1)
    save_checkpoint(loaded, config, p2, vocab_hash="v")
    assert p1.read_bytes() == p2.read_bytes()

    interrupted = init_params(config, seed=0)
    pretrain(corpus, interrupted, config, cfg(1))
    mid = tmp_path / "mid.ckpt"
    save_checkpoint(interrupted, config, mid, vocab_hash="v")
    resumed, _ = load_checkpoint(mid)
    pretrain(corpus, resumed, config, cfg(2))
    for name in params.names():
        assert (params[name].value == resumed[name].value).all(), name
        assert (params[name].adam_m == resumed[name].adam_m).all(), name
        assert (params[name].adam_v == resumed[name].adam_v).all(), name
    assert params.step_count == resumed.step_count == 2
    report_line(9, "byte-identical re-save; interrupted == uninterrupted bitwise")


# --- 10. parameter count ------------------------------------------------------------


def test_criterion_10_parameter_count():
    """Base layout (12/768/12/3072, vocab 30,522, 512 positions) within
    +-2% of 110M; desk layout matches the closed form and the actual
    allocation exactly."""
    base_total = count_params(ModelConfig.base())
    assert abs(base_total - 110_000_000) / 110_000_000 < 0.02

    desk = ModelConfig()
    store = init_params(desk, seed=0)
    assert count_params(desk) == sum(p.value.size for _, p in store.items())
    init_classifier(store, desk, 4, seed=1)
    assert count_params(desk, n_classes=4) == sum(p.value.size for _, p in store.items())
    report_line(10, f"base {base_total:,} (110M +-2%); desk closed form exact "
                    f"({count_params(desk):,})")


# --- 11. determinism ----------------------------------------------------------------


def test_criterion_11_cli_determinism(tmp_path):
    """Re-running any command with identical config and seed reproduces
    logs and checkpoints bitwise."""
    posts = tmp_path / "posts.jsonl"
    corpus_words = ["rain", "sleep", "quiet", "tired", "morning", "night"]
    rng = np.random.default_rng(1)
    with open(posts, "w", encoding="utf-8") as fh:
        for i in range(20):
            body = " ".join(corpus_words[int(j)] for j in rng.integers(0, 6, size=6)) + "."
            fh.write(json.dumps({"id": str(i), "body": body}) + "\n")

    fast = ["--set", "train.max_steps=6", "--set", "train.batch_size=8",
            "--set", "train.lr_encoder=0.001", "--set", "train.eval_every=3",
            "--set", "model.n_layers=1", "--set", "model.hidden=16",
            "--set", "model.n_heads=2", "--set", "model.ffn=32",
            "--set", "model.max_positions=32", "--set", "model.dropout=0.0",
            "--set", "vocab.target_size=128", "--set", "vocab.min_freq=1",
            "--set", "train.epochs=1", "--set", "train.lr_head=0.003"]

    assert cli_main(["prep-corpus", "--input", str(posts),
                     "--run-dir", str(tmp_path / "prep")]) == 0
    corpus = tmp_path / "prep" / "corpus.txt"
    assert cli_main(["build-vocab", "--corpus", str(corpus),
                     "--run-dir", str(tmp_path / "vocab"),
                     "--set", "vocab.target_size=128",
                     "--set", "vocab.min_freq=1"]) == 0
    vocab = tmp_path / "vocab" / "vocab.txt"
    manifest = make_fixture("Dreaddit", tmp_path / "data", seed=0)

    for tag in ("x", "y"):
        assert cli_main(["pretrain", "--corpus", str(corpus), "--vocab", str(vocab),
                         "--val-corpus", str(corpus),
                         "--run-dir", str(tmp_path / f"pt_{tag}"), *fast]) == 0
        assert cli_main(["finetune", "--from", str(tmp_path / f"pt_{tag}" / "ckpt" / "last.ckpt"),
                         "--dataset", str(manifest), "--vocab", str(vocab),
                         "--run-dir", str(tmp_path / f"ft_{tag}"), *fast]) == 0
        assert cli_main(["evaluate", "--from", str(tmp_path / f"ft_{tag}" / "ckpt" / "best.ckpt"),
                         "--dataset", str(manifest), "--vocab", str(vocab),
                         "--split", "test", "--model-name", "m",
                         "--run-dir", str(tmp_path / f"ev_{tag}"), *fast]) == 0

    compared = []
    for rel in ("pt/ckpt/last.ckpt", "pt/ckpt/best.ckpt", "pt/logs/pretrain.jsonl",
                "pt/config.json", "ft/ckpt/best.ckpt", "ft/logs/finetune.jsonl"):
        tag_rel = rel.split("/", 1)
        a = (tmp_path / f"{tag_rel[0]}_x" / tag_rel[1]).read_bytes()
        b = (tmp_path / f"{tag_rel[0]}_y" / tag_rel[1]).read_bytes()
        assert a == b, rel
        compared.append(rel)
    ra = sorted((tmp_path / "ev_x" / "results").glob("*.json"))[0].read_bytes()
    rb = sorted((tmp_path / "ev_y" / "results").glob("*.json"))[0].read_bytes()
    assert ra == rb
    compared.append("results json")
    report_line(11, f"{len(compared)} artifacts bitwise identical across reruns")
