import json

import numpy as np
import numpy.testing as npt
import pytest

from mlmforge.benchmarks import Example, LabeledDataset
from mlmforge.encoder import (
    EncodedBatch,
    ModelConfig,
    cls_head,
    forward_hidden,
    init_classifier,
    init_params,
)
from mlmforge.errors import ConfigError, DataError
from mlmforge.evaluation import (
    ConfusionTable,
    EvalReport,
    compute_metrics,
    confusion_table,
    encode_split,
    evaluate_model,
    render_report,
    results_record,
)
from mlmforge.tokenizer import train_vocab
from mlmforge.corpus import CorpusStats, SentenceCorpus


def brute_force_metrics(table: np.ndarray, aggregation: str):
    """Independent oracle: expand the table to (true, pred) pairs and
    recompute precision/recall/F1 from first-principles set counts."""
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
        per.append((100 * prec, 100 * rec, 100 * f1, tp + fn))
    if aggregation == "macro":
        agg = [sum(x[i] for x in per) / c for i in range(3)]
    else:
        total = len(pairs)
        agg = [sum(x[i] * x[3] / total for x in per) for i in range(3)]
    return agg  # [precision, recall, f1]


class TestComputeMetrics:
    def test_symmetric_binary_fixture(self):
        table = ConfusionTable(np.array([[93, 7], [7, 93]]))
        for agg in ("macro", "weighted"):
            m = compute_metrics(table, agg)
            assert f"{m.recall:.2f}" == "93.00"
            assert f"{m.f1:.2f}" == "93.00"

    def test_perfect_predictions(self):
        for c in (2, 3, 7):
            table = ConfusionTable(np.diag(np.arange(1, c + 1) * 3))
            m = compute_metrics(table, "weighted")
            assert m.recall == 100.0
            assert m.f1 == 100.0

    def test_against_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            c = int(rng.integers(2, 6))
            table = rng.integers(0, 40, size=(c, c))
            if table.sum() == 0:
                table[0, 0] = 1
            ct = ConfusionTable(table)
            for agg in ("macro", "weighted"):
                m = compute_metrics(ct, agg)
                prec, rec, f1 = brute_force_metrics(table, agg)
                npt.assert_allclose([m.precision, m.recall, m.f1],
                                    [prec, rec, f1], atol=1e-12)

    def test_macro_equals_weighted_for_equal_support(self):
        table = ConfusionTable(np.array([[8, 1, 1], [2, 7, 1], [3, 0, 7]]))
        macro = compute_metrics(table, "macro")
        weighted = compute_metrics(table, "weighted")
        assert macro.recall == weighted.recall
        assert macro.f1 == weighted.f1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        table = rng.integers(0, 30, size=(4, 4))
        perm = rng.permutation(4)
        permuted = table[np.ix_(perm, perm)]
        for agg in ("macro", "weighted"):
            a = compute_metrics(ConfusionTable(table), agg)
            b = compute_metrics(ConfusionTable(permuted), agg)
            npt.assert_allclose([a.recall, a.f1], [b.recall, b.f1], atol=1e-12)

    def test_empty_table_errors(self):
        with pytest.raises(DataError):
            compute_metrics(ConfusionTable(np.zeros((2, 2), dtype=int)))

    def test_zero_over_zero_is_zero(self):
        # nothing predicted as class 1 and no true class-1 examples
        table = ConfusionTable(np.array([[10, 0], [0, 0]]))
        m = compute_metrics(table, "macro")
        assert m.per_class[1].precision == 0.0
        assert m.per_class[1].recall == 0.0
        assert m.per_class[1].f1 == 0.0


@pytest.fixture(scope="module")
def eval_setup():
    texts = ["calm words here.", "worried words there.", "calm again now.",
             "worried again later."]
    labels = ["low", "high", "low", "high"]
    examples = [Example(t, l) for t, l in zip(texts, labels)]
    ds = LabeledDataset("evaltoy", examples, {"high": 0, "low": 1},
                        {"train": [0, 1], "validation": [0, 1, 2, 3]})
    vocab = train_vocab(SentenceCorpus(texts, CorpusStats()), target_size=64, min_freq=1)
    config = ModelConfig(n_layers=1, hidden=16, n_heads=2, ffn=32,
                         vocab_size=len(vocab), max_positions=16, dropout=0.0)
    params = init_params(config, seed=0)
    init_classifier(params, config, 2, seed=1)
    return ds, vocab, config, params


class TestEvaluateModel:
    def test_constant_logits_tie_break_to_class_zero(self, eval_setup):
        ds, vocab, config, params = eval_setup
        frozen = params.clone()
        for name in ("cls.dense.w", "cls.dense.b", "cls.out.w", "cls.out.b"):
            frozen[name].value[...] = 0.0
        table = evaluate_model(frozen, config, ds, "validation", vocab)
        m = compute_metrics(table, "macro")
        assert m.per_class[0].recall == 100.0
        assert m.per_class[1].recall == 0.0

    def test_total_equals_split_size(self, eval_setup):
        ds, vocab, config, params = eval_setup
        table = evaluate_model(params, config, ds, "validation", vocab)
        assert table.total() == 4

    def test_duplicates_count_twice(self, eval_setup):
        ds, vocab, config, params = eval_setup
        doubled = LabeledDataset(ds.name, ds.examples, ds.label_map,
                                 {"validation": [0, 0]})
        table = evaluate_model(params, config, doubled, "validation", vocab)
        assert table.total() == 2
        row = ds.label_map[ds.examples[0].label]
        assert table.counts[row].sum() == 2
        assert (table.counts[row] % 2 == 0).all()

    def test_empty_split_errors(self, eval_setup):
        ds, vocab, config, params = eval_setup
        empty = LabeledDataset(ds.name, ds.examples, ds.label_map, {"test": []})
        with pytest.raises(DataError):
            evaluate_model(params, config, empty, "test", vocab)

    def test_label_outside_label_map_is_data_error(self, eval_setup):
        ds, vocab, config, params = eval_setup
        # Built directly, without validate(): example 3's label is unmapped.
        examples = ds.examples[:3] + [Example(ds.examples[3].text, "c")]
        broken = LabeledDataset(ds.name, examples, ds.label_map, {"validation": [0, 1, 2, 3]})
        with pytest.raises(DataError, match="'c' not in label map"):
            evaluate_model(params, config, broken, "validation", vocab)

    @pytest.mark.parametrize("batch_size", [1, 3, 32])
    def test_predictions_equal_argmax_of_every_row_path(self, eval_setup, batch_size):
        """confusion_table runs the last layer on [CLS] alone; its
        predictions are those of the classifier on the [CLS] rows of a
        forward pass that runs it on every real token."""
        ds, vocab, config, params = eval_setup
        params = params.astype(np.float64)
        rng = np.random.default_rng(0)
        for name, p in params.items():
            if p.value.ndim == 2:
                p.value[...] = rng.normal(0.0, 0.5, p.value.shape)
        seqs, labels = encode_split(ds, "validation", vocab, config.max_positions)
        seqs = seqs + [s[:2] for s in seqs] + seqs[::-1]
        labels = np.concatenate([labels, labels, labels[::-1]])
        batch = EncodedBatch.from_sequences(seqs)
        real = np.flatnonzero(batch.attention_mask.reshape(-1))
        every, _ = forward_hidden(params, config, batch, real)
        logits, _ = cls_head(params, every[np.searchsorted(real, batch.cls_rows())])
        preds = np.argmax(logits, axis=1)
        assert len(set(preds.tolist())) == 2
        want = ConfusionTable.from_predictions(labels, preds, 2)
        got = confusion_table(params, config, seqs, labels, 2, batch_size)
        assert (got.counts == want.counts).all()

    def test_head_class_count_mismatch(self, eval_setup):
        ds, vocab, config, _ = eval_setup
        params = init_params(config, seed=0)
        init_classifier(params, config, 3, seed=1)
        with pytest.raises(ConfigError, match="classifier head has 3 classes but dataset "
                                              "'evaltoy' has 2"):
            evaluate_model(params, config, ds, "validation", vocab)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_is_config_error(self, eval_setup, batch_size):
        ds, vocab, config, params = eval_setup
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate_model(params, config, ds, "validation", vocab, batch_size=batch_size)


class TestReports:
    def report(self):
        r = EvalReport(aggregation="weighted")
        r.add("base", "taskA", 80.0, 79.5)
        r.add("adapted", "taskA", 85.25, 84.75)
        r.add("base", "taskB", 70.0, 70.0)
        r.add("adapted", "taskB", 65.0, 64.0)
        return r

    def test_best_per_column_bolded(self):
        md = render_report(self.report(), "markdown")
        lines = [l for l in md.splitlines() if l.startswith("|")]
        assert "| adapted | **85.25** | **84.75** | 65.00 | 64.00 |" in lines
        assert "| base | 80.00 | 79.50 | **70.00** | **70.00** |" in lines

    def test_single_model_bolded_everywhere(self):
        r = EvalReport(aggregation="macro")
        r.add("only", "ds", 50.0, 40.0)
        md = render_report(r, "markdown")
        assert "**50.00**" in md and "**40.00**" in md

    def test_aggregation_recorded(self):
        md = render_report(self.report(), "markdown")
        assert "weighted" in md.splitlines()[0]

    def test_json_round_trip(self):
        r = self.report()
        doc = json.loads(render_report(r, "json"))
        assert doc == r.to_dict()
        assert doc == {"aggregation": "weighted", "models": ["base", "adapted"],
                       "datasets": ["taskA", "taskB"], "rows": r.rows}

    def test_bit_stable(self):
        assert render_report(self.report()) == render_report(self.report())

    def test_tie_bolds_all(self):
        r = EvalReport(aggregation="weighted")
        r.add("m1", "d", 50.0, 50.0)
        r.add("m2", "d", 45.0, 50.0)
        md = render_report(r, "markdown")
        assert md.count("**50.00**") == 3
        assert "**45.00**" not in md

    def test_empty_report_errors(self):
        with pytest.raises(DataError):
            render_report(EvalReport(aggregation="weighted"))

    def test_out_of_range_percentage_rejected(self):
        r = EvalReport(aggregation="weighted")
        with pytest.raises(DataError):
            r.add("m", "d", 101.0, 50.0)


class TestResultsRecord:
    def test_contains_primary_and_alternate(self):
        table = ConfusionTable(np.array([[9, 1], [2, 8]]))
        rec = results_record("model", "ds", "test", table, "weighted")
        assert rec["aggregation"] == "weighted"
        assert rec["alternate"]["aggregation"] == "macro"
        assert rec["confusion"] == [[9, 1], [2, 8]]
        assert len(rec["per_class"]) == 2
        m = compute_metrics(table, "weighted")
        assert rec["recall"] == m.recall
