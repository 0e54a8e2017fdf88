"""Recall/F1 computation over confusion tables and comparison-table rendering.

Detection classes here are typically unbalanced, so the default aggregation
is support-weighted; macro is always available and every output records
which aggregation produced it. All metric values are percentages in
[0, 100]; rendering formats them with 2 decimals and bolds the best value
per column.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncodedBatch, check_classifier, cls_head, forward_hidden
from .errors import ConfigError, DataError
from .tokenizer import Vocab, encode

AGGREGATIONS = ("macro", "weighted")


@dataclass
class ConfusionTable:
    """Rows = true class, columns = predicted class."""

    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DataError(f"confusion table must be square, got {c.shape}")
        if (c < 0).any():
            raise DataError("confusion table counts must be non-negative")
        self.counts = c.astype(np.int64)

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def empty(cls, n_classes: int) -> "ConfusionTable":
        return cls(np.zeros((n_classes, n_classes), dtype=np.int64))

    @classmethod
    def from_predictions(cls, y_true, y_pred, n_classes: int) -> "ConfusionTable":
        t = np.asarray(y_true, dtype=np.int64)
        p = np.asarray(y_pred, dtype=np.int64)
        if t.shape != p.shape:
            raise DataError("y_true and y_pred must have the same length")
        table = cls.empty(n_classes)
        np.add.at(table.counts, (t, p), 1)
        return table


@dataclass
class ClassMetrics:
    index: int
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class Metrics:
    aggregation: str
    precision: float
    recall: float
    f1: float
    per_class: list[ClassMetrics]


def check_aggregation(aggregation: str) -> None:
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")


def check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ConfigError(f"evaluation batch_size must be >= 1, got {batch_size}")


def compute_metrics(table: ConfusionTable, aggregation: str = "weighted") -> Metrics:
    """Per-class precision/recall/F1 with 0/0 defined as 0, plus the
    requested aggregate. Values are percentages."""
    check_aggregation(aggregation)
    total = table.total()
    if total == 0:
        raise DataError("cannot compute metrics for an empty confusion table")
    counts = table.counts
    tp = np.diag(counts).astype(np.float64)
    support = counts.sum(axis=1).astype(np.float64)
    predicted = counts.sum(axis=0).astype(np.float64)

    fractions = []
    per_class = []
    for k in range(table.n_classes):
        prec = tp[k] / predicted[k] if predicted[k] > 0 else 0.0
        rec = tp[k] / support[k] if support[k] > 0 else 0.0
        f1 = 2.0 * prec * rec / (prec + rec) if (prec + rec) > 0 else 0.0
        fractions.append((prec, rec, f1))
        per_class.append(ClassMetrics(k, 100.0 * prec, 100.0 * rec, 100.0 * f1,
                                      int(support[k])))
    # Aggregate in fraction space and scale once, so e.g. perfect
    # predictions come out as exactly 100.0. Equal supports route through
    # the macro path so both aggregations agree bit-for-bit in that case.
    if aggregation == "macro" or support.min() == support.max():
        agg = [100.0 * float(np.mean([f[i] for f in fractions])) for i in range(3)]
    else:
        agg = [
            100.0 * float(np.sum(support * [f[i] for f in fractions]) / total)
            for i in range(3)
        ]
    return Metrics(aggregation, agg[0], agg[1], agg[2], per_class)


def encode_split(dataset, split: str, vocab: Vocab, max_len: int):
    """(token sequences, class indices) of one split, in manifest order."""
    seqs, labels = [], []
    for i in dataset.splits.get(split, []):
        ex = dataset.examples[i]
        if ex.label not in dataset.label_map:
            raise DataError(f"label {ex.label!r} not in label map of dataset {dataset.name!r}")
        seqs.append(encode(vocab, ex.text, max_len))
        labels.append(dataset.label_map[ex.label])
    return seqs, np.asarray(labels, dtype=np.int64)


def evaluate_model(params, config, dataset, split: str, vocab: Vocab,
                   batch_size: int = 32) -> ConfusionTable:
    """Eval-mode forward over the split in manifest order; argmax predictions
    (ties toward the lower class index)."""
    check_batch_size(batch_size)
    if not dataset.splits.get(split):
        raise DataError(f"dataset {dataset.name!r} has no examples in split {split!r}")
    n_classes = dataset.n_classes()
    check_classifier(params, n_classes, f"dataset {dataset.name!r}")
    seqs, labels = encode_split(dataset, split, vocab, config.max_positions)
    return confusion_table(params, config, seqs, labels, n_classes, batch_size)


def confusion_table(params, config, seqs, labels, n_classes: int,
                    batch_size: int = 32) -> ConfusionTable:
    """The classifier's confusion table on already-encoded sequences."""
    preds = np.empty(len(seqs), dtype=np.int64)
    for lo in range(0, len(seqs), batch_size):
        batch = EncodedBatch.from_sequences(seqs[lo : lo + batch_size])
        cls_vectors, _ = forward_hidden(params, config, batch, batch.cls_rows())
        logits, _ = cls_head(params, cls_vectors)
        preds[lo : lo + batch_size] = np.argmax(logits, axis=1)
    return ConfusionTable.from_predictions(labels, preds, n_classes)


# --- comparison reports -----------------------------------------------------------


@dataclass
class EvalReport:
    """model -> dataset -> {"recall": pct, "f1": pct}, insertion-ordered."""

    aggregation: str
    rows: dict[str, dict[str, dict[str, float]]] = field(default_factory=dict)

    def add(self, model: str, dataset: str, recall: float, f1: float) -> None:
        for v in (recall, f1):
            if not 0.0 <= v <= 100.0:
                raise DataError(f"metric {v} outside [0, 100]")
        cells = self.rows.setdefault(model, {})
        if dataset in cells:
            raise DataError(f"two results for model {model!r} on dataset {dataset!r}; "
                            "give each evaluation its own --model-name")
        cells[dataset] = {"recall": recall, "f1": f1}

    def model_names(self) -> list[str]:
        return list(self.rows)

    def dataset_names(self) -> list[str]:
        names: list[str] = []
        for per_model in self.rows.values():
            for ds in per_model:
                if ds not in names:
                    names.append(ds)
        return names

    def to_dict(self) -> dict:
        return {
            "aggregation": self.aggregation,
            "models": self.model_names(),
            "datasets": self.dataset_names(),
            "rows": self.rows,
        }


def _best_per_column(report: EvalReport):
    """(dataset, metric) -> set of models holding the column maximum."""
    best: dict[tuple[str, str], set[str]] = {}
    for ds in report.dataset_names():
        for metric in ("recall", "f1"):
            cells = {
                m: report.rows[m][ds][metric]
                for m in report.model_names()
                if ds in report.rows[m]
            }
            if not cells:
                continue
            top = max(cells.values())
            best[(ds, metric)] = {m for m, v in cells.items() if v == top}
    return best


def render_report(report: EvalReport, fmt: str = "markdown") -> str:
    """Markdown comparison table (Rec./F1 per dataset, best per column in
    bold) or the JSON form carrying raw numbers. Bit-stable for equal input."""
    if not report.rows or not report.dataset_names():
        raise DataError("report needs at least one model and one dataset")
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt != "markdown":
        raise ConfigError(f"unsupported report format: {fmt!r}")

    datasets = report.dataset_names()
    header = ["Model"]
    for ds in datasets:
        header += [f"{ds} Rec.", f"{ds} F1"]
    lines = [
        f"_aggregation: {report.aggregation}_",
        "",
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    best = _best_per_column(report)
    for model in report.model_names():
        row = [model]
        for ds in datasets:
            cell = report.rows[model].get(ds)
            for metric in ("recall", "f1"):
                if cell is None:
                    row.append("")
                    continue
                text = f"{cell[metric]:.2f}"
                if model in best.get((ds, metric), ()):
                    text = f"**{text}**"
                row.append(text)
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def results_record(model: str, dataset: str, split: str, table: ConfusionTable,
                   aggregation: str = "weighted") -> dict:
    """The persisted per-evaluation JSON record; the alternate aggregation
    is always carried alongside the primary one."""
    primary = compute_metrics(table, aggregation)
    other = "macro" if aggregation == "weighted" else "weighted"
    alt = compute_metrics(table, other)
    return {
        "model": model,
        "dataset": dataset,
        "split": split,
        "aggregation": aggregation,
        "recall": primary.recall,
        "f1": primary.f1,
        "per_class": [
            {"class": c.index, "precision": c.precision, "recall": c.recall,
             "f1": c.f1, "support": c.support}
            for c in primary.per_class
        ],
        "confusion": table.counts.tolist(),
        "alternate": {"aggregation": other, "recall": alt.recall, "f1": alt.f1},
    }
