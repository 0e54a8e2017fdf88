"""Classification dataset loading, label maps, deterministic holdout splits.

Canonical record format: JSONL {"text": str, "label": str}; a CSV adapter
(columns text,label) is provided. The registry mirrors the eight-benchmark
inventory (category, platform, class count, split sizes) used for manifest
validation. The restricted shared-task corpora are never bundled:
synthetic fixtures with the same class counts stand in, and manifests
point at locally obtained data.
"""

import csv
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._files import JSON_ERRORS, atomic_write, open_text, read_json_object
from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)


@dataclass
class Example:
    text: str
    label: str


@dataclass
class LabeledDataset:
    name: str
    examples: list[Example]
    label_map: dict[str, int]
    splits: dict[str, list[int]] = field(default_factory=dict)

    def n_classes(self) -> int:
        return len(self.label_map)

    def validate(self) -> None:
        seen: set[int] = set()
        for name, idx in self.splits.items():
            s = set(idx)
            if len(s) != len(idx):
                raise DataError(f"split {name!r} repeats indices")
            if seen & s:
                raise DataError(f"split {name!r} overlaps another split")
            seen |= s
        if seen and (min(seen) < 0 or max(seen) >= len(self.examples)):
            raise DataError("split indices out of range")
        if self.n_classes() < 2:
            raise DataError(f"dataset {self.name!r} needs >= 2 classes")
        if sorted(self.label_map.values()) != list(range(self.n_classes())):
            raise DataError("class indices must be contiguous from 0")
        for ex in self.examples:
            if ex.label not in self.label_map:
                raise DataError(f"label {ex.label!r} missing from label map")


@dataclass
class SplitSpec:
    validation_fraction: float = 0.2
    seed: int = 0
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


def _build_label_map(labels) -> dict[str, int]:
    return {lab: i for i, lab in enumerate(sorted(set(labels)))}


def _read_records(path, fmt: str) -> list[Example]:
    if fmt == "jsonl":
        return _read_jsonl_records(path)
    if fmt == "csv":
        return _read_csv_records(path)
    raise DataError(f"unsupported dataset format: {fmt!r}")


def _read_jsonl_records(path) -> list[Example]:
    out = []
    with open_text(path, "dataset") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except JSON_ERRORS as exc:
                raise DataError(
                    f"{path}:{lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(rec, dict):
                raise DataError(f"{path}:{lineno}: record is not an object")
            out.append(_record_to_example(rec, f"{path}:{lineno}"))
    return out


def _read_csv_records(path) -> list[Example]:
    out = []
    with open_text(path, "dataset", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or not {"text", "label"} <= set(reader.fieldnames):
                raise DataError(f"{path}: CSV needs a header with 'text' and 'label' columns")
            for rec in reader:
                out.append(_record_to_example(rec, f"{path}:{reader.line_num}"))
        except csv.Error as exc:  # e.g. an unclosed quote that runs past the field limit
            raise DataError(f"{path}:{reader.line_num}: invalid CSV ({exc})") from exc
    return out


def _record_to_example(rec: dict, where: str) -> Example:
    text = rec.get("text")
    label = rec.get("label")
    if not isinstance(text, str) or not text.strip():
        raise DataError(f"{where}: missing or empty text field")
    if not isinstance(label, str) or not label.strip():
        raise DataError(f"{where}: missing or empty label field")
    return Example(text=text, label=label)


def holdout_split(dataset: LabeledDataset, spec: SplitSpec) -> LabeledDataset:
    """Move a deterministic validation sample out of train; test untouched.

    Moves round(fraction * group size), minimum 1, from each group: each
    class in stratified mode, else the whole train split as one group.
    Resulting index lists are ascending.
    """
    if dataset.splits.get("validation"):
        raise ConfigError(f"dataset {dataset.name!r} already has a validation split")
    train_idx = dataset.splits.get("train", [])
    if not train_idx:
        raise DataError(f"dataset {dataset.name!r} has no train examples to split")

    groups: dict[str, list[int]] = {}
    for i in train_idx:
        groups.setdefault(dataset.examples[i].label if spec.stratified else "", []).append(i)
    rng = np.random.default_rng(spec.seed)
    val: list[int] = []
    for label in sorted(groups):
        idx = groups[label]
        k = max(1, round(spec.validation_fraction * len(idx)))
        if len(idx) - k < 1:
            group = f"class {label!r}" if spec.stratified else "the train split"
            raise DataError(f"{group} has {len(idx)} train examples, too few to hold out {k}")
        perm = rng.permutation(len(idx))
        val.extend(idx[j] for j in perm[:k])

    val_set = set(val)
    splits = dict(dataset.splits)
    splits["train"] = sorted(i for i in train_idx if i not in val_set)
    splits["validation"] = sorted(val)
    out = LabeledDataset(dataset.name, dataset.examples, dict(dataset.label_map), splits)
    out.validate()
    return out


# --- benchmark inventory ------------------------------------------------------


@dataclass(frozen=True)
class DatasetInfo:
    name: str
    category: str
    platform: str
    n_classes: int
    train: int
    validation: int
    test: int


_REGISTRY = (
    DatasetInfo("SWMH", "Assorted", "Reddit", 5, 34823, 8706, 10883),
    DatasetInfo("eRisk18 T1", "Depression", "Reddit", 2, 1533, 658, 619),
    DatasetInfo("Depression_Reddit", "Depression", "Reddit", 2, 1004, 431, 406),
    DatasetInfo("CLPsych15", "Depression", "Reddit", 2, 457, 197, 300),
    DatasetInfo("Dreaddit", "Stress", "Reddit", 2, 2270, 568, 715),
    DatasetInfo("UMD", "Suicide", "Reddit", 3, 993, 249, 490),
    DatasetInfo("T-SID", "Suicide", "Twitter", 2, 3072, 768, 960),
    DatasetInfo("SAD", "Stress", "SMS-like", 9, 5548, 617, 685),
)


def registry() -> list[DatasetInfo]:
    """Static inventory of the eight benchmarks."""
    return list(_REGISTRY)


def registry_entry(name: str) -> DatasetInfo:
    for info in _REGISTRY:
        if info.name == name:
            return info
    raise ConfigError(f"unknown benchmark name: {name!r}")


# --- manifests ------------------------------------------------------------------


_SPLITS = ("train", "validation", "test")


def _is_count(n) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def read_manifest(path) -> dict:
    """A dataset manifest: `name` a string, `files` an object of file names,
    and, when present, `labels` a list of strings and `expected_splits` an
    object of non-negative counts. `files` and `expected_splits` name only
    the splits train, validation and test, each by a non-empty file name."""
    p = Path(path)
    manifest = read_json_object(p, "dataset manifest")
    files = manifest.get("files")
    labels = manifest.get("labels")
    expected = manifest.get("expected_splits")
    if not isinstance(manifest.get("name"), str):
        raise DataError(f"{p}: manifest 'name' must be a string")
    if not (isinstance(files, dict) and all(isinstance(f, str) for f in files.values())):
        raise DataError(f"{p}: manifest 'files' must be an object of file names")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise DataError(f"{p}: manifest 'labels' must be a list of strings")
    if expected is not None and not (isinstance(expected, dict)
                                     and all(_is_count(n) for n in expected.values())):
        raise DataError(f"{p}: manifest 'expected_splits' must map splits to counts >= 0")
    for key, splits in (("files", files), ("expected_splits", expected or {})):
        unknown = sorted(set(splits) - set(_SPLITS))
        if unknown:
            raise DataError(f"{p}: manifest '{key}' names unknown split {unknown[0]!r} "
                            f"(splits are {', '.join(_SPLITS)})")
    empty = [split for split in _SPLITS if files.get(split) == ""]
    if empty:
        raise DataError(f"{p}: manifest 'files' gives split {empty[0]!r} an empty file name")
    return manifest


def write_manifest(manifest: dict, path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2, ensure_ascii=False) + "\n")


def load_manifest_dataset(path) -> LabeledDataset:
    """Load the splits a manifest names, relative to the manifest location.

    Warns when actual split sizes differ from the manifest declaration or
    from the registry row with the same name, and when the manifest
    declares a split that `files` does not list.
    """
    p = Path(path)
    manifest = read_manifest(p)
    fmt = manifest.get("format", "jsonl")
    examples: list[Example] = []
    splits: dict[str, list[int]] = {}
    for split in _SPLITS:
        fname = manifest["files"].get(split)
        if fname is None:
            continue
        recs = _read_records(p.parent / fname, fmt)
        start = len(examples)
        examples.extend(recs)
        splits[split] = list(range(start, len(examples)))

    if not examples:
        raise DataError(f"{p}: manifest names no split files")
    label_map = _build_label_map(ex.label for ex in examples)
    declared = manifest.get("labels")
    if declared is not None and sorted(declared) != sorted(label_map):
        raise DataError(
            f"{p}: declared labels {sorted(declared)} != labels found {sorted(label_map)}"
        )

    expected = manifest.get("expected_splits") or {}
    for split in _SPLITS:
        want = expected.get(split)
        if want is None:
            continue
        if split not in splits:
            logger.warning("%s: manifest declares split %s (%d examples) but 'files' lists "
                           "no file for it", manifest["name"], split, want)
        elif want != len(splits[split]):
            logger.warning(
                "%s: split %s has %d examples, manifest declares %d",
                manifest["name"], split, len(splits[split]), want,
            )
    try:
        info = registry_entry(manifest["name"])
    except ConfigError:
        info = None
    if info is not None:
        for split, declared_n in (("train", info.train), ("validation", info.validation),
                                  ("test", info.test)):
            if split in splits and len(splits[split]) != declared_n:
                logger.warning(
                    "%s: split %s has %d examples, registry declares %d",
                    manifest["name"], split, len(splits[split]), declared_n,
                )
    ds = LabeledDataset(manifest["name"], examples, label_map, splits)
    ds.validate()
    return ds


# --- synthetic fixtures ----------------------------------------------------------

_FIXTURE_FILLERS = (
    "today", "again", "really", "about", "things", "still", "keeps", "lately",
    "nothing", "always", "trying", "maybe", "around", "people", "every", "night",
)


def make_fixture(name: str, out_dir, seed: int = 0) -> Path:
    """Write a miniature synthetic dataset shaped like a registry row (same
    class count) plus its manifest. Returns the manifest path."""
    c = registry_entry(name).n_classes
    sizes = (max(6 * c, 24), max(2 * c, 8), max(2 * c, 8))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    labels = [f"class{k}" for k in range(c)]
    slug = "".join(ch for ch in name.lower() if ch.isalnum())[:8]
    pools = {
        lab: [f"{slug}{k}word{j}" for j in range(6)] for k, lab in enumerate(labels)
    }

    files = {}
    for split, n in zip(_SPLITS, sizes):
        path = out / f"{split}.jsonl"
        with atomic_write(path) as fh:
            for i in range(n):
                lab = labels[i % c]
                own = [pools[lab][int(j)] for j in rng.integers(0, 6, size=4)]
                fill = [_FIXTURE_FILLERS[int(j)]
                        for j in rng.integers(0, len(_FIXTURE_FILLERS), size=4)]
                words = own + fill
                rng.shuffle(words)
                fh.write(json.dumps({"label": lab, "text": " ".join(words) + "."},
                                    sort_keys=True) + "\n")
        files[split] = path.name

    manifest = {
        "name": name,
        "format": "jsonl",
        "files": files,
        "labels": labels,
        "expected_splits": dict(zip(_SPLITS, sizes)),
    }
    mpath = out / "manifest.json"
    write_manifest(manifest, mpath)
    return mpath
