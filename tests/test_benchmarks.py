import csv
import io
import json
import logging

import numpy as np
import pytest

from mlmforge.benchmarks import (
    Example,
    LabeledDataset,
    SplitSpec,
    holdout_split,
    load_manifest_dataset,
    make_fixture,
    read_manifest,
    registry,
    registry_entry,
    write_manifest,
)
from mlmforge.errors import ConfigError, DataError


def record_text(fmt, records):
    """`records` as JSONL lines, or as CSV rows under a text,label header
    (a missing field is an empty cell)."""
    if fmt == "jsonl":
        return "".join(json.dumps(r) + "\n" for r in records)
    out = io.StringIO()
    writer = csv.DictWriter(out, ["text", "label"], lineterminator="\n")
    writer.writeheader()
    writer.writerows(records)
    return out.getvalue()


def load_records(tmp_path, fmt, text):
    """Load `text` as the one split file of a manifest in format `fmt`."""
    (tmp_path / f"train.{fmt}").write_text(text, encoding="utf-8")
    write_manifest({"name": "d", "format": fmt, "files": {"train": f"train.{fmt}"}},
                   tmp_path / "manifest.json")
    return load_manifest_dataset(tmp_path / "manifest.json")


FORMATS = ["jsonl", "csv"]


class TestRecordFiles:
    """Record files as the CLI reads them: through a manifest, in either
    format."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_label_map_sorted(self, tmp_path, fmt):
        ds = load_records(tmp_path, fmt, record_text(fmt, [
            {"text": "sad post", "label": "depression"},
            {"text": "ok post", "label": "control"},
            {"text": "another", "label": "depression"},
        ]))
        assert ds.label_map == {"control": 0, "depression": 1}
        assert [ex.label for ex in ds.examples] == ["depression", "control", "depression"]
        assert ds.splits == {"train": [0, 1, 2]}

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_quoted_commas(self, tmp_path, fmt):
        text = record_text(fmt, [{"text": "hello, world", "label": "a"},
                                 {"text": "plain", "label": "b"}])
        if fmt == "csv":
            assert text == 'text,label\n"hello, world",a\nplain,b\n'
        ds = load_records(tmp_path, fmt, text)
        assert ds.examples[0].text == "hello, world"
        assert ds.n_classes() == 2

    @pytest.mark.parametrize("fmt, text, match", [
        ("csv", 'text,label\n"' + "x " * 70000 + ",a\nplain,b\n", "invalid CSV"),
        ("jsonl", '{"label": "a", "text": "' + "x " * 70000 + '}\n', "invalid JSON"),
    ])
    def test_unclosed_quote_is_data_error(self, tmp_path, fmt, text, match):
        with pytest.raises(DataError, match=match):
            load_records(tmp_path, fmt, text)

    # A CSV file's header is its line 1.
    @pytest.mark.parametrize("fmt, line", [("jsonl", 3), ("csv", 4)])
    def test_empty_label_error_names_line(self, tmp_path, fmt, line):
        text = record_text(fmt, [
            {"text": "fine", "label": "a"},
            {"text": "fine", "label": "b"},
            {"text": "broken", "label": ""},
        ])
        with pytest.raises(DataError, match=f"train.{fmt}:{line}: missing or empty label"):
            load_records(tmp_path, fmt, text)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_missing_text_error(self, tmp_path, fmt):
        with pytest.raises(DataError, match="text"):
            load_records(tmp_path, fmt, record_text(fmt, [{"label": "a"}]))

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_single_class_rejected(self, tmp_path, fmt):
        with pytest.raises(DataError, match="needs >= 2 classes"):
            load_records(tmp_path, fmt, record_text(fmt, [{"text": "x", "label": "only"}]))


def balanced_dataset(n=100, classes=("neg", "pos")):
    examples = [Example(f"text {i}", classes[i % len(classes)]) for i in range(n)]
    return LabeledDataset(
        "toy", examples,
        {c: i for i, c in enumerate(sorted(classes))},
        {"train": list(range(n))},
    )


class TestHoldoutSplit:
    def test_balanced_two_class_fraction(self):
        ds = holdout_split(balanced_dataset(100), SplitSpec(validation_fraction=0.2, seed=0))
        assert len(ds.splits["train"]) == 80
        assert len(ds.splits["validation"]) == 20
        val_labels = [ds.examples[i].label for i in ds.splits["validation"]]
        assert val_labels.count("pos") == 10
        assert val_labels.count("neg") == 10

    def test_deterministic(self):
        a = holdout_split(balanced_dataset(60), SplitSpec(seed=5))
        b = holdout_split(balanced_dataset(60), SplitSpec(seed=5))
        assert a.splits == b.splits
        c = holdout_split(balanced_dataset(60), SplitSpec(seed=6))
        assert c.splits != a.splits

    def test_class_too_small(self):
        examples = [Example("a", "rare"), Example("b", "common"), Example("c", "common"),
                    Example("d", "common")]
        ds = LabeledDataset("t", examples, {"common": 0, "rare": 1},
                            {"train": [0, 1, 2, 3]})
        with pytest.raises(DataError, match="rare"):
            holdout_split(ds, SplitSpec(validation_fraction=0.5))

    def test_disjoint_and_covering(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(20, 120))
            ds = holdout_split(balanced_dataset(n),
                               SplitSpec(validation_fraction=float(rng.uniform(0.1, 0.4)),
                                          seed=trial))
            train, val = set(ds.splits["train"]), set(ds.splits["validation"])
            assert not (train & val)
            assert train | val == set(range(n))

    def test_proportions_within_one_example(self):
        ds = holdout_split(balanced_dataset(90, ("a", "b", "c")),
                           SplitSpec(validation_fraction=0.25, seed=1))
        val_labels = [ds.examples[i].label for i in ds.splits["validation"]]
        counts = {c: val_labels.count(c) for c in ("a", "b", "c")}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            SplitSpec(seed=-1)

    def test_existing_validation_rejected(self):
        ds = balanced_dataset(10)
        ds.splits["validation"] = [9]
        ds.splits["train"] = list(range(9))
        with pytest.raises(ConfigError):
            holdout_split(ds, SplitSpec())

    def test_untouched_test_split(self):
        ds = balanced_dataset(30)
        ds.splits = {"train": list(range(20)), "test": list(range(20, 30))}
        out = holdout_split(ds, SplitSpec(validation_fraction=0.2, seed=0))
        assert out.splits["test"] == list(range(20, 30))


class TestRegistry:
    def test_eight_entries(self):
        assert len(registry()) == 8

    def test_dreaddit_sizes(self):
        info = registry_entry("Dreaddit")
        assert (info.train, info.validation, info.test) == (2270, 568, 715)

    def test_umd_category_and_classes(self):
        info = registry_entry("UMD")
        assert info.category == "Suicide"
        assert info.n_classes == 3

    def test_row_order(self):
        assert [i.name for i in registry()] == [
            "SWMH", "eRisk18 T1", "Depression_Reddit", "CLPsych15",
            "Dreaddit", "UMD", "T-SID", "SAD",
        ]

    def test_swmh_sizes_round_trip_through_manifest(self, tmp_path):
        info = registry_entry("SWMH")
        manifest = {
            "name": "SWMH",
            "files": {"train": "train.jsonl"},
            "expected_splits": {"train": info.train, "validation": info.validation,
                                "test": info.test},
        }
        path = tmp_path / "manifest.json"
        write_manifest(manifest, path)
        back = read_manifest(path)
        assert back["expected_splits"] == {"train": 34823, "validation": 8706,
                                           "test": 10883}

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            registry_entry("NotADataset")


class TestManifestLoading:
    def test_fixture_round_trip(self, tmp_path):
        mpath = make_fixture("Dreaddit", tmp_path / "dreaddit", seed=0)
        ds = load_manifest_dataset(mpath)
        assert ds.name == "Dreaddit"
        assert ds.n_classes() == registry_entry("Dreaddit").n_classes
        assert set(ds.splits) == {"train", "validation", "test"}
        ds.validate()

    def test_fixture_class_counts_match_registry(self, tmp_path):
        for name in ("SWMH", "UMD", "SAD"):
            mpath = make_fixture(name, tmp_path / name, seed=1)
            ds = load_manifest_dataset(mpath)
            assert ds.n_classes() == registry_entry(name).n_classes

    def test_size_mismatch_warns(self, tmp_path, caplog):
        mpath = make_fixture("Dreaddit", tmp_path / "d", seed=0)
        manifest = read_manifest(mpath)
        manifest["expected_splits"]["train"] = 9999
        write_manifest(manifest, mpath)
        with caplog.at_level(logging.WARNING):
            load_manifest_dataset(mpath)
        assert any("9999" in r.message for r in caplog.records)

    def test_label_set_mismatch_errors(self, tmp_path):
        mpath = make_fixture("Dreaddit", tmp_path / "d", seed=0)
        manifest = read_manifest(mpath)
        manifest["labels"] = ["other", "labels"]
        write_manifest(manifest, mpath)
        with pytest.raises(DataError, match="labels"):
            load_manifest_dataset(mpath)

    def test_missing_split_file_errors(self, tmp_path):
        manifest = {"name": "X", "files": {"train": "absent.jsonl"}}
        path = tmp_path / "m.json"
        write_manifest(manifest, path)
        with pytest.raises(DataError, match="absent"):
            load_manifest_dataset(path)

    @pytest.mark.parametrize("field, value, match", [
        ("name", ["x"], "'name' must be a string"),
        ("files", ["train.jsonl"], "'files' must be an object"),
        ("files", {"train": 5}, "'files' must be an object"),
        ("labels", "pq", "'labels' must be a list of strings"),
        ("labels", ["class0", 1], "'labels' must be a list of strings"),
        ("expected_splits", [1], "'expected_splits'"),
        ("expected_splits", {"train": -1}, "'expected_splits'"),
        ("expected_splits", {"train": True}, "'expected_splits'"),
        ("format", "xml", "unsupported dataset format: 'xml'"),
    ])
    def test_mistyped_field_is_data_error(self, tmp_path, field, value, match):
        mpath = make_fixture("Dreaddit", tmp_path / "d", seed=0)
        manifest = read_manifest(mpath)
        manifest[field] = value
        write_manifest(manifest, mpath)
        with pytest.raises(DataError, match=match):
            load_manifest_dataset(mpath)
