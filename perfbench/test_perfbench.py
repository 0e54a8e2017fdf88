"""Self-tests of the benchmark harness: deterministic generators, metric
names that match BENCHMARK.json, and the tracer's patching and accounting.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import calibrate  # noqa: E402
import datagen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _generate(seed):
    words = datagen.lexicon(seed, 500)
    return {
        "lexicon": words,
        "uniform": datagen.uniform_lengths(seed, 64),
        "long": datagen.long_tailed_lengths(seed, 6, 16),
        "sentences": datagen.sentences(seed, 10, words, [5, 9, 30]),
        "posts": datagen.posts_jsonl(seed, words, 300),
        "labelled": datagen.labelled_examples(seed, words, 50, 6),
    }


def test_generators_are_deterministic_in_the_seed():
    a, b, c = _generate(3), _generate(3), _generate(4)
    for key in a:
        assert a[key] == b[key], key
        assert a[key] != c[key], key


def test_long_tailed_lengths_pad_to_the_same_widths_for_every_seed():
    def widths(seed):
        lengths = datagen.long_tailed_lengths(seed, 10, 16)
        assert all(datagen.LONG_MIN <= n <= datagen.LONG_MAX for n in lengths)
        return [max(lengths[i:i + 16]) for i in range(0, len(lengths), 16)]
    assert widths(0) == widths(1) == widths(datagen.HELDOUT_SEED)


def test_posts_inject_every_defect_kind():
    lines, counts = datagen.posts_jsonl(0, datagen.lexicon(0, 500), 1000)
    assert len(lines) == 1000
    assert all(n > 0 for n in counts.values()), counts


def test_labelled_set_has_nine_classes():
    recs = datagen.labelled_examples(0, datagen.lexicon(0, 500), 400, 6)
    assert {r["label"] for r in recs} == {f"class{k}" for k in range(datagen.N_CLASSES)}


def test_benchmark_json_matches_the_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_untraced_runs_report_every_end_to_end_metric_with_its_unit():
    wl = workloads.WORKLOADS["pretrain-short"]
    res = workloads.PassResult({"pretrain_s": 2.0}, "digest", [9.0, 8.5, 8.0])
    passes = [run.Pass(k, 2.5, 0.1, res) for k in range(2)]
    speed = calibrate.HostSpeed("numeric")
    speed.sample()
    out = run.report_metrics(wl, {"train_tokens": 900}, passes, 0.2, [0.1, 0.12],
                             [[float(x) for x in range(k, k + 30)] for k in (1, 31)], speed)
    for m in BENCH["end_to_end"]:
        assert out[m["name"]][1] == m["unit"], m["name"]
        assert out[m["name"]][0] > 0, m["name"]


def test_typical_step_time_takes_each_position_over_passes_first():
    # A short and a long step; one slow short step must not move the result,
    # as it would move a plain median over all six steps (to 340).
    rows = [[100.0, 500.0], [100.0, 500.0], [180.0, 500.0]]
    assert run.typical_step_ms(rows) == 300.0


def _fake_step(tracer):
    import numpy as np
    from mlmforge.masking import MaskedBatch
    batch = MaskedBatch(np.array([[2, 9, 3, 0]]), np.array([[1, 1, 1, 0]]),
                        np.zeros((1, 4), dtype=np.int64), np.array([[-100, 9, -100, -100]]))
    tracer.begin_step()
    with tracer.span("masking.build_batch"):
        pass
    tracer.spans[-1][5] = tracing._batch_counts((), {}, batch)
    with tracer.span("training.mlm_loss_and_backward"):
        with tracer.span("encoder.mlm_head"):
            pass
    tracer.spans[-1][5] = {"rows": 4}
    with tracer.span("params.adam_step"):
        pass
    tracer.end_step()


def test_layer_metrics_report_every_per_layer_name_and_account_for_steps():
    tracer = tracing.Tracer(full=True)
    tracer.new_pass(0)
    with tracer.span("training.pretrain"):
        for _ in range(3):
            _fake_step(tracer)
    metrics, acct = tracing.layer_metrics(tracer.spans, {0})
    missing = {m["name"] for m in BENCH["per_layer"]} - set(metrics) - {"trace.overhead_pct"}
    assert not missing
    assert acct == {"steps": 3, "accounted": 3}
    assert metrics["masking.pad_frac"] == pytest.approx(0.25)
    assert metrics["masking.label_frac"] == pytest.approx(1 / 3)
    assert metrics["encoder.mlm_head.useful_frac"] == pytest.approx(0.25)


def test_clock_leaves_out_host_speed_samples():
    tracer = tracing.Tracer(full=False, speed=calibrate.HostSpeed("numeric"))
    t0, c0 = tracing.time.perf_counter(), tracer.clock()
    for _ in range(20):
        tracer.speed.sample()
    assert tracer.clock() - c0 < tracing.time.perf_counter() - t0 - 0.9 * tracer.speed.total


def test_a_step_missing_its_optimizer_call_fails_the_accounting_check():
    tracer = tracing.Tracer(full=True)
    tracer.new_pass(0)
    _fake_step(tracer)
    tracer.begin_step()  # a pretraining step that never reaches adam_step
    with tracer.span("masking.build_batch"):
        pass
    with tracer.span("training.mlm_loss_and_backward"):
        pass
    tracer.end_step()
    _, acct = tracing.layer_metrics(tracer.spans, {0})
    assert acct == {"steps": 2, "accounted": 1}


def test_overlapping_children_fail_the_accounting_check():
    tracer = tracing.Tracer(full=True)
    tracer.new_pass(0)
    _fake_step(tracer)
    step = next(s for s in tracer.spans if s[0] == "step")
    kid = next(s for s in tracer.spans if s[0] == "params.adam_step")
    kid[2] = step[2] + 1.0  # a child that outlives its step
    _, acct = tracing.layer_metrics(tracer.spans, {0})
    assert acct == {"steps": 1, "accounted": 0}


def test_installed_patches_every_site_and_restores_it():
    import importlib

    def current():
        out = []
        for module, attr, *_ in tracing.SITES:
            owner = importlib.import_module(module)
            for part in attr.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out

    before = current()
    with tracing.Tracer(full=True).installed():
        during = current()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, current()))
