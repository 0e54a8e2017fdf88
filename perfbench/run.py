"""Benchmark of the mlmforge desk pipeline.

    python3 perfbench/run.py --workload pretrain-short --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all                # every workload, untraced then traced

One run is one process. It builds the workload's inputs from the seed,
measures set-up alone a few times, then repeats whole passes of the workload
for about --seconds seconds. It prints every metric by name and unit, then as
its last line one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. A copy of the result, with the machine
facts, goes to perfbench/_work/results/.
"""

import os
import sys

# Fixed before numpy loads: BLAS and mlmforge's eval pool both run on one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MLMFORGE_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

# Set-up reps of one run vary by ±15 % among themselves, so set-up is the
# median of many, and the import the median over several fresh interpreters.
SETUP_REPS = 15
IMPORT_REPS = 7


def spec() -> dict:
    """BENCHMARK.json: the workloads and the metrics each kind of run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# Run in a fresh interpreter: the time to import mlmforge once numpy is loaded.
_TIME_IMPORT = ("import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import mlmforge.cli; "
                "print(time.perf_counter() - t0)")


def import_program() -> float:
    """Import mlmforge from this checkout's src/. Returns the median import
    time over IMPORT_REPS fresh interpreters, since one cold import is too
    noisy to gate on."""
    if not (SRC / "mlmforge" / "__init__.py").is_file():
        print(f"error: no mlmforge sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import mlmforge.cli  # noqa: F401
    if Path(sys.modules["mlmforge"].__file__).resolve().parent != SRC / "mlmforge":
        print("error: mlmforge was imported from outside this checkout", file=sys.stderr)
        sys.exit(2)
    times = []
    for _ in range(IMPORT_REPS):
        out = subprocess.run([sys.executable, "-c", _TIME_IMPORT, str(SRC)],
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def machine_facts(nproc: int) -> dict:
    import numpy as np
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS, "commit": _git_commit(),
            "source_sha256": src.hexdigest()}


# Results may be compared only when every one of these facts is equal.
COMPARABLE_FACTS = ("nproc", "cpu", "python", "numpy", "blas", "blas_version", "blas_threads")


@dataclass
class Pass:
    id: int
    wall: float     # seconds for the whole pass, host-speed samples excluded
    setup: float    # seconds from the pass start to its first step or eval batch
    result: object  # workloads.PassResult


def one_pass(wl, inp, work, tracer, checks, k) -> Pass:
    tracer.new_pass(k)
    pdir = work / f"pass{k}"
    pdir.mkdir()
    t0, c0 = time.perf_counter(), tracer.clock()
    res = wl.run(inp, pdir, tracer, checks)
    wall = tracer.clock() - c0  # host-speed samples are not the pass's work
    shutil.rmtree(pdir)
    return Pass(k, wall, tracer.first_work - t0, res)


def run_passes(wl, inp, work, tracer, checks, seconds, picker) -> list[Pass]:
    """Whole passes until the next one would overrun `seconds`, but at least
    two, and enough steps for ten to lie beyond the tail percentile. Each
    pass runs on the CPU the picker finds least contended just before it."""
    passes = []
    t_start = time.perf_counter()
    while True:
        picker.pin_fastest()
        passes.append(one_pass(wl, inp, work, tracer, checks, len(passes)))
        n_steps = len(tracer.step_ms({p.id for p in passes}))
        if (len(passes) >= 2 and n_steps >= wl.min_steps()
                and time.perf_counter() - t_start + passes[-1].wall > seconds):
            return passes


def traced_passes(wl, inp, work, light, full, checks, seconds, picker) -> list[Pass]:
    """An untraced warm-up pass, then traced and untraced passes in turn, so
    drift on the machine hits both sides of the overhead estimate alike.
    Even pass ids are untraced, odd ones traced."""
    passes = []
    t_start = time.perf_counter()
    while True:
        tracer = full if len(passes) % 2 else light
        picker.pin_fastest()
        with tracer.installed():
            passes.append(one_pass(wl, inp, work, tracer, checks, len(passes)))
        if (len(passes) >= 5 and len(passes) % 2
                and time.perf_counter() - t_start + 2 * passes[-1].wall > seconds):
            return passes


def setup_only(wl, inp, work, tracer, checks) -> list[float]:
    """Set-up time alone: each rep stops at the first step or eval batch."""
    from tracing import SetupDone
    times = []
    for i in range(SETUP_REPS):
        tracer.new_pass(-1 - i, stop_at_work=True)
        pdir = work / f"setup{i}"
        pdir.mkdir()
        t0 = time.perf_counter()
        try:
            wl.run(inp, pdir, tracer, [])
        except SetupDone:
            times.append(tracer.first_work - t0)
        shutil.rmtree(pdir)
    checks.append(("set-up stops at the first step or eval batch", len(times) == SETUP_REPS))
    return times


def loss_end(losses: list[float]) -> float:
    """Mean train loss over the last tenth of the steps (at least one)."""
    tail = losses[-max(1, len(losses) // 10):]
    return sum(tail) / len(tail)


def output_checks(wl, inp, passes, traced_steps, checks) -> tuple[int, int]:
    """Checks on what the passes produced. `traced_steps` maps a pass id to
    the step spans its tracer closed. Returns (steps attempted, steps whose
    loss is not finite); the named checks are appended to `checks`."""
    first = passes[0].result
    for p in passes[1:]:
        checks.append(("outputs byte-identical to the first pass",
                       p.result.digest == first.digest))
    for p in passes:
        if p.result.losses:
            checks.append(("one traced step per logged train loss",
                           traced_steps[p.id] == len(p.result.losses)))
    steps = sum(len(p.result.losses) for p in passes)
    bad = sum(1 for p in passes for x in p.result.losses if not math.isfinite(x))
    ref = json.loads((HERE / "reference.json").read_text())
    if wl.pretrains:
        losses = first.losses
        head = losses[:max(1, len(losses) // 10)]
        checks.append(("loss ends below its start", loss_end(losses) < sum(head) / len(head)))
        r = ref["mlm_loss_end"][wl.name]
        tol = max(4.0 * r["sd"], 0.01 * abs(r["mean"]))
        checks.append(("mlm_loss_end within the seed spread of the reference",
                       abs(loss_end(losses) - r["mean"]) <= tol))
    if "eval_f1" in first.values:
        checks.append(("eval_f1 beats the majority-class floor",
                       first.values["eval_f1"] > inp["f1_floor"]))
    if "vocab_sha256" in first.values:
        checks.append(("vocab reaches the target size", first.values["vocab_size"] == 8192))
        want = ref["vocab_sha256"].get(str(inp["seed"]))
        if want is not None:
            checks.append(("vocab hash equals the reference",
                           first.values["vocab_sha256"] == want))
    return steps, bad


def typical_step_ms(step_rows: list[list[float]]) -> float:
    """The median step time of a pass. Every pass runs the same batches in
    the same order, so each step position first takes its median over the
    passes, then the positions their median. Steps of different widths
    leave gaps between their times (continue-long-mixed), and a plain median
    over all steps would fall into one and be set by the extremes next to it."""
    return statistics.median(statistics.median(col) for col in zip(*step_rows))


def report_metrics(wl, inp, passes, import_s, setups, step_rows, speed) -> dict:
    """Every end-to-end metric that applies to the workload: name -> (value,
    unit, note). `step_rows` holds each pass's step times in ms. Times are
    multiplied, and rates divided, by the host-speed scale (calibrate.py).
    The notes give the raw times."""
    scale = speed.scale()
    timing = {key: scale * statistics.median([p.result.timings[key] for p in passes])
              for key in passes[0].result.timings}
    step_ms = [x for row in step_rows for x in row]
    pct = round(100 * wl.tail_q)
    tail = statistics.quantiles(step_ms, n=100, method="inclusive")[pct - 1]
    setup = import_s + statistics.median(setups)
    wall = statistics.median([p.wall for p in passes])
    p50 = typical_step_ms(step_rows)
    out = {
        "setup_s": (scale * setup, "s", f"raw {setup:.4g} s: median import "
                    f"{import_s:.4f} s + median of {len(setups)} set-ups"),
        "wall_s": (scale * wall, "s", f"raw {wall:.4g} s, median of {len(passes)} passes"),
        "step_ms_p50": (scale * p50, "ms", f"raw {p50:.4g} ms, {len(step_rows[0])} steps "
                        f"x {len(step_rows)} passes"),
        "step_ms_tail": (scale * tail, "ms", f"raw {tail:.4g} ms, p{pct}, n={len(step_ms)}, "
                         f"{sum(x > tail for x in step_ms)} beyond"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
        "host_scale": (scale, "ratio", f"{wl.code} reference, nominal / measured"),
    }
    first = passes[0].result
    for key in ("pretrain_s", "continue_pretrain_s"):
        if key in timing:
            out["pretrain_tok_per_s"] = (inp["train_tokens"] / timing[key], "tok/s",
                                         f"{inp['train_tokens']} non-pad tokens per pass")
    if wl.pretrains:
        out["mlm_loss_end"] = (loss_end(first.losses), "nats", f"{len(first.losses)} steps")
    if "finetune_s" in timing:
        out["finetune_ex_per_s"] = (inp["train_examples"] / timing["finetune_s"], "ex/s",
                                    "validation and checkpointing included")
        out["eval_ex_per_s"] = (inp["test_examples"] / timing["evaluate_s"], "ex/s",
                                "evaluate command, test split")
        out["eval_f1"] = (first.values["eval_f1"], "%", f"floor {inp['f1_floor']:.2f}")
    if "vocab_s" in timing:
        out["vocab_train_s"] = (timing["vocab_s"], "s", "build-vocab command")
        out["encode_tok_per_s"] = (first.values["encode_tokens"] / timing["encode_s"], "tok/s",
                                   "")
    return out


def measure(wl, inp, work, seconds, trace, import_s, picker, started):
    """`started` is the perf_counter reading at the start of the run; an
    untraced run's passes get what is left of `seconds`."""
    from calibrate import HostSpeed
    from tracing import Tracer, layer_metrics
    checks: list[tuple[str, bool]] = []
    if not trace:
        light = Tracer(full=False, speed=HostSpeed(wl.code))
        with light.installed():
            setups = setup_only(wl, inp, work, light, checks)
            passes = run_passes(wl, inp, work, light, checks,
                                seconds - (time.perf_counter() - started), picker)
        setups += [p.setup for p in passes]
        metrics = report_metrics(wl, inp, passes, import_s, setups,
                                 [light.step_ms({p.id}) for p in passes], light.speed)
        spans = None
        traced_steps = {p.id: len(light.step_ms({p.id})) for p in passes}
    else:
        light = Tracer(full=False)
        spans = Tracer(full=True)
        passes = traced_passes(wl, inp, work, light, spans, checks, seconds, picker)
        traced = {p.id for p in passes if p.id % 2}
        metrics, acct = layer_metrics(spans.spans, traced)
        base = [light.step_ms({p.id}) for p in passes if p.id and not p.id % 2]
        metrics["trace.overhead_pct"] = 100.0 * (
            typical_step_ms([spans.step_ms({k}) for k in sorted(traced)])
            / typical_step_ms(base) - 1.0)
        checks.append(("each step holds its calls once, and its children plus self time "
                       "equal the step span",
                       acct["steps"] > 0 and acct["accounted"] == acct["steps"]))
        units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        metrics = {k: (v, units[k], "") for k, v in metrics.items()}
        traced_steps = {p.id: len((spans if p.id % 2 else light).step_ms({p.id}))
                        for p in passes}
    steps, bad = output_checks(wl, inp, passes, traced_steps, checks)
    return metrics, checks, steps, bad, spans


def run_one(args) -> int:
    from calibrate import CpuPicker
    started = time.perf_counter()
    picker = CpuPicker()
    picker.pin_fastest()
    import_s = import_program()
    from workloads import WORKLOADS
    wl = WORKLOADS[args.workload]
    work = WORK / f"{wl.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        inp = wl.prepare(args.seed, work)
        metrics, checks, steps, bad, spans = measure(wl, inp, work, args.seconds, args.trace,
                                                     import_s, picker, started)
    except Exception:
        # The program under test broke: say so in the result rather than only crash.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = steps + len(checks)
    failed = bad + sum(1 for _, ok in checks if not ok)
    for name, ok in checks:
        if not ok:
            print(f"FAILED check: {name}", file=sys.stderr)
    metrics["error_rate"] = (failed / attempted, "ratio",
                             f"{failed} of {attempted} steps, commands and checks failed")
    for name, (value, unit, note) in metrics.items():
        print(f"{wl.name:<20} {name:<46} {value:>14.6g} {unit:<6} {note}")

    facts = machine_facts(len(picker.cpus))
    run_id = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    if spans is not None:
        (WORK / "spans").mkdir(exist_ok=True)
        spans.write(WORK / "spans" / f"{run_id}.jsonl", run_id)
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                           for m in wanted}}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "facts": facts,
              "report": {k: {"value": v, "unit": u, "note": n}
                         for k, (v, u, n) in metrics.items()},
              **summary}
    (WORK / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process; together
    they print every metric by name and unit."""
    code = 0
    for name in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(trace)], check=False)
            code = code or proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced, in child processes")
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
