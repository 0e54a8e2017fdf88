"""Regenerate perfbench/reference.json, the outputs the benchmark's checks
compare against. Run it on the commit whose outputs define the reference:

    python3 perfbench/make_reference.py

- mlm_loss_end: mean and standard deviation, over seeds 0-9, of one pass of
  each pretraining workload. Runs accept a value within max(4 sd, 1 %) of the
  mean, so changes that only move float bits still pass.
- vocab_sha256: the text-prep vocabulary hash for seeds 0-31 and the held-out
  seed. WordPiece training uses no floats, so these must match exactly.
- eval_f1: the finetune-eval test F1 and majority-class floor for seeds 0-9,
  for reference only.
"""

import json
import shutil
import statistics
import sys

import run

LOSS_SEEDS = range(10)
VOCAB_SEEDS = list(range(32))


def one_pass(wl, seed: int):
    from tracing import Tracer
    work = run.WORK / f"reference-{wl.name}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inp = wl.prepare(seed, work)
        tracer = Tracer(full=False)
        checks = []
        with tracer.installed():
            tracer.new_pass(0)
            (work / "pass").mkdir()
            result = wl.run(inp, work / "pass", tracer, checks)
        failed = [name for name, ok in checks if not ok]
        if failed:
            sys.exit(f"{wl.name} seed {seed}: failed {failed}")
        return inp, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    run.import_program()
    import datagen
    from workloads import WORKLOADS
    ref = {"mlm_loss_end": {}, "vocab_sha256": {}, "eval_f1": {}}
    for name in ("pretrain-short", "continue-long-mixed"):
        ends = [run.loss_end(one_pass(WORKLOADS[name], s)[1].losses) for s in LOSS_SEEDS]
        ref["mlm_loss_end"][name] = {"mean": statistics.mean(ends), "sd": statistics.stdev(ends),
                                     "seeds": list(LOSS_SEEDS), "values": ends}
        print(name, ref["mlm_loss_end"][name], flush=True)
    for s in LOSS_SEEDS:
        inp, res = one_pass(WORKLOADS["finetune-eval"], s)
        ref["eval_f1"][str(s)] = {"f1": res.values["eval_f1"], "floor": inp["f1_floor"]}
        print("finetune-eval", s, ref["eval_f1"][str(s)], flush=True)
    for s in [*VOCAB_SEEDS, datagen.HELDOUT_SEED]:
        ref["vocab_sha256"][str(s)] = one_pass(WORKLOADS["text-prep"], s)[1].values["vocab_sha256"]
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
