import re
import subprocess
import sys
from pathlib import Path

import pytest

import mlmforge

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
SRC = Path(mlmforge.__file__).resolve().parents[1]


def digest(src: Path, out: Path) -> list[str]:
    proc = subprocess.run([sys.executable, str(TOOL), str(src), str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out.read_text(encoding="utf-8").splitlines()


@pytest.fixture(scope="module")
def lines(tmp_path_factory):
    return digest(SRC, tmp_path_factory.mktemp("digest") / "digest.txt")


def test_digests_every_output_once(lines):
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    names = [line.split("  ", 1)[1] for line in lines]
    assert len(names) == len(set(names))
    for want in ("tok/vocab", "tok/encode/cold", "tok/encode/warm", "tok/encode/fresh",
                 "init/encoder.tok_emb.value", "init/encoder.layer3.ffn.w2.value",
                 "lib/step/float32/encoder.layer0.ffn.w1.grad", "lib/step/float64/loss",
                 "lib/pretrain/float64/best/encoder.tok_emb.adam_v",
                 "lib/finetune/float32/final/cls.out.w.value", "lib/finetune/float64/log",
                 "cli/pt/ckpt/best.ckpt", "cli/ct/logs/pretrain.jsonl",
                 "cli/ft/config.json", "cli/ev-val/results/val__Dreaddit__validation.json",
                 "cli/rep/report.md"):
        assert want in names, want

