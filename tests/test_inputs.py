"""Every text input is opened and decoded in one module, `_files`, no
module reads the environment, and a damaged input file either loads or
raises a ForgeError, never another exception."""

import ast
import importlib.util
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmforge import benchmarks, cli, corpus, tokenizer, training
from mlmforge.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from mlmforge.encoder import EncodedBatch, ModelConfig, init_classifier, init_params
from mlmforge.errors import ForgeError
from mlmforge.masking import build_batch
from mlmforge.numerics import ops

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mlmforge"

# Calls that open or probe a file; only `_files.py` may make them.
FILE_CALLS = {"open", "read_text", "read_bytes", "is_file"}


def file_calls(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open":
            yield node
        elif (isinstance(f, ast.Attribute) and f.attr in FILE_CALLS
              and not (isinstance(f.value, ast.Name) and f.value.id == "os")):
            yield node


def is_binary_open(node) -> bool:
    mode = node.args[1] if len(node.args) > 1 else None
    return (isinstance(node.func, ast.Name) and isinstance(mode, ast.Constant)
            and mode.value == "rb")


def test_only_files_module_opens_or_probes_files():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "_files.py":
            continue
        for node in file_calls(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == "checkpoint.py" and is_binary_open(node):
                continue
            offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


# Settings come from the CLI config and the command line only.
ENV_NAMES = {"environ", "environb", "getenv", "getenvb", "putenv"}


def env_reads(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in ENV_NAMES for alias in node.names)):
            yield node


def test_no_module_reads_the_environment():
    offenders = [f"{path.relative_to(SRC)}:{node.lineno}"
                 for path in sorted(SRC.rglob("*.py"))
                 for node in env_reads(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []


def optional_params(tree):
    """Defaulted parameters of every function whose name has no leading
    underscore, nested ones and methods included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[0] != "_":
            yield from node.args.defaults
            yield from (d for d in node.args.kw_defaults if d is not None)


def test_settable_value_count_is_pinned():
    """Settable values = optional public parameters + CLI config keys +
    environment reads. An option lives in `cli.CONFIG_DEFAULTS` or is a
    parameter that a caller outside tests sets; one that is added or
    dropped updates this count (and the ROADMAP) on purpose."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.rglob("*.py"))]
    count = (sum(1 for tree in trees for _ in optional_params(tree)),
             len(cli.CONFIG_DEFAULTS),
             sum(1 for tree in trees for _ in env_reads(tree)))
    assert count == (37, 24, 0)


# Public names that no pipeline code uses, each kept for the reason given.
UNCALLED = {
    "count_params": "pins the ~110M parameters of the paper's base layout",
    "registry": "pins the paper's eight-dataset inventory",
    "grad_check": "the finite-difference oracle of every backward pass",
    "mlm_loss": "the MLM loss that grad_check probes",
    "cls_loss": "the classifier loss that grad_check probes",
}


def references(tree, imports: bool):
    """The names a module uses: names, attribute names and, when `imports`,
    the names it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rpartition(".")[2] for alias in node.names)


def public_definitions():
    """`module::name` of every public top-level function and class in `src/`."""
    return [f"{path.relative_to(SRC)}::{node.name}"
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"]


def test_public_names_are_unique_across_modules():
    """The caller pin below matches bare names, so a name defined in two
    modules would let a caller of one hide the other."""
    names = [name.partition("::")[2] for name in public_definitions()]
    assert sorted({name for name in names if names.count(name) > 1}) == []


def load_tracing():
    """perfbench's `tracing` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("sites", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_public_function_and_class_has_a_pipeline_caller():
    """Every public top-level function and class in `src/` is used by
    `src/` (a package `__init__.py`'s imports are re-exports and do not
    count), by `tools/` or by `perfbench/` code other than its tests, or is
    a `tracing.SITES` attribute. Methods are left out: their names collide
    with other types' (`bytes.decode`, `ParameterStore.items`)."""
    pipeline = [*SRC.rglob("*.py"), *(ROOT / "tools").glob("*.py"),
                *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))]
    used = {name for path in pipeline
            for name in references(ast.parse(path.read_text(encoding="utf-8")),
                                   imports=path.name != "__init__.py")}
    used.update(part for _, attr, *_ in load_tracing().SITES for part in attr.split("."))
    assert [name for name in public_definitions()
            if name.partition("::")[2] not in used | UNCALLED.keys()] == []


def test_every_traced_op_is_called_by_a_training_step(monkeypatch):
    """The caller pin above counts a `tracing.SITES` attribute as used, so an
    op that the pipeline goes round would keep a site that records 0 calls.
    Every `numerics.ops` site must be called by one dropout-on MLM step or
    one dropout-on classifier step."""
    names = sorted({attr for module, attr, *_ in load_tracing().SITES
                    if module == "mlmforge.numerics.ops"})
    calls = dict.fromkeys(names, 0)

    def counted(name, op):
        def call(*args, **kwargs):
            calls[name] += 1
            return op(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(ops, name, counted(name, getattr(ops, name)))
    config = ModelConfig(n_layers=1, hidden=8, n_heads=2, ffn=16, vocab_size=24,
                         max_positions=8, dropout=0.1)
    params = init_params(config, 0)
    init_classifier(params, config, 2, 0)
    seqs = [[2, 6, 7, 8, 9, 3], [2, 10, 11, 12, 3]]
    batch = build_batch(seqs, [0, 1], "static", 0, 7, config.vocab_size, 8)
    training.mlm_loss_and_backward(params, config, batch, rng=np.random.default_rng(0))
    training.cls_loss_and_backward(params, config, EncodedBatch.from_sequences(seqs),
                                   np.array([0, 1]), rng=np.random.default_rng(1))
    assert [name for name in names if calls[name] == 0] == []


# --- byte-mutation fuzzing of every loader --------------------------------------

TINY = ModelConfig(n_layers=1, hidden=8, n_heads=2, ffn=16, vocab_size=12,
                   max_positions=8, dropout=0.0)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """kind -> (path to write the mutated file to, its intact bytes, the byte
    range that mutations touch, loader)."""
    root = tmp_path_factory.mktemp("inputs")
    manifest = benchmarks.make_fixture("Dreaddit", root / "ds", seed=0)
    ckpt = root / "intact.ckpt"
    save_checkpoint(init_params(TINY, 0), TINY, ckpt, vocab_hash="h")
    ckpt_bytes = ckpt.read_bytes()
    header = len(MAGIC) + 4 + 8
    (mlen,) = struct.unpack("<Q", ckpt_bytes[header - 8:header])
    posts = "".join(json.dumps({"id": str(i), "body": f"Post {i} is here. Naïve café?"}) + "\n"
                    for i in range(4)) + "{not json\n"
    texts = {
        "config": json.dumps({"train.max_steps": 50, "corpus.dedup": True,
                              "eval.aggregation": "macro", "model.dropout": 0.1}, indent=2),
        "manifest": manifest.read_text(encoding="utf-8"),
        "dataset jsonl": "".join((manifest.parent / "train.jsonl").read_text(encoding="utf-8")
                                 .splitlines(keepends=True)[:8]),
        "dataset csv": 'text,label\n"hello, world",a\n"two\nlines",b\nplain café,a\n',
        "vocab": "\n".join([*tokenizer.SPECIAL_TOKENS, "rain", "café", "##s", "naïve"]) + "\n",
        "corpus": "It rained all night.\nNaïve café talk!\n\nStill tired.\n",
        "posts": posts,
        "results": json.dumps({"model": "m", "dataset": "d", "aggregation": "weighted",
                               "recall": 50.0, "f1": 40.5}),
    }
    # A record file is read as the CLI reads it: as the one split of a manifest.
    for fmt in ("jsonl", "csv"):
        benchmarks.write_manifest({"name": "d", "format": fmt, "files": {"train": f"d.{fmt}"}},
                                  root / f"d.{fmt}.json")
    cases = {
        "config": ("c.json", lambda p: cli.build_run_config(str(p), [])),
        "manifest": ("ds/mutated.json", benchmarks.load_manifest_dataset),
        "dataset jsonl": ("d.jsonl", lambda p: benchmarks.load_manifest_dataset(f"{p}.json")),
        "dataset csv": ("d.csv", lambda p: benchmarks.load_manifest_dataset(f"{p}.json")),
        "vocab": ("vocab.txt", tokenizer.Vocab.load),
        "corpus": ("corpus.txt", corpus.read_sentences),
        "posts": ("posts.jsonl", lambda p: list(corpus.ingest(p))),
        "results": ("r.json", cli._read_results),
    }
    out = {kind: (root / name, texts[kind].encode("utf-8"), (0, None), load)
           for kind, (name, load) in cases.items()}
    # checkpoint blob bytes are not checksummed yet, so only the header and
    # the manifest are mutated
    out["checkpoint header"] = (root / "m.ckpt", ckpt_bytes, (0, header), load_checkpoint)
    out["checkpoint manifest"] = (root / "m.ckpt", ckpt_bytes, (header, header + mlen),
                                  load_checkpoint)
    return out


def mutate(data: bytes, edits, lo: int, hi: int | None) -> bytes:
    """Applies each (op, position, byte) edit in turn: 'r' replaces, 'i'
    inserts, 'd' deletes the byte at lo + position mod the range length."""
    buf = bytearray(data)
    for op, pos, byte in edits:
        pos = lo + pos % ((len(buf) if hi is None else hi) - lo)
        if op == "r":
            buf[pos] = byte
        elif op == "i":
            buf.insert(pos, byte)
        else:
            del buf[pos]
    return bytes(buf)


EDITS = st.lists(st.tuples(st.sampled_from("rid"), st.integers(0, 2**16), st.integers(0, 255)),
                 min_size=1, max_size=3)


KINDS = ["config", "manifest", "dataset jsonl", "dataset csv", "vocab", "corpus", "posts",
         "results", "checkpoint header", "checkpoint manifest"]


@pytest.mark.parametrize("kind", KINDS)
def test_intact_input_loads(inputs, kind):
    path, data, _, load = inputs[kind]
    path.write_bytes(data)
    load(path)


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=200, deadline=None)
@given(edits=EDITS)
def test_mutated_input_loads_or_raises_forge_error(inputs, kind, edits):
    path, data, (lo, hi), load = inputs[kind]
    path.write_bytes(mutate(data, edits, lo, hi))
    try:
        load(path)
    except ForgeError:
        pass



@pytest.mark.parametrize("text", ["[" * 100_000, '{"text": "a", "label": ' + "1" * 5000 + "}"],
                         ids=["deep nesting", "5000-digit integer"])
@pytest.mark.parametrize("kind", ["config", "manifest", "dataset jsonl", "posts", "results"])
def test_json_too_deep_or_too_long_is_forge_error(inputs, kind, text):
    path, _, _, load = inputs[kind]
    path.write_text(text + "\n", encoding="utf-8")
    try:
        load(path)
    except ForgeError:
        pass
