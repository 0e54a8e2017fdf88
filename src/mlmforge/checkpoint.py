"""Bit-exact checkpoint format.

Layout: 8-byte magic "MLMFORGE", little-endian uint32 format version,
little-endian uint64 manifest byte length, UTF-8 JSON manifest, then the
raw little-endian tensor blob.

The manifest's tensor table is the one its model_config implies
(`_table`): in `param_shapes` order, each value tensor, then its Adam
moments "<name>#m" and "<name>#v" (so an interrupted run resumes bitwise
identically), each a record (name, dtype, shape, offset, length) of a
float32 tensor, back to back. A save refuses a store whose shapes differ
from its config's; a load compares the file's table record by record with
the one its model_config implies, with a classifier head of len(cls.out.b)
classes when the file holds one.

A save writes a temporary file beside the target, syncs it and renames it
over the target, so a failed or interrupted save leaves the previous
checkpoint intact. A load opens the file once and checks the manifest
length, the tensor table and the blob length before it reads each tensor
straight into its parameter buffer. A tensor that holds a NaN or an
infinity is rejected: training aborts before it could save one, so such a
file is damaged.
"""

import itertools
import json
import math
import os
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ._files import JSON_ERRORS, atomic_write, require_file
from .encoder import ModelConfig, param_shapes
from .errors import CheckpointError, ConfigError
from .numerics import ParameterStore

MAGIC = b"MLMFORGE"
FORMAT_VERSION = 1

_STORED_DTYPE = "<f4"
_PARTS = ("", "#m", "#v")  # a value tensor, then its two Adam moments


def _table(shapes: dict[str, tuple]) -> list[dict]:
    """The tensor table of a store with these {name: shape} entries, in
    order: each value tensor, then its "#m" and "#v", float32 back to back."""
    table, offset = [], 0
    for name, shape in shapes.items():
        length = math.prod(shape) * np.dtype(_STORED_DTYPE).itemsize
        for suffix in _PARTS:
            table.append({"name": name + suffix, "dtype": "float32", "shape": list(shape),
                          "offset": offset, "length": length})
            offset += length
    return table


def _first_difference(got: dict, want: dict):
    """The first key, in want's then got's order, that one lacks or maps apart; else None."""
    return next((k for k in {**want, **got} if got.get(k, ...) != want.get(k, ...)), None)


def save_checkpoint(
    store: ParameterStore,
    config: ModelConfig,
    path,
    vocab_hash: str = "",
    extra: dict | None = None,
) -> None:
    n_classes = store["cls.out.b"].value.size if "cls.out.b" in store else None
    shapes = param_shapes(config, n_classes)
    got = {name: p.value.shape for name, p in store.items()}
    name = _first_difference(got, shapes)
    if name is not None:
        raise ConfigError(f"{path}: parameter {name!r} has shape {got.get(name)}, "
                          f"model_config implies {shapes.get(name)}")
    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": asdict(config),
        "vocab_hash": vocab_hash,
        "step": store.step_count,
        "extra": extra or {},
        "tensors": _table(shapes),
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(mbytes)))
        fh.write(mbytes)
        for name in shapes:
            p = store[name]
            for arr in (p.value, p.adam_m, p.adam_v):
                fh.write(np.ascontiguousarray(arr, dtype=_STORED_DTYPE).data)


_HEADER_LEN = len(MAGIC) + 4 + 8  # magic, uint32 version, uint64 manifest length


def _read_header_int(fh, p: Path, fmt: str) -> int:
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise CheckpointError(f"{p}: truncated header")
    return struct.unpack(fmt, raw)[0]


def _read_manifest(fh, p: Path) -> dict:
    """Reads the header and manifest at the start of `fh`, leaving `fh` at
    the tensor blob."""
    head = fh.read(len(MAGIC))
    if head != MAGIC:
        raise CheckpointError(f"{p}: not a checkpoint file (bad magic)")
    version = _read_header_int(fh, p, "<I")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{p}: unsupported format version {version}")
    mlen = _read_header_int(fh, p, "<Q")
    if mlen > os.fstat(fh.fileno()).st_size - _HEADER_LEN:
        raise CheckpointError(f"{p}: truncated manifest")
    try:
        manifest = json.loads(fh.read(mlen).decode("utf-8"))
    except JSON_ERRORS as exc:  # a UnicodeDecodeError is a ValueError too
        raise CheckpointError(f"{p}: corrupt manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{p}: manifest is not a JSON object")
    return manifest


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _expected_table(p: Path, config: ModelConfig, records: list) -> list[dict]:
    """The table `config` implies, with a classifier head of n_classes =
    len(cls.out.b) >= 2 when the file's table holds one."""
    # Every layer holds at least one tensor; this bounds the layout built below.
    if config.n_layers > len(records):
        raise CheckpointError(f"{p}: model_config has {config.n_layers} layers but the "
                              f"checkpoint holds {len(records)} tensors")
    heads = [r.get("shape") for r in records
             if isinstance(r, dict) and r.get("name") == "cls.out.b"]
    n_classes = None
    if heads:
        head = heads[0]
        if not (isinstance(head, list) and len(head) == 1 and _is_int(head[0]) and head[0] >= 2):
            raise CheckpointError(f"{p}: tensor 'cls.out.b' has shape {head}, "
                                  "not that of a head of >= 2 classes")
        n_classes = head[0]
    table = _table(param_shapes(config, n_classes))
    for index, (rec, want) in enumerate(itertools.zip_longest(records, table)):
        if rec == want:
            continue
        name = rec.get("name") if isinstance(rec, dict) else None
        if want is None or name != want["name"]:
            raise CheckpointError(f"{p}: tensor record {index}: {name!r} is not part of the "
                                  f"model_config there; it implies {want and want['name']!r}")
        key = _first_difference(rec, want)
        raise CheckpointError(f"{p}: tensor {name!r} has {key} {rec.get(key)!r}, "
                              f"model_config implies {want.get(key)!r}")
    return table


def load_checkpoint(path, expected_vocab_hash: str | None = None):
    """Returns (ParameterStore, manifest dict). Validates magic, version,
    the optional vocab-hash pin, the tensor table against the one the
    manifest's model_config implies, the blob length, and that every value
    is finite."""
    p = require_file(path, "checkpoint", CheckpointError)
    with open(p, "rb") as fh:
        manifest = _read_manifest(fh, p)
        try:
            config = ModelConfig(**manifest["model_config"])
        except (KeyError, TypeError, ConfigError) as exc:
            raise CheckpointError(f"{p}: manifest missing or invalid model_config") from exc
        if expected_vocab_hash is not None and manifest.get("vocab_hash") != expected_vocab_hash:
            found = str(manifest.get("vocab_hash", ""))[:12]
            raise CheckpointError(
                f"{p}: vocabulary hash mismatch (checkpoint {found}..., "
                f"expected {expected_vocab_hash[:12]}...)"
            )
        records = manifest.get("tensors", [])
        if not isinstance(records, list):
            raise CheckpointError(f"{p}: manifest tensor table is not a list")
        step = manifest.get("step", 0)
        if not _is_int(step) or step < 0:
            raise CheckpointError(f"{p}: manifest has invalid step {step!r}")
        table = _expected_table(p, config, records)

        blob_len = os.fstat(fh.fileno()).st_size - fh.tell()
        for rec in table:
            if rec["offset"] + rec["length"] > blob_len:
                raise CheckpointError(f"{p}: blob truncated inside tensor '{rec['name']}'")
        end = table[-1]["offset"] + table[-1]["length"]
        if end != blob_len:
            raise CheckpointError(f"{p}: {blob_len - end} trailing bytes after tensor table")

        store = ParameterStore()
        for value in table[::len(_PARTS)]:
            param = store.add(value["name"], np.empty(value["shape"], dtype=np.float32))
            for suffix, arr in zip(_PARTS, (param.value, param.adam_m, param.adam_v)):
                name = value["name"] + suffix
                if fh.readinto(arr.reshape(-1).view(np.uint8)) != value["length"]:
                    raise CheckpointError(f"{p}: blob truncated inside tensor '{name}'")
                if not np.little_endian:
                    arr.byteswap(inplace=True)
                if not np.isfinite(arr).all():
                    raise CheckpointError(f"{p}: tensor '{name}' holds a NaN or infinity")
    store.step_count = step
    return store, manifest
