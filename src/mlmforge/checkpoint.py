"""Bit-exact checkpoint format.

Layout: 8-byte magic "MLMFORGE", little-endian uint32 format version,
little-endian uint64 manifest byte length, UTF-8 JSON manifest, then the
raw little-endian tensor blob. The manifest's tensor table lists, in blob
order, (name, dtype, shape, offset, length) with contiguous non-overlapping
offsets.

Adam moments are stored alongside each value tensor (entries "<name>#m"
and "<name>#v") so an interrupted run resumes bitwise identically. Tensors
are stored as float32 regardless of compute mode.

A save writes a temporary file beside the target, syncs it and renames it
over the target, so a failed or interrupted save leaves the previous
checkpoint intact. A load opens the file once and checks the manifest
length and the whole tensor table against the file size, and every
tensor's shape, Adam moments included, against the manifest's
model_config, before reading each tensor straight into its parameter
buffer. A tensor that holds a NaN or an infinity is rejected: training
aborts before it could save one, so such a file is damaged.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

from ._files import JSON_ERRORS, atomic_write, require_file
from .encoder import ModelConfig, param_shapes
from .errors import CheckpointError, ConfigError
from .numerics import ParameterStore

MAGIC = b"MLMFORGE"
FORMAT_VERSION = 1

_STORED_DTYPE = "<f4"


def save_checkpoint(
    store: ParameterStore,
    config: ModelConfig,
    path,
    vocab_hash: str = "",
    extra: dict | None = None,
) -> None:
    arrays = []
    tensors = []
    offset = 0
    for name, p in store.items():
        for suffix, arr in (("", p.value), ("#m", p.adam_m), ("#v", p.adam_v)):
            length = arr.size * np.dtype(_STORED_DTYPE).itemsize
            tensors.append({
                "name": name + suffix,
                "dtype": "float32",
                "shape": list(arr.shape),
                "offset": offset,
                "length": length,
            })
            arrays.append(arr)
            offset += length

    manifest = {
        "format_version": FORMAT_VERSION,
        "model_config": config.as_dict(),
        "vocab_hash": vocab_hash,
        "step": store.step_count,
        "extra": extra or {},
        "tensors": tensors,
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(mbytes)))
        fh.write(mbytes)
        for arr in arrays:
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


def read_manifest(path) -> dict:
    p = require_file(path, "checkpoint", CheckpointError)
    with open(p, "rb") as fh:
        return _read_manifest(fh, p)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _tensor_record(p: Path, index: int, rec) -> tuple[str, tuple, int, int]:
    """Validates one tensor-table record; returns (name, shape, offset, length)."""
    if not isinstance(rec, dict):
        raise CheckpointError(f"{p}: tensor record {index} is not an object")
    name = rec.get("name")
    if not isinstance(name, str):
        raise CheckpointError(f"{p}: tensor record {index} has missing or invalid 'name'")
    for key in ("dtype", "shape", "offset", "length"):
        if key not in rec:
            raise CheckpointError(f"{p}: tensor '{name}' lacks '{key}'")
    if rec["dtype"] != "float32":
        raise CheckpointError(f"{p}: tensor '{name}' has unsupported dtype {rec['dtype']!r}")
    shape = rec["shape"]
    if not isinstance(shape, list) or not all(_is_int(d) and d >= 0 for d in shape):
        raise CheckpointError(f"{p}: tensor '{name}' has invalid shape {shape!r}")
    off, length = rec["offset"], rec["length"]
    if not (_is_int(off) and _is_int(length)):
        raise CheckpointError(
            f"{p}: tensor '{name}' has non-integer offset/length {off!r}/{length!r}"
        )
    return name, tuple(shape), off, length


def _check_shapes(p: Path, config: ModelConfig, shapes: dict[str, tuple]) -> None:
    """The tensors must be exactly those `config` implies, each value tensor
    with its two Adam moments at its shape, with a classifier head of
    n_classes = len(cls.out.b) >= 2 when the checkpoint carries one."""
    n_classes = None
    if "cls.out.b" in shapes:
        head = shapes["cls.out.b"]
        if len(head) != 1 or head[0] < 2:
            raise CheckpointError(
                f"{p}: tensor 'cls.out.b' has shape {head}, not that of a head of >= 2 classes"
            )
        n_classes = head[0]
    # Every layer holds at least one tensor; this bounds the layout built below.
    if config.n_layers > len(shapes):
        raise CheckpointError(f"{p}: model_config has {config.n_layers} layers but the "
                              f"checkpoint holds {len(shapes)} tensors")
    expected = {name + part: shape for name, shape in param_shapes(config, n_classes).items()
                for part in ("", "#m", "#v")}
    for name, shape in shapes.items():
        if name not in expected:
            raise CheckpointError(f"{p}: tensor '{name}' is not part of the model_config")
        if shape != expected[name]:
            raise CheckpointError(f"{p}: tensor '{name}' has shape {shape}, "
                                  f"model_config implies {expected[name]}")
    for name in expected:
        if name not in shapes:
            raise CheckpointError(f"{p}: tensor '{name}' missing for the model_config")


def load_checkpoint(path, expected_vocab_hash: str | None = None):
    """Returns (ParameterStore, manifest dict). Validates magic, version,
    offset table, blob length, the optional vocab-hash pin, every tensor's
    shape against the manifest's model_config, and that every value is
    finite."""
    p = require_file(path, "checkpoint", CheckpointError)
    with open(p, "rb") as fh:
        manifest = _read_manifest(fh, p)
        try:
            config = ModelConfig.from_dict(manifest["model_config"])
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

        blob_len = os.fstat(fh.fileno()).st_size - fh.tell()

        shapes: dict[str, tuple] = {}
        table = []
        running = 0
        for index, rec in enumerate(records):
            name, shape, off, length = _tensor_record(p, index, rec)
            if name in shapes:
                raise CheckpointError(f"{p}: duplicate tensor '{name}'")
            if off != running:
                raise CheckpointError(f"{p}: tensor '{name}' offset {off} != expected {running}")
            expected_len = int(np.prod(shape, dtype=np.int64)) * 4 if shape else 4
            if length != expected_len:
                raise CheckpointError(
                    f"{p}: tensor '{name}' length {length} does not match shape {shape}"
                )
            if off + length > blob_len:
                raise CheckpointError(f"{p}: blob truncated inside tensor '{name}'")
            shapes[name] = shape
            table.append((name, length))
            running += length
        if running != blob_len:
            raise CheckpointError(f"{p}: {blob_len - running} trailing bytes after tensor table")

        _check_shapes(p, config, shapes)
        store = ParameterStore()
        targets: dict[str, np.ndarray] = {}
        for name in [n for n in shapes if "#" not in n]:
            param = store.add(name, np.empty(shapes[name], dtype=np.float32))
            targets.update({name: param.value, name + "#m": param.adam_m,
                            name + "#v": param.adam_v})

        for name, length in table:
            arr = targets[name]
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != length:
                raise CheckpointError(f"{p}: blob truncated inside tensor '{name}'")
            if not np.little_endian:
                arr.byteswap(inplace=True)
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{p}: tensor '{name}' holds a NaN or infinity")
    store.step_count = step
    return store, manifest
