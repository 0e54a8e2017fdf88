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
checkpoint intact. A load validates the whole tensor table against the
file size before reading each tensor straight into its parameter buffer.
"""

import json
import os
import struct
from pathlib import Path

import numpy as np

from ._files import atomic_write
from .encoder import ModelConfig
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


def _read_header_int(fh, p: Path, fmt: str) -> int:
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise CheckpointError(f"{p}: truncated header")
    return struct.unpack(fmt, raw)[0]


def read_manifest(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise CheckpointError(f"cannot read checkpoint file: {p}")
    with open(p, "rb") as fh:
        head = fh.read(len(MAGIC))
        if head != MAGIC:
            raise CheckpointError(f"{p}: not a checkpoint file (bad magic)")
        version = _read_header_int(fh, p, "<I")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{p}: unsupported format version {version}")
        mlen = _read_header_int(fh, p, "<Q")
        mbytes = fh.read(mlen)
        if len(mbytes) != mlen:
            raise CheckpointError(f"{p}: truncated manifest")
        try:
            manifest = json.loads(mbytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"{p}: corrupt manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{p}: manifest is not a JSON object")
    return manifest


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


def load_checkpoint(
    path,
    expected_config: ModelConfig | None = None,
    expected_vocab_hash: str | None = None,
):
    """Returns (ParameterStore, manifest dict). Validates magic, version,
    offset table, blob length, and optional config / vocab-hash pins."""
    p = Path(path)
    manifest = read_manifest(p)
    try:
        config = ModelConfig.from_dict(manifest["model_config"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointError(f"{p}: manifest missing or invalid model_config") from exc
    if expected_config is not None and config != expected_config:
        raise CheckpointError(
            f"{p}: checkpoint model_config {config.as_dict()} does not match "
            f"expected {expected_config.as_dict()}"
        )
    if expected_vocab_hash is not None and manifest.get("vocab_hash") != expected_vocab_hash:
        raise CheckpointError(
            f"{p}: vocabulary hash mismatch (checkpoint "
            f"{str(manifest.get('vocab_hash', ''))[:12]}..., expected {expected_vocab_hash[:12]}...)"
        )

    records = manifest.get("tensors", [])
    if not isinstance(records, list):
        raise CheckpointError(f"{p}: manifest tensor table is not a list")
    step = manifest.get("step", 0)
    if not _is_int(step) or step < 0:
        raise CheckpointError(f"{p}: manifest has invalid step {step!r}")

    with open(p, "rb") as fh:
        fh.seek(len(MAGIC) + 4)
        (mlen,) = struct.unpack("<Q", fh.read(8))
        fh.seek(mlen, 1)
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

        store = ParameterStore()
        targets: dict[str, np.ndarray] = {}
        for name in [n for n in shapes if "#" not in n]:
            for part in ("#m", "#v"):
                if shapes.get(name + part) != shapes[name]:
                    raise CheckpointError(f"{p}: incomplete tensor set for '{name}'")
            param = store.add(name, np.empty(shapes[name], dtype=np.float32))
            targets.update({name: param.value, name + "#m": param.adam_m,
                            name + "#v": param.adam_v})

        for name, length in table:
            arr = targets.get(name)
            if arr is None:  # a '#' entry with no value tensor is validated, not loaded
                fh.seek(length, 1)
                continue
            if fh.readinto(arr.reshape(-1).view(np.uint8)) != length:
                raise CheckpointError(f"{p}: blob truncated inside tensor '{name}'")
            if not np.little_endian:
                arr.byteswap(inplace=True)
    store.step_count = step
    return store, manifest
