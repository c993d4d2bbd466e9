"""TSB1 binary tensor files and the checkpoint container built on them.

TSB1 layout: magic ``TSB1``, u8 dtype code (0 = float32), u8 rank,
rank x u64 little-endian extents, then the raw little-endian payload.

Checkpoints are ``TSBC`` files: a versioned JSON header followed by named
TSB1 blobs.  Loaders refuse mismatched format versions.

Sharded datasets and corpora are described by a ``manifest.txt`` text file:
one ``key=value`` line per field, then one ``shard=name:count`` line per
TSB1 shard, in order.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"TSB1"
CKPT_MAGIC = b"TSBC"
CKPT_VERSION = 2

_DTYPES = {0: np.dtype("<f4")}
_DTYPE_CODES = {np.dtype("<f4"): 0}


class FormatError(ValueError):
    """Malformed or unsupported binary file."""


def write_tensor_stream(fh, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype="<f4")
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    fh.write(MAGIC)
    fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(arr.tobytes())


def read_tensor_stream(fh) -> np.ndarray:
    magic = fh.read(4)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    head = fh.read(2)
    if len(head) != 2:
        raise FormatError("truncated header")
    code, rank = struct.unpack("<BB", head)
    if code not in _DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    extents = fh.read(8 * rank)
    if len(extents) != 8 * rank:
        raise FormatError("truncated shape")
    shape = struct.unpack(f"<{rank}Q", extents)
    dtype = _DTYPES[code]
    n = int(np.prod(shape)) if rank else 1
    payload = fh.read(n * dtype.itemsize)
    if len(payload) != n * dtype.itemsize:
        raise FormatError("truncated payload")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def write_tensor(path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_tensor_stream(fh, arr)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return read_tensor_stream(fh)


# ---------------------------------------------------------------------------
# checkpoint container


def save_checkpoint(path, header: dict, tensors: dict[str, np.ndarray]) -> None:
    """Write header metadata plus named tensors; atomic via temp rename."""
    header = dict(header)
    header["format_version"] = CKPT_VERSION
    header["tensor_names"] = list(tensors.keys())
    hdr = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<HI", CKPT_VERSION, len(hdr)))
        fh.write(hdr)
        for name, arr in tensors.items():
            nb = name.encode("utf-8")
            fh.write(struct.pack("<H", len(nb)))
            fh.write(nb)
            write_tensor_stream(fh, arr)
    tmp.replace(path)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != CKPT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        version, hlen = struct.unpack("<HI", fh.read(6))
        if version != CKPT_VERSION:
            raise FormatError(
                f"checkpoint format version {version} unsupported "
                f"(expected {CKPT_VERSION})"
            )
        header = json.loads(fh.read(hlen).decode("utf-8"))
        tensors: dict[str, np.ndarray] = {}
        for name in header["tensor_names"]:
            (nlen,) = struct.unpack("<H", fh.read(2))
            stored = fh.read(nlen).decode("utf-8")
            if stored != name:
                raise FormatError(f"tensor name mismatch: {stored!r} != {name!r}")
            tensors[name] = read_tensor_stream(fh)
    return header, tensors


def tensor_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    write_tensor_stream(buf, arr)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# shard manifests


def write_manifest(path, fields: dict[str, object], shards: list[str],
                   counts: list[int]) -> None:
    lines = [f"{key}={value}" for key, value in fields.items()]
    lines += [f"shard={name}:{count}" for name, count in zip(shards, counts)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_manifest(path) -> tuple[dict[str, str], list[str], list[int]]:
    """(fields, shard names, shard counts) of a manifest file."""
    fields: dict[str, str] = {}
    shards, counts = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        key, _, value = line.partition("=")
        if key == "shard":
            name, _, count = value.rpartition(":")
            shards.append(name)
            counts.append(int(count))
        else:
            fields[key] = value
    return fields, shards, counts
