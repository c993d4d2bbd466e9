"""TSB1 binary tensor files and the checkpoint container built on them.

TSB1 layout: magic ``TSB1``, u8 dtype code (0 = float32), u8 rank,
rank x u64 little-endian extents, then the raw little-endian payload.
A header whose extents claim more payload than its file holds is a
FormatError, found before anything is allocated.

Checkpoints are ``TSBC`` files: a versioned JSON header followed by named
TSB1 blobs.  Loaders refuse mismatched format versions.

A dataset is a directory of rows ``(n, T)`` or ``(n, C, T)`` split along
axis 0 into TSB1 files ``shard_NNNNN.tsb``, plus a ``manifest.txt`` text
file: ``key=value`` lines for ``series_length``, ``train_end``, the sha256
prefix ``checksum`` of the shard bytes and the writer's own provenance
keys, then one ``shard=name:count`` line per shard, in order.  The
manifest is written last, so a directory without one is incomplete.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from pathlib import Path
from typing import NamedTuple

import numpy as np

MAGIC = b"TSB1"
CKPT_MAGIC = b"TSBC"
CKPT_VERSION = 2

_DTYPES = {0: np.dtype("<f4")}
_DTYPE_CODES = {np.dtype("<f4"): 0}


class FormatError(ValueError):
    """Malformed or unsupported file."""


def read_text(path, newline: str | None = None) -> str:
    """The UTF-8 text of ``path``, opened with ``newline``; a directory,
    or text that is not UTF-8, raises FormatError naming the path."""
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except IsADirectoryError as exc:
        raise FormatError(f"{path} is a directory, not a file") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def write_tensor_stream(fh, arr: np.ndarray) -> None:
    arr = np.asarray(arr, dtype="<f4")
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    fh.write(MAGIC)
    fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
    fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    fh.write(arr.tobytes())


def _read(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated {what}")
    return data


def read_tensor_stream(fh) -> np.ndarray:
    magic = fh.read(4)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    code, rank = struct.unpack("<BB", _read(fh, 2, "header"))
    if code not in _DTYPES:
        raise FormatError(f"unknown dtype code {code}")
    shape = struct.unpack(f"<{rank}Q", _read(fh, 8 * rank, "shape"))
    nbytes = math.prod(shape) * _DTYPES[code].itemsize
    start = fh.tell()
    left = fh.seek(0, io.SEEK_END) - start
    fh.seek(start)
    if nbytes > left:
        raise FormatError(f"header claims a payload of {nbytes} bytes; "
                          f"{left} are left")
    payload = np.frombuffer(fh.read(nbytes), dtype=_DTYPES[code])
    try:
        return payload.reshape(shape).copy()
    except ValueError as exc:  # an empty payload beside a huge extent
        raise FormatError(f"extents {shape} fit no array: {exc}") from exc


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
        version, hlen = struct.unpack("<HI", _read(fh, 6, "version"))
        if version != CKPT_VERSION:
            raise FormatError(
                f"checkpoint format version {version} unsupported "
                f"(expected {CKPT_VERSION})"
            )
        raw = _read(fh, hlen, "header")
        try:
            header = json.loads(raw.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise FormatError(f"checkpoint header is not UTF-8 JSON: {exc}"
                              ) from exc
        if not isinstance(header, dict) or not isinstance(
                header.get("tensor_names"), list):
            raise FormatError("checkpoint header holds no tensor_names list")
        tensors: dict[str, np.ndarray] = {}
        for name in header["tensor_names"]:
            (nlen,) = struct.unpack("<H", _read(fh, 2, "tensor name length"))
            try:
                stored = _read(fh, nlen, "tensor name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"tensor name is not UTF-8: {exc}") from exc
            if stored != name:
                raise FormatError(f"tensor name mismatch: {stored!r} != {name!r}")
            tensors[name] = read_tensor_stream(fh)
    return header, tensors


def tensor_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    write_tensor_stream(buf, arr)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# sharded datasets


class Manifest(NamedTuple):
    fields: dict[str, str]
    shards: list[str]
    counts: list[int]


def write_dataset(out_dir, rows: np.ndarray, fields: dict[str, object],
                  shard_size: int = 512) -> Manifest:
    """Write float32 ``rows`` as TSB1 shards of ``shard_size`` rows, then
    the manifest.  ``train_end`` defaults to the series length; the other
    ``fields`` follow ``checksum`` in the given order."""
    rows = np.asarray(rows, dtype="<f4")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    shards, counts = [], []
    for start in range(0, rows.shape[0], shard_size):
        chunk = rows[start : start + shard_size]
        name = f"shard_{start // shard_size:05d}.tsb"
        blob = tensor_bytes(chunk)
        (out_dir / name).write_bytes(blob)
        digest.update(blob)
        shards.append(name)
        counts.append(chunk.shape[0])
    t = rows.shape[-1]
    # a given train_end replaces the default in place, keeping key order
    head = {"series_length": t, "train_end": t,
            "checksum": digest.hexdigest()[:16], **fields}
    head = {key: str(value) for key, value in head.items()}
    lines = [f"{key}={value}" for key, value in head.items()]
    lines += [f"shard={name}:{count}" for name, count in zip(shards, counts)]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
    return Manifest(head, shards, counts)


def read_dataset(out_dir) -> tuple[dict[str, str], np.ndarray]:
    """(manifest fields, rows) of a ``write_dataset`` directory.

    Raises FormatError when the manifest is not UTF-8 or names a shard
    that is no file directly in the directory, or when a shard's row
    count, the checksum or the series length disagrees with it."""
    out_dir = Path(out_dir)
    fields: dict[str, str] = {}
    shards: list[tuple[Path, str]] = []
    for line in read_text(out_dir / "manifest.txt").splitlines():
        key, _, value = line.partition("=")
        if key == "shard":
            name, _, count = value.rpartition(":")
            path = out_dir / name
            if path.parent != out_dir or not path.is_file():
                raise FormatError(f"{out_dir}: shard {name!r} is no file "
                                  "directly in the dataset directory")
            shards.append((path, count))
        elif line.strip():
            fields[key] = value
    digest = hashlib.sha256()
    blocks = []
    for path, count in shards:
        blob = path.read_bytes()
        digest.update(blob)
        blocks.append(read_tensor_stream(io.BytesIO(blob)))
        if blocks[-1].ndim < 2 or str(blocks[-1].shape[0]) != count:
            raise FormatError(f"{path}: shape {blocks[-1].shape}, "
                              f"manifest says {count} rows")
    if not blocks or digest.hexdigest()[:16] != fields.get("checksum"):
        raise FormatError(f"{out_dir}: shards do not match the manifest "
                          "checksum")
    rows = np.concatenate(blocks)
    try:
        t, train_end = int(fields["series_length"]), int(fields["train_end"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{out_dir}: bad manifest field {exc}") from exc
    if t != rows.shape[-1] or not 0 < train_end <= t:
        raise FormatError(f"{out_dir}: series_length {t} and train_end "
                          f"{train_end} do not fit rows of length "
                          f"{rows.shape[-1]}")
    return fields, rows
