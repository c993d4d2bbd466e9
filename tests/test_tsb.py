"""Binary tensor format and checkpoint container."""

import hashlib
import struct

import numpy as np
import pytest

from tsrepr import cli, tsb


def test_round_trip_shapes(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(), (5,), (3, 4), (2, 3, 4, 5)]:
        arr = rng.standard_normal(shape).astype(np.float32)
        path = tmp_path / "t.tsb"
        tsb.write_tensor(path, arr)
        back = tsb.read_tensor(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.tobytes()


def test_header_layout(tmp_path):
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "t.tsb"
    tsb.write_tensor(path, arr)
    raw = path.read_bytes()
    assert raw[:4] == b"TSB1"
    assert raw[4] == 0  # f32 dtype code
    assert raw[5] == 2  # rank
    assert struct.unpack("<2Q", raw[6:22]) == (2, 3)
    assert raw[22:] == arr.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.tsb"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(tsb.FormatError):
        tsb.read_tensor(path)


def test_truncated_payload(tmp_path):
    arr = np.ones(10, dtype=np.float32)
    path = tmp_path / "t.tsb"
    tsb.write_tensor(path, arr)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(tsb.FormatError):
        tsb.read_tensor(path)


@pytest.mark.parametrize("raw", [
    b"TSB1\x00",                                   # no rank byte
    b"TSB1\x00\x02" + struct.pack("<Q", 3),       # one of two extents
], ids=["no_rank", "short_shape"])
def test_truncated_header_or_shape(tmp_path, capsys, raw):
    path = tmp_path / "t.tsb"
    path.write_bytes(raw)
    with pytest.raises(tsb.FormatError, match="truncated"):
        tsb.read_tensor(path)
    assert cli.main(["augment-preview", "--input", str(path),
                     "--out", str(tmp_path / "v")]) == 3
    assert "data error" in capsys.readouterr().err


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"a.w": rng.standard_normal((4, 4)).astype(np.float32),
               "a.b": rng.standard_normal(4).astype(np.float32)}
    header = {"objective": "mae", "seed": 7}
    path = tmp_path / "c.tsbc"
    tsb.save_checkpoint(path, header, tensors)
    back_header, back = tsb.load_checkpoint(path)
    assert back_header["objective"] == "mae"
    assert back_header["seed"] == 7
    assert back_header["format_version"] == tsb.CKPT_VERSION
    for name, arr in tensors.items():
        assert back[name].tobytes() == arr.tobytes()


def test_checkpoint_version_refused(tmp_path):
    # version 1 headers still carry the removed backbone "dropout" key
    path = tmp_path / "c.tsbc"
    tsb.save_checkpoint(path, {}, {"x": np.ones(2, np.float32)})
    good = path.read_bytes()
    for version in (1, tsb.CKPT_VERSION + 1):
        raw = bytearray(good)
        raw[4:6] = struct.pack("<H", version)
        path.write_bytes(bytes(raw))
        with pytest.raises(tsb.FormatError):
            tsb.load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "c.tsbc"
    path.write_bytes(b"XXXX" + b"\x00" * 10)
    with pytest.raises(tsb.FormatError):
        tsb.load_checkpoint(path)


@pytest.mark.parametrize("header", [
    b'{"tensor_names": ["x"]',     # one byte short of JSON
    b'{"tensor_names": ["\xff"]}',  # not UTF-8
    b'{"names": ["x"]}',
    b'["x"]',
    b'{"tensor_names": 1}',
], ids=["not_json", "not_utf8", "no_names", "not_object", "names_not_list"])
def test_checkpoint_bad_header_refused(tmp_path, header):
    path = tmp_path / "c.tsbc"
    tsb.save_checkpoint(path, {}, {"x": np.ones(2, np.float32)})
    good = path.read_bytes()
    (hlen,) = struct.unpack("<I", good[6:10])
    path.write_bytes(good[:6] + struct.pack("<I", len(header)) + header
                     + good[10 + hlen:])
    with pytest.raises(tsb.FormatError, match="checkpoint header"):
        tsb.load_checkpoint(path)


def test_tensor_bytes_matches_file(tmp_path):
    arr = np.random.default_rng(2).standard_normal((3, 3)).astype(np.float32)
    path = tmp_path / "t.tsb"
    tsb.write_tensor(path, arr)
    assert tsb.tensor_bytes(arr) == path.read_bytes()


@pytest.mark.parametrize("cut", ["version", "json", "name_length"])
def test_truncated_checkpoint(tmp_path, cut):
    path = tmp_path / "c.tsbc"
    tsb.save_checkpoint(path, {}, {"x": np.ones(2, np.float32)})
    good = path.read_bytes()
    (hlen,) = struct.unpack("<I", good[6:10])
    end = {"version": 5, "json": 10 + hlen // 2, "name_length": 10 + hlen + 1}
    path.write_bytes(good[:end[cut]])
    with pytest.raises(tsb.FormatError, match="truncated"):
        tsb.load_checkpoint(path)


def test_dataset_round_trip(tmp_path):
    rows = np.random.default_rng(3).standard_normal((5, 2, 8)).astype(
        np.float32)
    man = tsb.write_dataset(tmp_path, rows, {"origin": "test"}, shard_size=2)
    assert man.shards == [f"shard_{i:05d}.tsb" for i in range(3)]
    assert man.counts == [2, 2, 1]
    blobs = b"".join((tmp_path / s).read_bytes() for s in man.shards)
    assert man.fields == {
        "series_length": "8", "train_end": "8",
        "checksum": hashlib.sha256(blobs).hexdigest()[:16], "origin": "test"}
    assert (tmp_path / "manifest.txt").read_text().splitlines()[-3:] == [
        "shard=shard_00000.tsb:2", "shard=shard_00001.tsb:2",
        "shard=shard_00002.tsb:1"]
    fields, back = tsb.read_dataset(tmp_path)
    assert fields == man.fields
    assert back.tobytes() == rows.tobytes() and back.shape == rows.shape


@pytest.mark.parametrize("edit", [
    lambda text: text.replace("train_end=8", "train_end=9"),
    lambda text: text.replace("series_length=8", "series_length=7"),
    lambda text: text.replace("train_end=8\n", ""),
], ids=["train_end_past_length", "series_length", "no_train_end"])
def test_dataset_bad_manifest_fields(tmp_path, edit):
    tsb.write_dataset(tmp_path, np.zeros((3, 8), np.float32), {})
    path = tmp_path / "manifest.txt"
    path.write_text(edit(path.read_text()))
    with pytest.raises(tsb.FormatError):
        tsb.read_dataset(tmp_path)
