"""Checkpoint container: bitwise round trips, read-only views and restore."""

import tracemalloc

import numpy as np
import pytest

from moldta.checkpoint import Checkpoint, tensor_from_bytes, tensor_parts
from moldta.errors import DataError

RNG = np.random.default_rng(20260810)


def test_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"a.w": rng.normal(size=(3, 4)), "a.b": rng.normal(size=4),
               "b.scalar": np.array(2.5)}
    ckpt = Checkpoint(meta={"kind": "test", "cfg": {"x": 1}}, tensors=tensors)
    path = tmp_path / "model.ckpt"
    ckpt.save(path)
    loaded = Checkpoint.load(path)
    assert loaded.meta == ckpt.meta
    assert list(loaded.tensors) == list(tensors)
    for name in tensors:
        assert loaded.tensors[name].tobytes() == np.asarray(tensors[name], dtype=np.float64).tobytes()
    # serialize -> parse -> serialize is byte-identical
    assert loaded.to_bytes() == ckpt.to_bytes()


@pytest.mark.parametrize("fail_at", ["serialize", "replace"])
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "model.ckpt"
    Checkpoint(meta={"kind": "old"}, tensors={"w": np.ones(3)}).save(path)
    before = path.read_bytes()

    def boom(*args, **kwargs):
        raise OSError("disk full")

    def parts_then_boom(self):    # the temp file holds a partial write
        yield b"MDTC0001"
        boom()

    if fail_at == "serialize":
        monkeypatch.setattr(Checkpoint, "parts", parts_then_boom)
    else:    # the temp file is complete when the rename fails
        monkeypatch.setattr("moldta.checkpoint.os.replace", boom)
    with pytest.raises(OSError, match="disk full"):
        Checkpoint(meta={"kind": "new"}, tensors={"w": np.zeros(5)}).save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_saved_file_is_to_bytes(tmp_path):
    tensors = {"w": RNG.normal(size=(3, 4)), "t": RNG.normal(size=(4, 3)).T,
               "s": np.array(1.5), "empty": np.zeros((0, 2))}
    ckpt = Checkpoint(meta={"kind": "test"}, tensors=tensors)
    ckpt.save(tmp_path / "model.ckpt")
    assert (tmp_path / "model.ckpt").read_bytes() == ckpt.to_bytes()


def test_save_streams_without_copying_the_tensors(tmp_path):
    rng = np.random.default_rng(2)
    ckpt = Checkpoint(meta={"kind": "test"},
                      tensors={f"w{i}": rng.normal(size=(256, 512)) for i in range(4)})
    path = tmp_path / "model.ckpt"
    tracemalloc.start()
    try:
        ckpt.save(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 4 * 256 * 512 * 8
    assert peak < 1.1 * size


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        Checkpoint.load(path)


def test_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        Checkpoint.load("/nonexistent/path.ckpt")


def tiny_blob():
    return Checkpoint(meta={"kind": "test", "name": "é"},
                      tensors={"a.w": np.arange(6.0).reshape(2, 3), "a.b": np.array(1.5),
                               "empty": np.zeros((0, 2))}).to_bytes()


def test_parsed_tensors_are_read_only_views_of_the_bytes():
    blob = tiny_blob()
    tensors = Checkpoint.from_bytes(blob).tensors
    for arr in tensors.values():
        assert not arr.flags.writeable
        assert arr.size == 0 or np.shares_memory(arr, np.frombuffer(blob, dtype=np.uint8))
    np.testing.assert_array_equal(tensors["a.w"], np.arange(6.0).reshape(2, 3))


def test_every_truncation_is_a_data_error():
    blob = tiny_blob()
    for cut in range(len(blob)):
        with pytest.raises(DataError):
            Checkpoint.from_bytes(blob[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(DataError, match="trailing"):
        Checkpoint.from_bytes(tiny_blob() + b"\x00")


def test_bad_utf8_json_and_negative_dims_are_data_errors():
    blob = tiny_blob()
    meta_start = 16  # magic + meta length
    not_utf8 = blob[:meta_start] + b"\xff" + blob[meta_start + 1:]
    with pytest.raises(DataError, match="corrupt"):
        Checkpoint.from_bytes(not_utf8)
    not_json = blob[:meta_start] + b"[" + blob[meta_start + 1:]
    with pytest.raises(DataError, match="corrupt"):
        Checkpoint.from_bytes(not_json)
    header = Checkpoint(meta={}, tensors={"t": np.zeros(2)}).to_bytes()
    dim_at = len(header) - 16 - 8   # the one dim sits before two float64 values
    negative = header[:dim_at] + (-2).to_bytes(8, "little", signed=True) + header[dim_at + 8:]
    with pytest.raises(DataError, match="do not fit"):
        Checkpoint.from_bytes(negative)


def test_restore_overwrites_named_tensors_under_prefix():
    from moldta.autodiff import Tensor
    ckpt = Checkpoint(meta={}, tensors={"enc.w": np.full((2, 2), 3.0), "enc.b": np.ones(2),
                                        "head.w": np.zeros(1)})
    named = {"w": Tensor(np.zeros((2, 2))), "b": Tensor(np.zeros(2))}
    ckpt.restore(named, "enc.")
    np.testing.assert_array_equal(named["w"].data, np.full((2, 2), 3.0))
    np.testing.assert_array_equal(named["b"].data, np.ones(2))
    named["b"].data[0] = 9.0   # restored arrays are copies
    assert ckpt.tensors["enc.b"][0] == 1.0
    with pytest.raises(ValueError, match="missing"):
        ckpt.restore({"w": Tensor(np.zeros((2, 2))), "gone": Tensor(np.zeros(1))}, "enc.")
    with pytest.raises(ValueError, match="shape mismatch for enc.w"):
        ckpt.restore({"w": Tensor(np.zeros(3))}, "enc.")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_tensor_bytes_round_trip_exact():
    for shape in [(), (3,), (2, 3), (2, 3, 4)]:
        arr = RNG.normal(size=shape)
        blob = b"".join(tensor_parts(arr))
        back, offset = tensor_from_bytes(blob)
        assert offset == len(blob)
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)


def test_tensor_bytes_layout_little_endian():
    blob = b"".join(tensor_parts(np.array([[1.0, 2.0]])))
    # rank 2, dims 1 and 2, then two doubles
    assert blob[:8] == (2).to_bytes(8, "little")
    assert blob[8:16] == (1).to_bytes(8, "little")
    assert blob[16:24] == (2).to_bytes(8, "little")
    assert np.frombuffer(blob[24:], dtype="<f8").tolist() == [1.0, 2.0]
