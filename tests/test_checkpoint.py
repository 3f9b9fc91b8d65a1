"""Checkpoint container: bitwise round trips and prefix selection."""

import numpy as np
import pytest

from moldta.checkpoint import Checkpoint
from moldta.errors import DataError


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


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        Checkpoint.load(path)


def test_missing_file():
    with pytest.raises(DataError, match="cannot read"):
        Checkpoint.load("/nonexistent/path.ckpt")


def test_select_prefix_strips_it():
    ckpt = Checkpoint(meta={}, tensors={"transformer.mte": np.zeros(2),
                                        "transformer.pe": np.ones(2),
                                        "protein.pte": np.ones(3)})
    picked = ckpt.select("transformer.")
    assert set(picked) == {"mte", "pe"}
    np.testing.assert_array_equal(picked["pe"], np.ones(2))


def tiny_blob():
    return Checkpoint(meta={"kind": "test", "name": "é"},
                      tensors={"a.w": np.arange(6.0).reshape(2, 3), "a.b": np.array(1.5),
                               "empty": np.zeros((0, 2))}).to_bytes()


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
