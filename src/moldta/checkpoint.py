"""Named-tensor checkpoint container.

Binary layout, all integers little-endian unsigned 64-bit:
magic | meta_len | meta (UTF-8 JSON, sorted keys) | tensor_count | records,
each record being name_len | name (UTF-8) | tensor bytes. A tensor is its
rank and dims as little-endian signed 64-bit integers, then its values as
little-endian float64 in C order. Round trips are bitwise exact. Parsed
tensors are read-only views of the parsed bytes; restore() copies them.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .errors import DataError

MAGIC = b"MDTC0001"


def tensor_parts(arr):
    """One serialized tensor as two buffers: its rank and dims, then its
    values, which are the array itself when it is already little-endian
    float64 in C order, so writing them copies nothing."""
    arr = np.asarray(arr, dtype="<f8", order="C")
    return struct.pack(f"<{arr.ndim + 1}q", arr.ndim, *arr.shape), arr


def tensor_from_bytes(buf, offset: int = 0):
    """Parse one serialized tensor; returns (a view of buf, next_offset)."""
    (rank,) = struct.unpack_from("<q", buf, offset)
    offset += 8
    if rank < 0:
        raise ValueError("corrupt tensor header: negative rank")
    dims = struct.unpack_from(f"<{rank}q", buf, offset)
    offset += 8 * rank
    count = math.prod(dims)
    if any(d < 0 for d in dims) or offset + 8 * count > len(buf):
        raise ValueError(f"corrupt tensor header: dims {dims} do not fit the buffer")
    arr = np.frombuffer(buf, dtype="<f8", count=count, offset=offset).reshape(dims)
    return arr, offset + 8 * count


class Checkpoint:
    def __init__(self, meta: dict, tensors: dict[str, np.ndarray]):
        self.meta = meta
        self.tensors = {name: np.asarray(arr, dtype=np.float64) for name, arr in tensors.items()}

    def parts(self):
        """The serialized checkpoint as a sequence of buffers, in file order;
        each tensor's values come as the tensor itself, not a copy."""
        meta_blob = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        yield MAGIC + struct.pack("<Q", len(meta_blob)) + meta_blob
        yield struct.pack("<Q", len(self.tensors))
        for name, arr in self.tensors.items():
            blob = name.encode("utf-8")
            yield struct.pack("<Q", len(blob)) + blob
            yield from tensor_parts(arr)

    def to_bytes(self) -> bytes:
        return b"".join(self.parts())

    def save(self, path):
        """Stream the parts to a temp file beside `path`, which replaces it
        only once complete, so a failed write leaves any previous file there
        as it was. No copy of the tensor values is made on the way."""
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                for part in self.parts():
                    fh.write(part)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    @classmethod
    def from_bytes(cls, buf: bytes) -> "Checkpoint":
        """Parse a checkpoint; any malformed or truncated input is a DataError."""
        if buf[: len(MAGIC)] != MAGIC:
            raise DataError("not a checkpoint file (bad magic)")
        try:
            offset = len(MAGIC)
            (meta_len,) = struct.unpack_from("<Q", buf, offset)
            offset += 8
            meta = json.loads(buf[offset:offset + meta_len].decode("utf-8"))
            offset += meta_len
            (count,) = struct.unpack_from("<Q", buf, offset)
            offset += 8
            tensors = {}
            for _ in range(count):
                (name_len,) = struct.unpack_from("<Q", buf, offset)
                offset += 8
                name = buf[offset:offset + name_len].decode("utf-8")
                offset += name_len
                tensors[name], offset = tensor_from_bytes(buf, offset)
        except (struct.error, ValueError) as exc:
            raise DataError(f"corrupt checkpoint: {exc}") from exc
        if not isinstance(meta, dict):
            raise DataError("corrupt checkpoint: metadata is not a JSON object")
        if offset != len(buf):
            raise DataError(f"corrupt checkpoint: {len(buf) - offset} trailing bytes")
        return cls(meta=meta, tensors=tensors)

    @classmethod
    def load(cls, path) -> "Checkpoint":
        try:
            with open(path, "rb") as fh:
                return cls.from_bytes(fh.read())
        except OSError as exc:
            raise DataError(f"cannot read checkpoint {path}: {exc}") from exc

    def restore(self, named: dict, prefix: str = ""):
        """Overwrite each named tensor's data with a writable copy of the array
        stored under prefix + name, the one copy between file and model; a
        missing name or another shape is a DataError."""
        missing = sorted(name for name in named if prefix + name not in self.tensors)
        if missing:
            raise DataError(f"checkpoint missing tensors under {prefix!r}: {missing[:5]}")
        for name, tensor in named.items():
            arr = self.tensors[prefix + name]
            if arr.shape != tensor.data.shape:
                raise DataError(f"shape mismatch for {prefix}{name}: "
                                 f"{arr.shape} vs {tensor.data.shape}")
            tensor.data = arr.copy()
