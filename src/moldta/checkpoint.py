"""Named-tensor checkpoint container.

Binary layout, all integers little-endian unsigned 64-bit:
magic | meta_len | meta (UTF-8 JSON, sorted keys) | tensor_count | records,
each record being name_len | name (UTF-8) | tensor bytes in the shared
rank/dims/float64 format. Round trips are bitwise exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .autodiff import tensor_from_bytes, tensor_to_bytes
from .errors import DataError

MAGIC = b"MDTC0001"


class Checkpoint:
    def __init__(self, meta: dict, tensors: dict[str, np.ndarray]):
        self.meta = meta
        self.tensors = {name: np.asarray(arr, dtype=np.float64) for name, arr in tensors.items()}

    def to_bytes(self) -> bytes:
        meta_blob = json.dumps(self.meta, sort_keys=True).encode("utf-8")
        parts = [MAGIC, struct.pack("<Q", len(meta_blob)), meta_blob,
                 struct.pack("<Q", len(self.tensors))]
        for name, arr in self.tensors.items():
            blob = name.encode("utf-8")
            parts.append(struct.pack("<Q", len(blob)))
            parts.append(blob)
            parts.append(tensor_to_bytes(arr))
        return b"".join(parts)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

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

    def select(self, prefix: str) -> dict[str, np.ndarray]:
        """Tensors under a dotted prefix, with the prefix stripped."""
        skip = len(prefix)
        return {name[skip:]: arr for name, arr in self.tensors.items()
                if name.startswith(prefix)}

    def restore(self, named: dict, prefix: str = ""):
        """Overwrite each named tensor's data with the array stored under
        prefix + name; every name must be present with the tensor's shape."""
        arrays = self.select(prefix)
        missing = sorted(set(named) - set(arrays))
        if missing:
            raise ValueError(f"checkpoint missing tensors under {prefix!r}: {missing[:5]}")
        for name, tensor in named.items():
            arr = arrays[name]
            if arr.shape != tensor.data.shape:
                raise ValueError(f"shape mismatch for {prefix}{name}: "
                                 f"{arr.shape} vs {tensor.data.shape}")
            tensor.data = arr.copy()
