"""The one tensor file format, shared by datasets and model files.

A file is a 4-byte magic naming its kind, a u32 format version, a u32
length and a canonical JSON header (sorted keys, no whitespace, padded with
spaces so the tensors start 8-byte aligned), the tensors as little-endian
float64 in the order of the header's "tensors" list of [name, shape] pairs,
and the sha256 of everything before it. Writing streams each part into the
file and the digest; reading takes the file into one buffer and returns the
tensors as writable views of it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

FORMAT_VERSION = 2
HEADER_OFFSET = 8  # the header's length and text follow the magic and version
DIGEST_BYTES = 32


def _check_finite(path, name: str, t: np.ndarray, start: int) -> None:
    """Reject a NaN or infinity in tensor t, stored from byte start, naming
    the offset of its leading-axis row; row by row, so no whole-tensor
    boolean temporary."""
    for i, row in enumerate(t if t.ndim > 1 else t[None]):
        if not np.isfinite(row).all():
            raise ValueError(f"{path}: offset {start + i * row.nbytes}: "
                             f"non-finite value in tensor {name!r}")


def write_tensor_file(path, magic: bytes, tensors: dict, **fields) -> None:
    """Write tensors (name -> array) under a header holding fields plus each
    tensor's [name, shape] under "tensors"; a non-finite tensor is refused
    before the file is opened."""
    header = {**fields,
              "tensors": [[name, list(np.shape(t))] for name, t in tensors.items()]}
    block = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    block += b" " * (-(len(magic) + 8 + len(block)) % 8)
    arrays = {name: np.ascontiguousarray(t, dtype="<f8") for name, t in tensors.items()}
    start = len(magic) + 8 + len(block)
    for name, t in arrays.items():
        _check_finite(path, name, t, start)
        start += t.nbytes
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (magic, struct.pack("<II", FORMAT_VERSION, len(block)), block,
                     *(memoryview(t).cast("B") for t in arrays.values())):
            digest.update(part)
            fh.write(part)
        fh.write(digest.digest())


class TensorFileReader:
    """A checked write_tensor_file file. Opening checks, in order, the magic
    (magic, or one of a tuple of magics; self.magic is the file's), the format
    version (a mismatch tells the user to `remedy`), the header, the length
    its tensor shapes imply and the sha256 digest; field() and tensors() then
    check header values and each tensor. Every failure is a ValueError naming
    the path and the byte offset, and the key of a header value."""

    def __init__(self, path, magic: bytes | tuple, remedy: str = "re-train the model"):
        self.path, self.offset = path, 0
        magics = (magic,) if isinstance(magic, bytes) else magic
        with open(path, "rb") as fh:  # one uninitialized buffer, no bytes copy
            self.data = np.empty(os.fstat(fh.fileno()).st_size, np.uint8)
            self.data = self.data[:fh.readinto(self.data)]
        self.magic = self.data[:4].tobytes()
        if len(self.magic) == 4 and self.magic not in magics:
            raise ValueError(f"{path}: offset 0: bad magic {self.magic!r}, expected "
                             + " or ".join(map(repr, magics)))
        self._take(4)
        version, length = struct.unpack_from("<II", self.data, self._take(8))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: offset 4: format version {version}, expected "
                             f"{FORMAT_VERSION}; {remedy}")
        start = self._take(length)
        try:  # JSON (UTF-8) whose "tensors" are [name, shape] pairs
            self.header = json.loads(self.data[start:self.offset].tobytes())
            self.shapes = {name: tuple(shape) for name, shape in self.header["tensors"]}
            if len(self.shapes) != len(self.header["tensors"]) or not all(
                    type(n) is int and n >= 0 for s in self.shapes.values() for n in s):
                raise ValueError("tensors are not distinct [name, shape] pairs")
        except (ValueError, TypeError, KeyError) as exc:
            raise ValueError(f"{path}: offset {HEADER_OFFSET}: bad header: "
                             f"{exc}") from None
        self.body = self.offset
        end = self.body + 8 * sum(math.prod(s) for s in self.shapes.values())
        self._take(end - self.body + DIGEST_BYTES)
        if self.offset != len(self.data):
            raise ValueError(f"{path}: offset {self.offset}: "
                             f"{len(self.data) - self.offset} trailing bytes")
        if hashlib.sha256(self.data[:end]).digest() != self.data[end:].tobytes():
            raise ValueError(f"{path}: offset {end}: sha256 differs from the contents")

    def _take(self, nbytes: int) -> int:
        start = self.offset
        if start + nbytes > len(self.data):
            raise ValueError(
                f"{self.path}: offset {start}: truncated file, expected {nbytes} "
                f"bytes, {len(self.data) - start} left"
            )
        self.offset += nbytes
        return start

    def header_error(self, key: str, message: str) -> ValueError:
        return ValueError(f"{self.path}: offset {HEADER_OFFSET}: {message} "
                          f"(header key {key!r})")

    def field(self, key: str, kind: type, item: type | None = None):
        """The header value at key, which must be a kind (a list of item)."""
        value = self.header.get(key)
        if type(value) is not kind or item and any(type(v) is not item for v in value):
            what = kind.__name__ + (f" of {item.__name__}" if item else "")
            raise self.header_error(key, f"{value!r} is not a {what}")
        return value

    def tensors(self, expected: dict, **axes) -> dict[str, np.ndarray]:
        """The tensors, named as in expected and in its order, each of shape
        expected[name] with only finite values, as views of the file's
        buffer. An axis of an expected shape is a size or a name of axes."""
        if list(self.shapes) != list(expected):
            raise self.header_error("tensors", f"{list(self.shapes)}, expected "
                                    f"{list(expected)}")
        out, start = {}, self.body
        for name, want in expected.items():
            shape = self.shapes[name]
            if shape != tuple(axes[a] if isinstance(a, str) else a for a in want):
                bad = [f"{n} {a}, expected {axes[a]}" for a, n in zip(want, shape)
                       if a in axes and n != axes[a]]
                raise ValueError(f"{self.path}: offset {start}: " + (
                    bad[0] if bad else f"tensor {name!r} has shape {shape}, "
                                       f"expected {want}"))
            nbytes = 8 * math.prod(shape)
            t = self.data[start:start + nbytes].view("<f8").reshape(shape)
            _check_finite(self.path, name, t, start)
            out[name] = t
            start += nbytes
        return out
