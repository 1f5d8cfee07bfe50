"""Binary checkpoint format for parameter stores.

Layout, all little-endian:

    magic      8 bytes  b"CSCKPT\\x00\\x01"
    status     u8       0 = complete, 1 = partial (a task diverged)
    fp_len     u32      length of the config fingerprint string
    fp         fp_len bytes, utf-8 (sha256 hex of the semantic config)
    n_params   u32
    per parameter, sorted by name:
        name_len u32
        name     name_len bytes utf-8
        ndim     u32
        dims     ndim x u64
        data     product(dims) x f64 raw

Round-trips are bit-exact: save(load(p)) reproduces the file byte for byte.
"""

import struct
from pathlib import Path

import numpy as np

MAGIC = b"CSCKPT\x00\x01"


class Checkpoint:
    """Named float64 arrays plus the config fingerprint they were trained under."""

    def __init__(self, fingerprint: str, arrays: dict[str, np.ndarray], partial: bool = False):
        self.fingerprint = fingerprint
        self.arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
        self.partial = partial


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<B", 1 if ckpt.partial else 0)
    fp = ckpt.fingerprint.encode("utf-8")
    buf += struct.pack("<I", len(fp))
    buf += fp
    names = sorted(ckpt.arrays)
    buf += struct.pack("<I", len(names))
    for name in names:
        arr = np.ascontiguousarray(ckpt.arrays[name], dtype=np.float64)
        nb = name.encode("utf-8")
        buf += struct.pack("<I", len(nb))
        buf += nb
        buf += struct.pack("<I", arr.ndim)
        for d in arr.shape:
            buf += struct.pack("<Q", d)
        buf += arr.tobytes(order="C") if arr.dtype.byteorder in ("<", "=", "|") else arr.astype("<f8").tobytes()
    Path(path).write_bytes(bytes(buf))


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) or raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"not a checkpoint file (bad magic): {path}")
    off = len(MAGIC)

    def take(fmt):
        nonlocal off
        size = struct.calcsize(fmt)
        if off + size > len(raw):
            raise ValueError(f"truncated checkpoint: {path}")
        vals = struct.unpack_from(fmt, raw, off)
        off += size
        return vals

    (status,) = take("<B")
    (fp_len,) = take("<I")
    if off + fp_len > len(raw):
        raise ValueError(f"truncated checkpoint: {path}")
    fingerprint = raw[off:off + fp_len].decode("utf-8")
    off += fp_len
    (n_params,) = take("<I")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        (name_len,) = take("<I")
        if off + name_len > len(raw):
            raise ValueError(f"truncated checkpoint: {path}")
        name = raw[off:off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = take("<I")
        dims = [take("<Q")[0] for _ in range(ndim)]
        count = 1
        for d in dims:
            count *= d
        nbytes = count * 8
        if off + nbytes > len(raw):
            raise ValueError(f"truncated checkpoint: {path}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(dims).copy()
        off += nbytes
        arrays[name] = arr
    if off != len(raw):
        raise ValueError(f"trailing bytes in checkpoint: {path}")
    return Checkpoint(fingerprint, arrays, partial=bool(status))
