"""Binary file formats and atomic writes.

All integers are little-endian.  Every reader raises
:class:`FileFormatError` on a bad magic or version, a truncated payload, or
bytes after the payload.  Formats:

* ``.mseq``  magic "MSEQ", u32 version, u32 T, u32 fps, u8 is_canonical,
  then T x 75 float32 row-major.
* ``.mtok``  magic "MTOK", u32 version, u32 vocab_size, u32 num_tokens,
  u32 segment_len, then u16 token indices (vocab_size <= 65536).
* ``.vox``   magic "SVOX", u32 version, u32 H, u32 W, u32 D, f32 origin[3],
  f32 cell_size, then bit-packed occupancy flattened x-fastest (y, then z,
  then x order; MSB-first within each byte).
* ``.pts``   u32 n, then n x 3 float32.
* ``.feat``  u32 N, u32 F, then N x F float32.
* ``.vae``   magic "MVAE", u32 version, u32 vocab_size, u32 hidden_width,
  u32 downsample_layers (always 3, ``vae.DOWNSAMPLE_LAYERS``; any other
  value is rejected), u32 num_tensors, then per tensor: u16 name length,
  name bytes, u8 ndim, u32 dims, float32 data.
"""

from __future__ import annotations

import contextlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .motion import FRAME_DIM, MotionSequence
from .scene import SceneVoxelGrid
from .tokens import TokenStream
from .vae import DOWNSAMPLE_LAYERS, ToyVaeParams

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Raised when a file fails magic/shape validation."""


@contextlib.contextmanager
def atomic_write(path):
    """Write to a temp file in the target directory, then rename into place."""
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def _read_exact(handle, count: int, what: str) -> bytes:
    data = handle.read(count)
    if len(data) != count:
        raise FileFormatError(f"truncated file while reading {what}")
    return data


def _expect_end(handle):
    if handle.read(1):
        raise FileFormatError("trailing bytes after the payload")


def _expect_magic(handle, magic: bytes):
    if _read_exact(handle, 4, "magic") != magic:
        raise FileFormatError(f"bad magic, expected {magic!r}")
    (version,) = struct.unpack("<I", _read_exact(handle, 4, "version"))
    if version != FORMAT_VERSION:
        raise FileFormatError(f"unsupported version {version}")


def write_mseq(path, seq: MotionSequence):
    with atomic_write(path) as out:
        out.write(b"MSEQ")
        out.write(struct.pack("<IIIB", FORMAT_VERSION, seq.num_frames, seq.fps,
                              1 if seq.is_canonical else 0))
        out.write(seq.frames.astype("<f4").tobytes())


def read_mseq(path) -> MotionSequence:
    with open(path, "rb") as handle:
        _expect_magic(handle, b"MSEQ")
        num, fps, canonical = struct.unpack("<IIB", _read_exact(handle, 9, "header"))
        data = _read_exact(handle, num * FRAME_DIM * 4, "frames")
        _expect_end(handle)
        frames = np.frombuffer(data, dtype="<f4").reshape(num, FRAME_DIM).astype(np.float64)
    return MotionSequence(frames, fps=fps, is_canonical=bool(canonical))


def write_mtok(path, stream: TokenStream):
    if stream.vocab_size > 65536:
        raise FileFormatError("token files support vocab_size <= 65536")
    with atomic_write(path) as out:
        out.write(b"MTOK")
        out.write(struct.pack("<IIII", FORMAT_VERSION, stream.vocab_size,
                              stream.num_tokens, stream.segment_len))
        out.write(stream.indices.astype("<u2").tobytes())


def read_mtok(path) -> TokenStream:
    with open(path, "rb") as handle:
        _expect_magic(handle, b"MTOK")
        vocab, num, segment = struct.unpack("<III", _read_exact(handle, 12, "header"))
        data = _read_exact(handle, num * 2, "tokens")
        _expect_end(handle)
        indices = np.frombuffer(data, dtype="<u2").astype(np.int64)
    return TokenStream(indices=indices, vocab_size=vocab, segment_len=segment)


def write_vox(path, grid: SceneVoxelGrid):
    nx, nz, ny = grid.shape
    flat = grid.occupancy.transpose(2, 1, 0).reshape(-1)  # y, z, x order: x fastest
    with atomic_write(path) as out:
        out.write(b"SVOX")
        out.write(struct.pack("<IIII", FORMAT_VERSION, nx, nz, ny))
        out.write(struct.pack("<3f", *grid.origin))
        out.write(struct.pack("<f", grid.cell_size))
        out.write(np.packbits(flat).tobytes())


def read_vox(path) -> SceneVoxelGrid:
    with open(path, "rb") as handle:
        _expect_magic(handle, b"SVOX")
        nx, nz, ny = struct.unpack("<III", _read_exact(handle, 12, "dims"))
        origin = np.array(struct.unpack("<3f", _read_exact(handle, 12, "origin")))
        (cell_size,) = struct.unpack("<f", _read_exact(handle, 4, "cell size"))
        total = nx * nz * ny
        packed = _read_exact(handle, (total + 7) // 8, "occupancy")
        _expect_end(handle)
        flat = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=total)
    occupancy = flat.reshape(ny, nz, nx).transpose(2, 1, 0)
    return SceneVoxelGrid(occupancy=occupancy, origin=origin, cell_size=cell_size)


def write_pts(path, points: np.ndarray):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise FileFormatError(f"points must be (n, 3), got {points.shape}")
    with atomic_write(path) as out:
        out.write(struct.pack("<I", points.shape[0]))
        out.write(points.astype("<f4").tobytes())


def read_pts(path) -> np.ndarray:
    with open(path, "rb") as handle:
        (count,) = struct.unpack("<I", _read_exact(handle, 4, "count"))
        data = _read_exact(handle, count * 12, "points")
        _expect_end(handle)
    return np.frombuffer(data, dtype="<f4").reshape(count, 3).astype(np.float64)


def write_feat(path, features: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise FileFormatError(f"features must be (N, F), got {features.shape}")
    with atomic_write(path) as out:
        out.write(struct.pack("<II", *features.shape))
        out.write(features.astype("<f4").tobytes())


def read_feat(path) -> np.ndarray:
    with open(path, "rb") as handle:
        rows, cols = struct.unpack("<II", _read_exact(handle, 8, "shape"))
        data = _read_exact(handle, rows * cols * 4, "features")
        _expect_end(handle)
    return np.frombuffer(data, dtype="<f4").reshape(rows, cols).astype(np.float64)


def write_vae(path, params: ToyVaeParams):
    names = sorted(params.tensors)
    with atomic_write(path) as out:
        out.write(b"MVAE")
        out.write(struct.pack("<IIIII", FORMAT_VERSION, params.vocab_size,
                              params.hidden_width, DOWNSAMPLE_LAYERS, len(names)))
        for name in names:
            tensor = params.tensors[name]
            encoded = name.encode("utf-8")
            out.write(struct.pack("<H", len(encoded)))
            out.write(encoded)
            out.write(struct.pack("<B", tensor.ndim))
            out.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            out.write(tensor.astype("<f4").tobytes())


def read_vae(path) -> ToyVaeParams:
    with open(path, "rb") as handle:
        _expect_magic(handle, b"MVAE")
        vocab, hidden, layers, count = struct.unpack("<IIII", _read_exact(handle, 16, "header"))
        if layers != DOWNSAMPLE_LAYERS:
            raise FileFormatError(f"unsupported downsample layer count {layers}")
        tensors = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(handle, 2, "name length"))
            name = _read_exact(handle, name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<B", _read_exact(handle, 1, "ndim"))
            shape = struct.unpack(f"<{ndim}I", _read_exact(handle, 4 * ndim, "shape"))
            total = int(np.prod(shape)) if ndim else 1
            data = _read_exact(handle, total * 4, f"tensor {name}")
            tensors[name] = np.frombuffer(data, dtype="<f4").reshape(shape).astype(np.float64)
        _expect_end(handle)
    return ToyVaeParams(tensors=tensors, vocab_size=vocab, hidden_width=hidden)
