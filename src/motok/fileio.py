"""Binary file formats and atomic writes.

Every format has one layout, declared once in the header table below: a
4-byte magic, the format's version as a u32, a ``struct`` header, then the
payload arrays' bytes in C order.  All integers are little-endian.  Each
reader reads its format's version alone.  A ``.mtok`` holds at most
``MAX_FRAMES // SEGMENT_LEN`` tokens, the most a motion decodes from, and
its reader rejects a larger count before it reads any index.  A ``.vox``
header's grid shape is capped before its payload is read.  A ``.vae``
stores no shapes: its vocab_size and hidden_width fix them through
:func:`~motok.vae.tensor_shapes`.  Every reader raises
:class:`FileFormatError` on a bad magic or version, a header or payload that
runs past the end of the file (a corrupt count included), an is_canonical
byte other than 0 or 1, a ``.vae`` tensor name other than the one its place
holds, a NaN or infinite frame, point or feature, or bytes after the
payload; what else a file holds is checked by the object it is read into.
Every writer refuses, before it writes anything, what its reader rejects.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .lfq import TokenStream
from .motion import FRAME_DIM, MAX_FRAMES, ROTATION_COLUMNS, MotionSequence
from .scene import SceneVoxelGrid, check_grid_shape
from .vae import SEGMENT_LEN, ToyVaeParams, tensor_shapes

_VERSION = "<I"
# (magic, version, header): header fields; payload
_MSEQ = (b"MSEQ", 1, "<IIB")  # T, fps, is_canonical; (T, 75) float32
# vocab_size, num_tokens (<= _MAX_TOKENS), then the source motion's fps and
# is_canonical; (num_tokens,) u16 indices, one per vae.SEGMENT_LEN frames
_MTOK = (b"MTOK", 3, "<IIIB")
_MAX_TOKENS = MAX_FRAMES // SEGMENT_LEN
# nx, nz, ny, origin[3], cell_size; the (nx, nz, ny) occupancy bit-packed
# MSB-first
_VOX = (b"SVOX", 2, "<III3ff")
_PTS = (b"OPTS", 1, "<I")  # n; (n, 3) float32
_FEAT = (b"FEAT", 1, "<II")  # N, F; (N, F) float32
# vocab_size, hidden_width; then each tensor in vae.tensor_shapes order: u16
# name length, the name, its float32 data
_VAE = (b"MVAE", 3, "<II")
_NAME_LEN = "<H"


class FileFormatError(ValueError):
    """Raised when a file fails magic/shape validation."""


@contextlib.contextmanager
def atomic_write(path):
    """Write to a temp file in the target directory, then rename into place.

    On any failure the temp file is removed, and an ``OSError`` names ``path``.
    """
    path = Path(path)
    tmp_name = None
    try:
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        with os.fdopen(fd, "wb") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException as exc:
        if tmp_name is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def _write(path, fmt, header, *payload):
    magic, version, layout = fmt
    try:
        packed = struct.pack(layout, *header)
    except struct.error as exc:  # a value beyond its field, such as fps >= 2**32
        raise FileFormatError(f"header does not fit {layout}: {exc}") from None
    with atomic_write(path) as out:
        out.write(magic + struct.pack(_VERSION, version) + packed)
        out.writelines(payload)


class _Body:
    """A file's bytes, read front to back; no read goes past the end."""

    def __init__(self, data: bytes):
        self.view = memoryview(data)
        self.offset = 0

    def take(self, size: int, what: str) -> memoryview:
        start = self.offset
        if size > len(self.view) - start:
            raise FileFormatError(f"truncated file while reading {what}")
        self.offset = start + size
        return self.view[start:self.offset]


@contextlib.contextmanager
def _read(path, fmt):
    """Check ``fmt``'s magic and version, then yield the body and the header fields.

    The payload is read inside the ``with``; bytes left after it are rejected.
    """
    magic, version, layout = fmt
    with open(path, "rb") as handle:
        body = _Body(handle.read())
    if body.take(len(magic), "magic") != magic:
        raise FileFormatError(f"bad magic, expected {magic!r}")
    (found,) = _unpack(body, _VERSION, "version")
    if found != version:
        raise FileFormatError(
            f"unsupported {magic.decode()} version {found}, expected version {version}")
    yield body, _unpack(body, layout, "header")
    if body.offset != len(body.view):
        raise FileFormatError("trailing bytes after the payload")


def _unpack(body: _Body, layout: str, what: str) -> tuple:
    return struct.unpack(layout, body.take(struct.calcsize(layout), what))


def _array(body: _Body, dtype, shape: tuple, what: str) -> np.ndarray:
    """One payload array; ``math.prod`` keeps a corrupt u32 count from overflowing."""
    dtype = np.dtype(dtype)
    data = body.take(math.prod(shape) * dtype.itemsize, what)
    return np.frombuffer(data, dtype=dtype).reshape(shape)


def write_mseq(path, seq: MotionSequence):
    frames = _float32(seq.frames, "frames")
    # float32 rounding can carry a rotation magnitude just under 2*pi up to it
    # (6.283185307179585 is stored as 6.2831855), which read_mseq rejects.  A
    # magnitude >= 2*pi needs a component >= 2*pi/sqrt(3) > 3.6; only then is the
    # sequence read_mseq would return built, so that MotionError says so here.
    if np.abs(frames[:, ROTATION_COLUMNS]).max() >= 3.6:
        MotionSequence(frames, fps=seq.fps, is_canonical=seq.is_canonical)
    _write(path, _MSEQ, (seq.num_frames, seq.fps, int(seq.is_canonical)), frames.tobytes())


def _is_canonical(flag: int) -> bool:
    if flag not in (0, 1):
        raise FileFormatError(f"is_canonical byte must be 0 or 1, got {flag:#04x}")
    return bool(flag)


def read_mseq(path) -> MotionSequence:
    with _read(path, _MSEQ) as (body, (num, fps, canonical)):
        frames = _array(body, "<f4", (num, FRAME_DIM), "frames")
    return MotionSequence(_finite(frames, "frames"), fps=fps,
                          is_canonical=_is_canonical(canonical))


def _token_count(num: int) -> int:
    if num > _MAX_TOKENS:
        raise FileFormatError(f"token files hold at most {_MAX_TOKENS} tokens, got {num}")
    return num


def write_mtok(path, stream: TokenStream):
    _write(path, _MTOK, (stream.vocab_size, _token_count(stream.indices.size), stream.fps,
                         stream.is_canonical),
           stream.indices.astype("<u2").tobytes())


def read_mtok(path) -> TokenStream:
    with _read(path, _MTOK) as (body, (vocab, num, fps, canonical)):
        # a view of the file's bytes: a count beyond them is a truncation, and
        # one within them is checked before any index is read
        indices = _array(body, "<u2", (num,), "tokens")
    _token_count(num)
    return TokenStream(indices=indices, vocab_size=vocab, fps=fps,
                       is_canonical=_is_canonical(canonical))


def write_vox(path, grid: SceneVoxelGrid):
    *origin, cell_size = _float32([*grid.origin, grid.cell_size], "origin and cell size").tolist()
    # the grid read_vox would return: float32 rounding can make it invalid
    # (a cell size of 1e-46 is stored as 0.0), and SceneError says so here
    SceneVoxelGrid(occupancy=grid.occupancy, origin=np.array(origin), cell_size=cell_size)
    _write(path, _VOX, (*grid.shape, *origin, cell_size), np.packbits(grid.occupancy).tobytes())


def read_vox(path) -> SceneVoxelGrid:
    with _read(path, _VOX) as (body, (*shape, ox, oy, oz, cell_size)):
        check_grid_shape(shape, "scene")
        packed = _array(body, np.uint8, ((math.prod(shape) + 7) // 8,), "occupancy")
    occupancy = np.unpackbits(packed, count=math.prod(shape)).reshape(shape)
    return SceneVoxelGrid(occupancy=occupancy, origin=np.array([ox, oy, oz]), cell_size=cell_size)


def write_pts(path, points: np.ndarray):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise FileFormatError(f"points must be (n, 3), got {points.shape}")
    _write(path, _PTS, points.shape[:1], _float32(points, "points").tobytes())


def _float32(values, what: str) -> np.ndarray:
    """Float ``values`` as little-endian float32, or :class:`FileFormatError` for
    what the readers reject: a NaN or infinity, or a finite value beyond
    float32's range, which would be stored as an infinity.

    ``values`` is cast once and only the cast is checked; the input is looked
    at again only to name the fault.  The cast's warnings are silenced: an
    overflow or a signalling NaN is the fault reported here.
    """
    values = np.asarray(values)
    with np.errstate(over="ignore", invalid="ignore"):
        cast = values.astype("<f4")
    if not np.isfinite(cast).all():
        if not np.isfinite(values).all():
            raise FileFormatError(f"{what} contain non-finite values")
        raise FileFormatError(f"{what} contain values beyond float32's range")
    return cast


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` unchanged once each is finite; checked before any cast, which
    warns on a signalling NaN."""
    if not np.isfinite(values).all():
        raise FileFormatError(f"{what} contain non-finite values")
    return values


def read_pts(path) -> np.ndarray:
    with _read(path, _PTS) as (body, (count,)):
        points = _array(body, "<f4", (count, 3), "points")
    return _finite(points, "points").astype(np.float64)


def write_feat(path, features: np.ndarray):
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise FileFormatError(f"features must be (N, F), got {features.shape}")
    _write(path, _FEAT, features.shape, _float32(features, "features").tobytes())


def read_feat(path) -> np.ndarray:
    with _read(path, _FEAT) as (body, shape):
        features = _array(body, "<f4", shape, "features")
    return _finite(features, "features").astype(np.float64)


def write_csv(path, rows: list[dict]):
    """One column per key of the first row, in its order; one line per row."""
    lines = [",".join(rows[0])]
    for row in rows:
        # float() first: repr of a numpy float is "np.float64(...)" under numpy 2
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row.values()))
    with atomic_write(path) as out:
        out.write(("\n".join(lines) + "\n").encode("utf-8"))


def write_vae(path, params: ToyVaeParams):
    tensors = {name: _float32(t, f"tensor {name}") for name, t in params.tensors.items()}
    # the params read_vae would return: float32 rounding can make them invalid
    # (an in_scale of 1e-46 is stored as 0.0), and VaeError says so here
    stored = ToyVaeParams(tensors, params.vocab_size, params.hidden_width)
    records = []
    for name, tensor in stored.tensors.items():
        records += [struct.pack(_NAME_LEN, len(name)), name.encode(), tensor.tobytes()]
    _write(path, _VAE, (stored.vocab_size, stored.hidden_width), *records)


def read_vae(path) -> ToyVaeParams:
    with _read(path, _VAE) as (body, (vocab, hidden)):
        tensors = {}
        for name, shape in tensor_shapes(vocab, hidden).items():
            (name_len,) = _unpack(body, _NAME_LEN, "name length")
            if body.take(name_len, "name") != name.encode():
                raise FileFormatError(f"expected tensor {name} next")
            tensors[name] = _array(body, "<f4", shape, f"tensor {name}")
    return ToyVaeParams(tensors=tensors, vocab_size=vocab, hidden_width=hidden)
