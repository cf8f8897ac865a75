import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motok import fileio
from motok.cli import dispatch
from motok.fileio import (
    FileFormatError,
    atomic_write,
    read_feat,
    read_mseq,
    read_mtok,
    read_pts,
    read_vae,
    read_vox,
    write_feat,
    write_mseq,
    write_mtok,
    write_pts,
    write_vae,
    write_vox,
)
from motok.lfq import QuantizerError, TokenStream
from motok.motion import FRAME_DIM, MAX_FRAMES, MotionError, MotionSequence
from motok.scene import SceneError, SceneVoxelGrid
from motok.vae import ToyVaeConfig, ToyVaeParams, VaeError, init_params, tensor_shapes
from conftest import ZERO_SEGMENTS

ROOT = Path(__file__).resolve().parents[1]


class TestMseq:
    def test_round_trip(self, tmp_path, rng):
        frames = rng.uniform(-1.0, 1.0, size=(17, FRAME_DIM))
        seq = MotionSequence(frames, fps=30, is_canonical=True)
        path = tmp_path / "a.mseq"
        write_mseq(path, seq)
        back = read_mseq(path)
        assert back.fps == 30 and back.is_canonical
        np.testing.assert_array_equal(back.frames, frames.astype(np.float32))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.mseq"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(FileFormatError):
            read_mseq(path)

    def test_fps_beyond_u32_rejected_without_a_file(self, tmp_path):
        with pytest.raises(FileFormatError, match="does not fit"):
            write_mseq(tmp_path / "a.mseq", MotionSequence(np.zeros((4, FRAME_DIM)), fps=2**32))
        assert not any(tmp_path.iterdir())

    def test_signalling_nan_rejected_without_a_warning(self, tmp_path, rng):
        path = tmp_path / "s.mseq"
        write_mseq(path, MotionSequence(rng.uniform(-1, 1, (4, FRAME_DIM))))
        # the last frame value becomes a float32 signalling NaN, which warns when cast
        path.write_bytes(path.read_bytes()[:-4] + struct.pack("<I", 0x7FA00000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FileFormatError, match="frames contain non-finite values"):
                read_mseq(path)

    @pytest.mark.parametrize("column", [3, 6, 66, 72], ids=["root", "joint0", "joint20",
                                                              "object"])
    def test_rotation_rounded_up_to_two_pi_rejected_without_a_file(self, tmp_path, column):
        # below 2*pi in float64, stored as float32 6.2831855, which read_mseq rejects
        frames = np.zeros((16, FRAME_DIM))
        frames[:, column] = 6.283185307179585
        with pytest.raises(MotionError, match="rotation magnitude must be < 2\\*pi"):
            write_mseq(tmp_path / "a.mseq", MotionSequence(frames))
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(0, 22))
    def test_every_written_rotation_reads_back(self, tmp_path_factory, seed, ulps, block):
        """Rotations a few float64 ulps below 2*pi, on random axes: whatever
        write_mseq accepts, read_mseq reads back, and the rest write no file."""
        rng = np.random.default_rng(seed)
        axes = rng.normal(size=(4, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        magnitude = 2.0 * np.pi
        for _ in range(ulps):
            magnitude = np.nextafter(magnitude, 0.0)
        frames = rng.uniform(-1.0, 1.0, (4, FRAME_DIM))
        start = 3 + 3 * block if block < 22 else 72  # root, 21 joints, object
        frames[:, start:start + 3] = axes * magnitude
        try:
            seq = MotionSequence(frames)
        except MotionError:  # the float64 product reached 2*pi already
            return
        path = tmp_path_factory.getbasetemp() / "rotation.mseq"
        path.unlink(missing_ok=True)
        try:
            write_mseq(path, seq)
        except MotionError:
            assert not path.exists()
            return
        np.testing.assert_array_equal(read_mseq(path).frames, seq.frames.astype(np.float32))

    def test_truncated(self, tmp_path, rng):
        seq = MotionSequence(rng.uniform(-1, 1, (4, FRAME_DIM)))
        path = tmp_path / "t.mseq"
        write_mseq(path, seq)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FileFormatError):
            read_mseq(path)


class TestMtok:
    def test_round_trip(self, tmp_path, rng):
        stream = TokenStream(indices=rng.integers(0, 8192, 38), vocab_size=8192, fps=20,
                             is_canonical=True)
        path = tmp_path / "a.mtok"
        write_mtok(path, stream)
        back = read_mtok(path)
        np.testing.assert_array_equal(back.indices, stream.indices)
        assert (back.vocab_size, back.fps, back.is_canonical) == (8192, 20, True)

    def test_writer_refuses_more_tokens_than_the_longest_motion(self, tmp_path):
        stream = TokenStream(indices=np.zeros(39), vocab_size=16, fps=30, is_canonical=False)
        with pytest.raises(FileFormatError, match="at most 38 tokens, got 39"):
            write_mtok(tmp_path / "long.mtok", stream)
        assert not any(tmp_path.iterdir())

    def test_vocab_limit(self):
        with pytest.raises(QuantizerError, match="vocab_size"):
            TokenStream(indices=np.array([0]), vocab_size=1 << 17, fps=30, is_canonical=False)

    def test_reader_rejects_vocab_the_writer_refuses(self, tmp_path):
        path = tmp_path / "big.mtok"
        write_mtok(path, TokenStream(indices=np.array([0, 3]), vocab_size=1 << 16, fps=30,
                                     is_canonical=False))
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 1 << 17)  # after the magic and the version
        path.write_bytes(bytes(blob))
        with pytest.raises(QuantizerError, match="vocab_size"):
            read_mtok(path)


class TestVox:
    def test_round_trip(self, tmp_path, rng):
        occ = (rng.random((5, 7, 3)) < 0.4).astype(np.uint8)
        grid = SceneVoxelGrid(occ, np.array([0.5, -1.0, 2.0]), 0.25)
        path = tmp_path / "a.vox"
        write_vox(path, grid)
        back = read_vox(path)
        np.testing.assert_array_equal(back.occupancy, occ)
        np.testing.assert_allclose(back.origin, grid.origin, atol=1e-7)
        assert back.cell_size == pytest.approx(0.25)

    def test_exact_bit_layout_c_order(self, tmp_path):
        # 2x1x2 grid with only cell (x=1, z=0, y=0) occupied: the flat order is
        # the array's own C order, MSB-first, so that cell is bit 2 of 4 and the
        # payload is the single byte 0b00100000 (x fastest would set bit 1)
        occ = np.zeros((2, 1, 2), dtype=np.uint8)
        occ[1, 0, 0] = 1
        path = tmp_path / "bit.vox"
        write_vox(path, SceneVoxelGrid(occ, np.zeros(3), 1.0))
        blob = path.read_bytes()
        assert blob[:4] == b"SVOX"
        version, nx, nz, ny = struct.unpack("<IIII", blob[4:20])
        assert (version, nx, nz, ny) == (2, 2, 1, 2)
        assert blob[36:] == bytes([0b00100000])

    def test_grid_at_the_cap_loads(self, tmp_path):
        occ = np.zeros((256, 2, 2), dtype=np.uint8)
        occ[255, 1, 0] = 1
        path = tmp_path / "long.vox"
        write_vox(path, SceneVoxelGrid(occ, np.zeros(3), 0.1))
        np.testing.assert_array_equal(read_vox(path).occupancy, occ)

    def test_cell_size_that_rounds_to_zero_rejected(self, tmp_path):
        # 1e-46 is below float32's smallest subnormal, so it would be stored as 0.0
        grid = SceneVoxelGrid(np.zeros((2, 2, 2)), np.zeros(3), 1e-46)
        with pytest.raises(SceneError, match="cell_size must be finite and > 0, got 0.0"):
            write_vox(tmp_path / "a.vox", grid)
        assert list(tmp_path.iterdir()) == []


class TestPtsFeat:
    def test_pts_round_trip(self, tmp_path, rng):
        pts = rng.normal(size=(9, 3))
        write_pts(tmp_path / "a.pts", pts)
        np.testing.assert_array_equal(read_pts(tmp_path / "a.pts"),
                                      pts.astype(np.float32))

    def test_feat_round_trip(self, tmp_path, rng):
        feats = rng.normal(size=(6, 11))
        write_feat(tmp_path / "a.feat", feats)
        np.testing.assert_array_equal(read_feat(tmp_path / "a.feat"),
                                      feats.astype(np.float32))


class TestVae:
    def test_round_trip(self, tmp_path):
        params = init_params(ToyVaeConfig(vocab_size=64, hidden_width=6), ZERO_SEGMENTS)
        path = tmp_path / "p.vae"
        write_vae(path, params)
        back = read_vae(path)
        assert back.vocab_size == 64 and back.hidden_width == 6
        assert set(back.tensors) == set(params.tensors)
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(back.tensors[name],
                                          tensor.astype(np.float32))

    def test_in_scale_that_rounds_to_zero_rejected(self, tmp_path):
        # 1e-46 is below float32's smallest subnormal, so it would be stored as
        # 0.0, which read_vae rejects
        params = init_params(ToyVaeConfig(vocab_size=64, hidden_width=6), ZERO_SEGMENTS)
        tensors = dict(params.tensors, in_scale=params.tensors["in_scale"].copy())
        tensors["in_scale"][5] = 1e-46
        tiny = ToyVaeParams(tensors, params.vocab_size, params.hidden_width)
        with pytest.raises(VaeError, match="in_scale must be strictly positive"):
            write_vae(tmp_path / "p.vae", tiny)
        assert list(tmp_path.iterdir()) == []

    def test_version_1_rejected(self, tmp_path, rng, capsys):
        # version 1 had a downsample layer count (always 3) and a tensor count
        # (always 18) after hidden_width
        path = tmp_path / "p.vae"
        write_vae(path, init_params(ToyVaeConfig(vocab_size=64, hidden_width=6),
                                    ZERO_SEGMENTS))
        blob = path.read_bytes()
        vocab, hidden = struct.unpack("<II", blob[8:16])
        path.write_bytes(b"MVAE" + struct.pack("<IIIII", 1, vocab, hidden, 3, 18) + blob[16:])
        with pytest.raises(FileFormatError, match="unsupported MVAE version 1"):
            read_vae(path)

        motion = tmp_path / "m.mseq"
        write_mseq(motion, MotionSequence(rng.uniform(-1, 1, (16, FRAME_DIM))))
        code = dispatch(["tokenize", "--vae", str(path), "--in", str(motion),
                         "--out", str(tmp_path / "m.mtok")])
        assert code == 1
        assert "unsupported MVAE version 1" in capsys.readouterr().err
        assert not (tmp_path / "m.mtok").exists()


_VALID_FILES = {
    ".mseq": (write_mseq, read_mseq,
              lambda rng: MotionSequence(rng.uniform(-1, 1, (3, FRAME_DIM)))),
    ".mtok": (write_mtok, read_mtok,
              lambda rng: TokenStream(indices=rng.integers(0, 64, 5), vocab_size=64, fps=30,
                                      is_canonical=False)),
    ".vox": (write_vox, read_vox,
             lambda rng: SceneVoxelGrid((rng.random((3, 2, 2)) < 0.5).astype(np.uint8),
                                        np.zeros(3), 0.1)),
    ".pts": (write_pts, read_pts, lambda rng: rng.normal(size=(4, 3))),
    ".feat": (write_feat, read_feat, lambda rng: rng.normal(size=(2, 5))),
    ".vae": (write_vae, read_vae,
             lambda rng: init_params(ToyVaeConfig(vocab_size=16, hidden_width=2),
                                     ZERO_SEGMENTS)),
}


@pytest.mark.parametrize("suffix", sorted(_VALID_FILES))
def test_trailing_bytes_rejected(tmp_path, rng, suffix):
    write, read, make = _VALID_FILES[suffix]
    path = tmp_path / f"a{suffix}"
    write(path, make(rng))
    read(path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FileFormatError, match="trailing bytes"):
        read(path)


@pytest.mark.parametrize("suffix", sorted(_VALID_FILES))
def test_every_truncation_rejected(tmp_path, rng, suffix):
    write, read, make = _VALID_FILES[suffix]
    path = tmp_path / f"a{suffix}"
    write(path, make(rng))
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(FileFormatError):
            read(path)


def _header_end(fmt):
    """Offset of the first payload byte: magic, version and header."""
    magic, _, layout = fmt
    return len(magic) + 4 + struct.calcsize(layout)


def _forge(path, fmt, header, *payload):
    """Write a file in ``fmt``'s layout from raw payload bytes, which may hold
    what the writers refuse."""
    magic, version, layout = fmt
    path.write_bytes(magic + struct.pack("<I", version) + struct.pack(layout, *header)
                     + b"".join(payload))


# the first .vae tensor record, which starts with its u16 name length
_VAE_RECORDS = _header_end(fileio._VAE)


def _count_offsets(suffix):
    """Byte offsets of the u32 fields that size a payload."""
    # .vae: hidden_width, then the first record's u16 name length and the first
    # two bytes of its name
    return {".mseq": (8,), ".mtok": (12,), ".vox": (8, 12, 16), ".pts": (8,),
            ".feat": (8, 12), ".vae": (_VAE_RECORDS - 4, _VAE_RECORDS)}[suffix]


@pytest.mark.parametrize("suffix", sorted(_VALID_FILES))
def test_corrupt_count_rejected(tmp_path, rng, suffix):
    write, read, make = _VALID_FILES[suffix]
    # a .vox shape is capped before its payload is read
    error, message = ((SceneError, "more than 256 on an axis") if suffix == ".vox"
                      else (FileFormatError, "truncated file"))
    path = tmp_path / f"a{suffix}"
    write(path, make(rng))
    blob = path.read_bytes()
    offsets = _count_offsets(suffix)
    for corrupt in [(offset,) for offset in offsets] + [offsets]:
        bad = bytearray(blob)
        for offset in corrupt:
            bad[offset:offset + 4] = struct.pack("<I", 0xFFFFFFFF)
        path.write_bytes(bytes(bad))
        with pytest.raises(error, match=message):
            read(path)


@pytest.mark.parametrize("index", [0, 5, 17])
def test_vae_name_mismatch_rejected(tmp_path, index):
    """A record whose name is not the one its position holds names the expected tensor."""
    path = _golden_file(tmp_path, ".vae")
    blob = bytearray(path.read_bytes())
    name = list(tensor_shapes(16, 2))[index]
    at = blob.index(struct.pack("<H", len(name)) + name.encode()) + 2
    blob[at] = 0xFF  # the first byte of the name, which is not UTF-8 either
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match=f"expected tensor {name} next"):
        read_vae(path)


# one value per format from deterministic inputs (no generator draws, whose
# streams may change with the numpy version), and the sha256 of its file.
# Every pin was derived by hand: the magic, the version, the header fields
# packed by struct, then the payload (C order, float32 or u16 or bits
# MSB-first; each .vae tensor after its u16 name length and name, in
# vae.tensor_shapes order).
_GOLDEN = {
    ".mseq": (lambda: MotionSequence(np.linspace(-1, 1, 3 * FRAME_DIM).reshape(3, FRAME_DIM),
                                     fps=30, is_canonical=True),
              "aa5983d7b56b44b091995e2bb7fc3594ccff2eec0f6281d51151e82901b4a268"),
    ".mtok": (lambda: TokenStream(indices=np.arange(0, 64, 9), vocab_size=64, fps=30,
                                  is_canonical=True),
              "4444cfee5dcf42f6b6017fbea74bb19ffb3a5922ec8869f66d6c10c086b9b3a3"),
    ".vox": (lambda: SceneVoxelGrid((np.arange(12).reshape(3, 2, 2) % 3 == 0).astype(np.uint8),
                                    np.array([0.5, -1.0, 2.0]), 0.25),
             "81e4e737da25ec9e874d18c81bfe44096ac3c8e963b46d0819f3b32b90ba1946"),
    ".pts": (lambda: np.linspace(-2, 2, 12).reshape(4, 3),
             "14ab008de2a669fb772c42d8871338f5d673272822aca14aa8ea8297d38caf09"),
    ".feat": (lambda: np.linspace(-1, 1, 10).reshape(2, 5),
              "fd24c7836dd7c25613c5f4c84d773f94f3da2882d27d2fe7d5d267a2d1f3dd61"),
    ".vae": (lambda: ToyVaeParams(
        tensors={name: np.linspace(0.5, 1.5, math.prod(shape)).reshape(shape)
                 for name, shape in tensor_shapes(16, 2).items()},
        vocab_size=16, hidden_width=2),
        "021b6b84e82818461f734dd7b6f4c138bfc6b0474c5effc3297466d32fedd437"),
}


def _golden_file(tmp_path, suffix):
    path = tmp_path / f"golden{suffix}"
    _VALID_FILES[suffix][0](path, _GOLDEN[suffix][0]())
    return path


@pytest.mark.parametrize("suffix", sorted(_VALID_FILES))
def test_golden_bytes(tmp_path, suffix):
    blob = _golden_file(tmp_path, suffix).read_bytes()
    assert hashlib.sha256(blob).hexdigest() == _GOLDEN[suffix][1]


_FORMATS = {".mseq": fileio._MSEQ, ".mtok": fileio._MTOK, ".vox": fileio._VOX,
            ".pts": fileio._PTS, ".feat": fileio._FEAT, ".vae": fileio._VAE}


def _framing_offsets(suffix):
    """Offsets of every magic, version and header byte, and of each .vae record's
    name length and name."""
    offsets = list(range(_header_end(_FORMATS[suffix])))
    if suffix == ".vae":
        at = _VAE_RECORDS
        for name, shape in tensor_shapes(16, 2).items():  # the golden .vae's sizes
            offsets += range(at, at + 2 + len(name))
            at += 2 + len(name) + 4 * math.prod(shape)
    return offsets


@pytest.mark.parametrize("suffix, other", [(a, b) for a in sorted(_VALID_FILES)
                                           for b in sorted(_VALID_FILES) if a != b])
def test_every_reader_rejects_every_other_format_by_its_magic(tmp_path, suffix, other):
    path = _golden_file(tmp_path, other)
    magic = _FORMATS[suffix][0]
    with pytest.raises(FileFormatError, match=re.escape(f"bad magic, expected {magic!r}")):
        _VALID_FILES[suffix][1](path)


@pytest.mark.parametrize("suffix", sorted(_VALID_FILES))
@pytest.mark.filterwarnings("error")  # a warning is a leak too
def test_header_corruption_returns_or_raises_a_motok_error(tmp_path, suffix):
    path = _golden_file(tmp_path, suffix)
    read, blob = _VALID_FILES[suffix][1], path.read_bytes()
    leaks = []
    for offset in _framing_offsets(suffix):
        for mask in (0x01, 0x80, 0xFF):
            bad = bytearray(blob)
            bad[offset] ^= mask
            path.write_bytes(bytes(bad))
            try:
                read(path)
            except Exception as exc:  # noqa: BLE001 - the class is what is checked
                if type(exc).__module__.partition(".")[0] != "motok":
                    leaks.append(f"byte {offset} ^ {mask:#04x}: {exc!r}")
    assert not leaks


@pytest.mark.parametrize("suffix", [".mseq", ".mtok"])
@pytest.mark.parametrize("flag", [0x02, 0x80], ids=hex)
def test_is_canonical_byte_other_than_0_or_1_rejected(tmp_path, suffix, flag):
    path = _golden_file(tmp_path, suffix)
    blob = bytearray(path.read_bytes())
    blob[_header_end(_FORMATS[suffix]) - 1] = flag  # is_canonical, the last header byte
    path.write_bytes(bytes(blob))
    with pytest.raises(FileFormatError, match=f"is_canonical byte must be 0 or 1, got {flag:#04x}"):
        _VALID_FILES[suffix][1](path)


def test_corrupt_header_exits_1_without_output(tmp_path, capsys):
    vae_path = _golden_file(tmp_path, ".vae")
    blob = bytearray(vae_path.read_bytes())
    # the first record's name loses its last byte, so it reads "enc1_"
    blob[_VAE_RECORDS] ^= 0x01
    vae_path.write_bytes(bytes(blob))
    motion = _golden_file(tmp_path, ".mseq")
    out = tmp_path / "m.mtok"
    assert dispatch(["tokenize", "--vae", str(vae_path), "--in", str(motion),
                     "--out", str(out)]) == 1
    assert "expected tensor enc1_w next" in capsys.readouterr().err
    assert not out.exists()


def test_misread_nan_tensor_prints_one_error_line(tmp_path):
    vae_path = _golden_file(tmp_path, ".vae")
    blob = bytearray(vae_path.read_bytes())
    # the first tensor's first value becomes a float32 signalling NaN, which
    # warns when cast
    at = _VAE_RECORDS + 2 + len("enc1_w")
    blob[at:at + 4] = struct.pack("<I", 0x7FA00000)
    vae_path.write_bytes(bytes(blob))
    motion = _golden_file(tmp_path, ".mseq")
    # a fresh process: its stderr is what a user sees, warnings included
    done = subprocess.run([sys.executable, "-m", "motok", "tokenize", "--vae", str(vae_path),
                           "--in", str(motion), "--out", str(tmp_path / "m.mtok")],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def _motion(seed, num_frames, fps, canonical):
    frames = np.random.default_rng(seed).uniform(-1, 1, (num_frames, FRAME_DIM))
    return MotionSequence(frames, fps=fps, is_canonical=canonical)


def _stream(seed, vocab_size, num_tokens, fps, canonical):
    indices = np.random.default_rng(seed).integers(0, vocab_size, num_tokens)
    return TokenStream(indices=indices, vocab_size=vocab_size, fps=fps, is_canonical=canonical)


def _grid(seed, shape, origin, cell_size):
    occupancy = (np.random.default_rng(seed).random(shape) < 0.5).astype(np.uint8)
    return SceneVoxelGrid(occupancy, np.array(origin), cell_size)


def _table(seed, rows, cols):
    return np.random.default_rng(seed).normal(size=(rows, cols))


def _params(seed, vocab_size, hidden_width):
    config = ToyVaeConfig(vocab_size=vocab_size, hidden_width=hidden_width, seed=seed)
    return init_params(config, ZERO_SEGMENTS)


_SEEDS = st.integers(0, 2**32 - 1)
_U32 = st.integers(1, 2**32 - 1)
_COORD = st.floats(-100, 100, width=32)
# the smallest and largest legal sizes, and any in between
_FRAMES = st.sampled_from([1, MAX_FRAMES]) | st.integers(1, MAX_FRAMES)
_VOCABS = st.sampled_from([2, 65536]) | st.integers(1, 16).map(lambda bits: 1 << bits)
_ROWS = st.just(0) | st.integers(0, 20)
_GRID_SHAPES = st.just((1, 1, 1)) | st.tuples(*[st.integers(1, 9)] * 3)

_DRAWN = {
    ".mseq": st.builds(_motion, _SEEDS, _FRAMES, _U32, st.booleans()),
    ".mtok": st.builds(_stream, _SEEDS, _VOCABS, st.integers(1, 38), _U32, st.booleans()),
    ".vox": st.builds(_grid, _SEEDS, _GRID_SHAPES, st.tuples(*[_COORD] * 3),
                      st.floats(0.125, 10, width=32)),
    ".pts": st.builds(_table, _SEEDS, _ROWS, st.just(3)),
    ".feat": st.builds(_table, _SEEDS, _ROWS, _ROWS),
    ".vae": st.builds(_params, _SEEDS, _VOCABS, st.integers(1, 8)),
}

# what each file stores, float data at float32
_STORED = {
    ".mseq": lambda seq: (seq.frames.astype(np.float32), seq.fps, seq.is_canonical),
    ".mtok": lambda stream: (stream.indices, stream.vocab_size, stream.fps, stream.is_canonical),
    ".vox": lambda grid: (grid.occupancy, grid.origin.astype(np.float32),
                          np.float32(grid.cell_size)),
    ".pts": lambda points: points.astype(np.float32),
    ".feat": lambda features: features.astype(np.float32),
    ".vae": lambda params: (params.vocab_size, params.hidden_width,
                            {name: t.astype(np.float32) for name, t in params.tensors.items()}),
}


@pytest.mark.parametrize("suffix", sorted(_VALID_FILES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_round_trip_property(tmp_path_factory, suffix, data):
    write, read, _ = _VALID_FILES[suffix]
    value = data.draw(_DRAWN[suffix])
    path = tmp_path_factory.getbasetemp() / f"round_trip{suffix}"
    write(path, value)
    np.testing.assert_equal(_STORED[suffix](read(path)), _STORED[suffix](value))


def _motion_at(x):
    frames = np.zeros((2, FRAME_DIM))
    frames[:, 0] = x  # root x
    return MotionSequence(frames)


def _vae_with(value):
    params = _GOLDEN[".vae"][0]()
    return ToyVaeParams(tensors={**params.tensors, "enc1_b": params.tensors["enc1_b"] + value},
                        vocab_size=params.vocab_size, hidden_width=params.hidden_width)


# one value each writer casts to float32 set to 1e39, beyond float32's range
_BEYOND_FLOAT32 = {
    "mseq": (write_mseq, lambda: _motion_at(1e39)),
    "vox-origin": (write_vox, lambda: SceneVoxelGrid(np.zeros((2, 2, 2)), [1e39, 0, 0], 0.5)),
    "vox-cell-size": (write_vox, lambda: SceneVoxelGrid(np.zeros((2, 2, 2)), [0, 0, 0], 1e39)),
    "pts": (write_pts, lambda: np.array([[0.0, 1e39, 0.0]])),
    "feat": (write_feat, lambda: np.array([[1.0, -1e39]])),
    "vae": (write_vae, lambda: _vae_with(1e39)),
}


@pytest.mark.parametrize("name", sorted(_BEYOND_FLOAT32))
@pytest.mark.filterwarnings("error")  # numpy's cast warning is a leak too
def test_writer_rejects_value_beyond_float32(tmp_path, name):
    write, build = _BEYOND_FLOAT32[name]
    with pytest.raises(FileFormatError, match="beyond float32's range"):
        write(tmp_path / "out.bin", build())
    assert list(tmp_path.iterdir()) == []


# float values a writer must refuse, or store so that its reader reads them
# back: NaN, infinities, beyond float32's range, float32 subnormals and values
# that float32 rounds to zero, and any other float64
_AWKWARD = (st.sampled_from([np.nan, -np.nan, np.inf, -np.inf, 1e39, -1e39, 3.4e38, 1e-40,
                             -1e-44, 1e-46, -1e-46, 5e-324, 0.0, -0.0])
            | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))


def _awkward_table(draw, rows, cols):
    return np.array(draw(st.lists(_AWKWARD, min_size=rows * cols, max_size=rows * cols)),
                    dtype=np.float64).reshape(rows, cols)


def _with_awkward(draw, values):
    """``values`` as float64 with one drawn entry set to a drawn awkward float."""
    values = np.array(values, dtype=np.float64)
    values.flat[draw(st.integers(0, values.size - 1))] = draw(_AWKWARD)
    return values


def _awkward_value(draw, suffix):
    """A value for ``suffix``'s writer built from awkward inputs."""
    if suffix == ".pts":
        return _awkward_table(draw, draw(st.integers(0, 4)), 3)
    if suffix == ".feat":
        return _awkward_table(draw, draw(st.integers(0, 4)), draw(st.integers(0, 4)))
    if suffix == ".mtok":  # no floats: a token count and an fps beyond what the file holds
        return TokenStream(indices=np.zeros(draw(st.integers(1, 40)), dtype=np.int64),
                           vocab_size=64, fps=draw(st.integers(1, 2**33)), is_canonical=False)
    golden = _GOLDEN[suffix][0]()
    if suffix == ".mseq":
        return MotionSequence(_with_awkward(draw, golden.frames), fps=30)
    if suffix == ".vox":
        *origin, cell_size = _with_awkward(draw, [*golden.origin, golden.cell_size])
        return SceneVoxelGrid(golden.occupancy, np.array(origin), cell_size)
    name = draw(st.sampled_from(sorted(golden.tensors)))
    tensors = dict(golden.tensors, **{name: _with_awkward(draw, golden.tensors[name])})
    return ToyVaeParams(tensors, golden.vocab_size, golden.hidden_width)


@pytest.mark.parametrize("suffix", sorted(_VALID_FILES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_writers_refuse_what_their_readers_reject(tmp_path_factory, suffix, data):
    """Each writer either raises and leaves no file, or writes one its reader reads back."""
    write, read, _ = _VALID_FILES[suffix]
    try:
        value = data.draw(st.composite(lambda draw: _awkward_value(draw, suffix))())
    except (MotionError, SceneError, VaeError, QuantizerError):  # the value's own checks
        return
    folder = tmp_path_factory.mktemp("writer")
    path = folder / f"out{suffix}"
    try:
        write(path, value)
    except (FileFormatError, MotionError, SceneError, VaeError):
        assert list(folder.iterdir()) == []
        return
    np.testing.assert_equal(_STORED[suffix](read(path)), _STORED[suffix](value))


class TestAtomicWrite:
    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write(b"partial")
                raise RuntimeError("interrupted")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failure_preserves_existing_content(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write(b"new")
                raise RuntimeError("interrupted")
        assert target.read_bytes() == b"old"

    def test_success_replaces(self, tmp_path):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        with atomic_write(target) as handle:
            handle.write(b"new")
        assert target.read_bytes() == b"new"
