"""Binary checkpoint format: exact round-trips and corruption detection."""

import numpy as np
import pytest

from coldstart.checkpoint import Checkpoint, load_checkpoint, save_checkpoint


@pytest.fixture
def arrays():
    rng = np.random.default_rng(101)
    return {
        "Rg/embed": rng.normal(size=(7, 4)),
        "Rg/meta_table": rng.normal(size=(7, 4)),
        "fuse/w": rng.normal(size=(8, 4)),
        "scalarish": rng.normal(size=3),
    }


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, arrays):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint("fp-abc", arrays))
        back = load_checkpoint(path)
        assert back.fingerprint == "fp-abc"
        assert not back.partial
        assert sorted(back.arrays) == sorted(arrays)
        for name in arrays:
            # bitwise equality, not allclose: the format stores raw float64
            assert np.array_equal(back.arrays[name], arrays[name])
            assert back.arrays[name].dtype == np.float64

    def test_same_content_same_bytes(self, tmp_path, arrays):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, Checkpoint("fp", arrays))
        save_checkpoint(p2, Checkpoint("fp", dict(reversed(list(arrays.items())))))
        assert p1.read_bytes() == p2.read_bytes()  # name-sorted serialization

    def test_partial_flag_survives(self, tmp_path, arrays):
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, Checkpoint("fp", arrays, partial=True))
        assert load_checkpoint(path).partial


class TestCorruption:
    def test_bad_magic(self, tmp_path, arrays):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint("fp", arrays))
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_truncation(self, tmp_path, arrays):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint("fp", arrays))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path, arrays):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, Checkpoint("fp", arrays))
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.ckpt")
