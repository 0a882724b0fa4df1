import json
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from occ4d import artifact

DTYPES = ["u1", "<i4", "<f4", "<f8", "?"]


def _arrays_strategy():
    def array(dtype, shape, flip):
        size = int(np.prod(shape))
        a = (np.arange(size * 2) * 37 % 251).astype(dtype)[::2].reshape(shape)  # a strided view
        return a.T if flip else a

    shapes = st.one_of(st.just(()), st.lists(st.integers(0, 4), min_size=1, max_size=3).map(tuple))
    one = st.builds(array, st.sampled_from(DTYPES), shapes, st.booleans())
    return st.dictionaries(st.text("abcxyz.", min_size=1, max_size=6), one, max_size=5)


def _small(path):
    artifact.save(path, "queryset", {"n": 3}, tags=np.array([0, 1, 3], np.uint8), times=np.ones(3, "<f4"))


class TestContainer:
    @settings(max_examples=60, deadline=None)
    @given(arrays=_arrays_strategy(), meta=st.dictionaries(st.sampled_from(["rows", "time", "mode"]), st.integers()))
    def test_round_trip(self, tmp_path_factory, arrays, meta):
        p = tmp_path_factory.mktemp("rt") / "a.bin"
        artifact.save(p, "scan", meta, **arrays)
        back_meta, back = artifact.load(p, "scan")
        assert back_meta == {"kind": "scan", "version": artifact.VERSION, **meta}
        assert list(back) == list(arrays)
        for name, a in arrays.items():
            assert back[name].dtype == a.dtype and back[name].shape == a.shape, name
            np.testing.assert_array_equal(back[name], a)
            # each array owns its memory: none is a view that keeps the file's bytes alive
            assert back[name].base is None and back[name].flags.c_contiguous and back[name].flags.writeable

    def test_equal_inputs_give_equal_bytes(self, tmp_path):
        arrays = {"w": np.arange(12.0).reshape(3, 4), "m": np.array([True, False]), "s": np.float32(2.5)}
        artifact.save(tmp_path / "a.bin", "checkpoint", {"step": 1}, **arrays)
        artifact.save(tmp_path / "b.bin", "checkpoint", {"step": 1}, **{k: np.copy(v) for k, v in arrays.items()})
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_every_prefix_raises_naming_the_path(self, tmp_path):
        p = tmp_path / "a.bin"
        _small(p)
        raw = p.read_bytes()
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="truncated or corrupt queryset file") as e:
                artifact.load(p, "queryset")
            assert str(p) in str(e.value), cut

    def test_trailing_bytes_raise(self, tmp_path):
        p = tmp_path / "a.bin"
        _small(p)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(ValueError, match="truncated or corrupt"):
            artifact.load(p, "queryset")

    def test_every_flipped_bit_raises_naming_the_path(self, tmp_path):
        p = tmp_path / "a.bin"
        _small(p)
        raw = p.read_bytes()
        for at in range(len(raw)):
            for bit in (0x01, 0x80):
                flipped = bytearray(raw)
                flipped[at] ^= bit
                p.write_bytes(bytes(flipped))
                with pytest.raises(ValueError) as e:
                    artifact.load(p, "queryset")
                assert str(e.value).startswith(f"{p}: "), (at, bit)

    def test_format_2_zip_is_named(self, tmp_path):
        p = tmp_path / "old.bin"
        with open(p, "wb") as f:
            np.savez(f, meta=np.array(json.dumps({"kind": "queryset", "version": 2})), tags=np.zeros(3, np.uint8))
        assert zipfile.is_zipfile(p)
        with pytest.raises(ValueError, match="not an occ4d queryset file \\(format 3\\); it is a format 2 zip") as e:
            artifact.load(p, "queryset")
        assert str(p) in str(e.value)

    def test_object_dtype_refused_on_save(self, tmp_path):
        p = tmp_path / "a.bin"
        with pytest.raises(ValueError, match="'x' has dtype object"):
            artifact.save(p, "queryset", {}, x=np.array([{"a": 1}], dtype=object))

    @pytest.mark.parametrize("dtype", ["|O", "<U1", "<c8", "|V4"])
    def test_other_dtypes_refused_on_load(self, tmp_path, dtype):
        # a file laid out in full for the edited header, so only the dtype is wrong
        p = tmp_path / "a.bin"
        _small(p)
        raw = p.read_bytes()
        header = json.loads(raw[14 : 14 + int.from_bytes(raw[6:14], "little")])
        header["arrays"][1][1] = dtype  # the "times" entry
        text = json.dumps(header, sort_keys=True).encode()
        out = raw[:6] + len(text).to_bytes(8, "little") + text
        for _, dt, shape in header["arrays"]:
            out += bytes(-len(out) % 64 + np.dtype(dt).itemsize * int(np.prod(shape)))
        p.write_bytes(out + zlib.crc32(out).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="truncated or corrupt queryset file") as e:
            artifact.load(p, "queryset")
        assert str(p) in str(e.value) and dtype in str(e.value)
