"""PGM reading/writing, normalization, padding, and cropping."""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavefuse.errors import DataError, PgmError
from wavefuse.imgio import crop, load_image, pad_to_block, save_image


class TestLoadImage:
    def test_p5_binary_roundtrip_values(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
        img = load_image(path)
        np.testing.assert_allclose(img, [[0, 1.0], [128 / 255, 64 / 255]])
        assert img.dtype == np.float64

    def test_p2_ascii(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n3 2\n255\n0 51 102\n153 204 255\n")
        img = load_image(path)
        np.testing.assert_allclose(img * 255, [[0, 51, 102], [153, 204, 255]])

    def test_header_comments_skipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([10, 20]))
        img = load_image(path)
        assert img.shape == (1, 2)

    def test_sixteen_bit_big_endian(self, tmp_path):
        path = tmp_path / "img.pgm"
        maxval = 65535
        sample = np.array([[0, maxval], [maxval // 2, 1]], dtype=">u2")
        path.write_bytes(f"P5\n2 2\n{maxval}\n".encode() + sample.tobytes())
        img = load_image(path)
        np.testing.assert_allclose(img, sample.astype(np.float64) / maxval)

    def test_unsupported_magic(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(PgmError, match="magic"):
            load_image(path)

    def test_truncated_pixel_data_reports_offset(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n\x01\x02")
        with pytest.raises(PgmError, match="offset"):
            load_image(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 x\n255\n\x01\x02")
        with pytest.raises(PgmError):
            load_image(path)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_image(tmp_path / "nope.pgm")

    @pytest.mark.parametrize("header", [b"P2 3000 3000 255\n", b"P2 100000 100000 255\n"],
                             ids=["3000x3000", "100000x100000"])
    def test_p2_pixel_count_checked_before_allocating(self, tmp_path, header, traced_peak):
        path = tmp_path / "img.pgm"
        path.write_bytes(header + b"0\n")

        def load_truncated():
            with pytest.raises(PgmError, match="truncated pixel data"):
                load_image(path)

        assert traced_peak(load_truncated) < 1_000_000

    def test_p2_with_tight_separators_loads(self, tmp_path):
        # two bytes per pixel is the least a P2 raster can take
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2 2 2 9 1 2 3 9")
        np.testing.assert_allclose(load_image(path) * 9, [[1, 2], [3, 9]])

    @pytest.mark.parametrize("body", [b"P2 1 1 5 7", b"P2 1 1 5 " + b"9" * 400],
                             ids=["small", "beyond-float"])
    def test_p2_pixel_over_maxval_rejected(self, tmp_path, body):
        path = tmp_path / "img.pgm"
        path.write_bytes(body)
        with pytest.raises(PgmError, match="exceeds maxval"):
            load_image(path)

    def test_header_number_too_long_for_int(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n\x00")
        with pytest.raises(PgmError, match="width has 5000 digits"):
            load_image(path)

    def test_bad_p2_raster_token_is_a_pixel_data_error(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P2 1 1 5 x")
        with pytest.raises(PgmError, match=re.escape(
                f"{path}: malformed pixel data: expected pixel 0, got b'x' (byte offset 9)")):
            load_image(path)

    @pytest.mark.parametrize("body", [b"", b"P5\n2 x\n255\n\x01\x02", b"P5\n2 2\n255\n\x01\x02",
                                      b"P2 1 1 5 7"], ids=["empty", "header", "truncated", "maxval"])
    def test_errors_start_with_the_path(self, tmp_path, body):
        path = tmp_path / "img.pgm"
        path.write_bytes(body)
        with pytest.raises(PgmError) as info:
            load_image(path)
        assert str(info.value).startswith(f"{path}: ")


# Each file's exact outcome: the array it loads as, or its error message after the path.
_CORPUS = {
    "p2-comments-in-raster": (b"P2\n2 2\n9\n1 # one\n2\n# row two\n3#x\n9\n",
                              np.array([[1, 2], [3, 9]]) / 9),
    "p2-every-separator": (b"P2\v2\f1\t9\r\n4\r\n5\r\n", np.array([[4, 5]]) / 9),
    "p5-every-separator": (b"P5\v2\f1\t# c\r\n255\r" + bytes([0, 51]),
                           np.array([[0, 51]]) / 255),
    "comment-at-eof-without-newline": (b"P2 1 1 9 3 # end", np.array([[3]]) / 9),
    "p2-sixteen-bit": (b"P2 3 1 65535 0 4660 65535\n", np.array([[0, 4660, 65535]]) / 65535),
    "whitespace-only": (b" \n\t\r\v\f", "unexpected end of header (byte offset 6)"),
    "header-ends-after-width": (b"P5 2 ", "unexpected end of header (byte offset 5)"),
    "comment-runs-to-eof": (b"P5 2 1 # no newline", "unexpected end of header (byte offset 19)"),
    "non-digit-height": (b"P5 2 -1 255\n\x00\x00",
                         "malformed header: expected height, got b'-1' (byte offset 5)"),
    "p2-pixel-too-long-for-int": (b"P2 1 1 5\n" + b"7" * 4301,
                                  "malformed pixel data: pixel 0 has 4301 digits (byte offset 9)"),
    "p5-no-separator-before-raster": (b"P5 1 1 255#\n\x00",
                                      "malformed header: missing separator before raster "
                                      "(byte offset 10)"),
    # a pixel above maxval reports where its token or sample starts
    "p2-pixel-over-maxval": (b"P2 1 1 5 7", "pixel value exceeds maxval 5 (byte offset 9)"),
    "p2-padded-pixel-over-maxval-after-comment": (b"P2 2 1 9 1 # c\n 010 ",
                                                  "pixel value exceeds maxval 9 (byte offset 16)"),
    "p5-sample-over-maxval": (b"P5 3 1 9\n\x01\x02\x0a",
                              "pixel value exceeds maxval 9 (byte offset 11)"),
    "p5-16-bit-sample-over-maxval": (b"P5 3 1 300\n\x00\x01\x01\x2d\x01\x2d",
                                     "pixel value exceeds maxval 300 (byte offset 13)"),
}


@pytest.mark.parametrize("data, expected", _CORPUS.values(), ids=_CORPUS.keys())
def test_pinned_corpus(tmp_path, data, expected):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    if isinstance(expected, str):
        with pytest.raises(PgmError) as info:
            load_image(path)
        assert str(info.value) == f"{path}: {expected}"
        assert str(info.value).endswith(f" (byte offset {info.value.offset})")
    else:
        img = load_image(path)
        assert img.dtype == np.float64
        np.testing.assert_array_equal(img, expected)


_SMALL_FILES = [
    b"P2\n# c\n3 2\n255\n0 51 102\n153 204 255\n",
    b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]),
    b"P5 2 1 65535\n" + bytes([0, 1, 255, 255]),
]
_MUTATION = st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 64),
                      st.binary(min_size=1, max_size=4))
_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


def _loads_or_is_pgm_error(path, data):
    path.write_bytes(data)
    try:
        img = load_image(path)
    except (PgmError, DataError) as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert img.ndim == 2 and img.dtype == np.float64
    assert 0.0 <= img.min() and img.max() <= 1.0


class TestLoadImageFuzz:
    """Every byte string loads as an image in [0, 1] or raises PgmError/DataError."""

    @_FUZZ
    @given(data=st.binary(max_size=64))
    def test_any_bytes(self, tmp_path, data):
        _loads_or_is_pgm_error(tmp_path / "f.pgm", data)

    @_FUZZ
    @given(data=st.sampled_from([b"P2", b"P5"]).flatmap(
        lambda magic: st.lists(st.sampled_from([b" ", b"\n", b"#", b"0", b"7", b"255", b"99999"]),
                               max_size=12).map(lambda parts: magic + b" ".join(parts))))
    def test_header_like_bytes(self, tmp_path, data):
        _loads_or_is_pgm_error(tmp_path / "f.pgm", data)

    @_FUZZ
    @given(base=st.sampled_from(_SMALL_FILES), edits=st.lists(_MUTATION, min_size=1, max_size=4))
    def test_mutated_valid_file(self, tmp_path, base, edits):
        data = bytearray(base)
        for op, at, chunk in edits:
            at = min(at, len(data))
            if op == "set":
                data[at : at + len(chunk)] = chunk
            elif op == "insert":
                data[at:at] = chunk
            else:
                del data[at : at + len(chunk)]
        _loads_or_is_pgm_error(tmp_path / "f.pgm", bytes(data))


class TestSaveImage:
    def test_roundtrip_preserves_quantized_values(self, tmp_path):
        rng = np.random.default_rng(11)
        img = rng.random((9, 7))
        path = tmp_path / "out.pgm"
        save_image(img, path)
        back = load_image(path)
        quantized = np.floor(np.clip(img, 0, 1) * 255.0 + 0.5) / 255.0
        np.testing.assert_allclose(back, quantized, atol=1e-12)

    def test_clamps_out_of_range(self, tmp_path):
        path = tmp_path / "out.pgm"
        save_image(np.array([[-0.5, 1.5]]), path)
        back = load_image(path)
        np.testing.assert_allclose(back, [[0.0, 1.0]])

    def test_half_rounds_up(self, tmp_path):
        # 0.5 maps to 127.5 and quantizes to 128, not 127
        path = tmp_path / "out.pgm"
        save_image(np.array([[0.5]]), path)
        assert path.read_bytes().endswith(bytes([128]))

    def test_cast_rounds_as_floor_did(self, tmp_path):
        # every boundary (k + 0.5) / 255 and its 1-ulp neighbours, 0, 1 and
        # values outside [0, 1]: the cast alone gives the floor rule's bytes
        edges = (np.arange(256) + 0.5) / 255.0
        values = np.concatenate([
            edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0), -1e300, 1e300,
             -0.5, 1.5], np.random.default_rng(13).uniform(-0.1, 1.1, 4096),
        ])
        img = values.reshape(1, -1)
        path = tmp_path / "out.pgm"
        save_image(img, path)
        floored = np.floor(np.clip(img, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        assert path.read_bytes() == f"P5\n{img.size} 1\n255\n".encode() + floored.tobytes()

    @pytest.mark.parametrize("img, message", [
        (np.zeros(4), "expected a non-empty 2D image, got shape (4,)"),
        (np.array([[0.5, np.nan]]), "image contains non-finite pixels"),
    ], ids=["1-d", "nan"])
    def test_non_image_rejected_before_writing(self, tmp_path, img, message):
        path = tmp_path / "out.pgm"
        with pytest.raises(DataError, match=re.escape(message)):
            save_image(img, path)
        assert not path.exists()


class TestPadCrop:
    def test_pad_replicates_bottom_right_edges(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        padded, dims = pad_to_block(img, 4)
        assert dims == (2, 2)
        assert padded.shape == (4, 4)
        np.testing.assert_allclose(padded[0], [1, 2, 2, 2])
        np.testing.assert_allclose(padded[:, 0], [1, 3, 3, 3])
        np.testing.assert_allclose(padded[3], [3, 4, 4, 4])

    def test_pad_noop_when_divisible(self):
        img = np.ones((8, 16))
        padded, dims = pad_to_block(img, 8)
        assert padded.shape == (8, 16)
        assert dims == (8, 16)

    def test_pad_to_odd_block(self):
        padded, _ = pad_to_block(np.ones((5, 5)), 3)
        assert padded.shape == (6, 6)

    def test_crop_inverts_pad(self):
        rng = np.random.default_rng(5)
        img = rng.random((37, 41))
        padded, dims = pad_to_block(img, 32)
        np.testing.assert_array_equal(crop(padded, dims), img)

    def test_crop_beyond_dims_rejected(self):
        with pytest.raises(DataError):
            crop(np.ones((4, 4)), (5, 4))
