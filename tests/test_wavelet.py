"""Wavelet filter banks and the 2D analysis/synthesis transforms.

The oracle here is built from nothing but the filter taps and the stated
convention y[n] = sum_k h[k] * x[(2n - k) mod N]: it materializes the full
NxN analysis matrix per axis and applies it by plain matrix multiplication,
so any indexing or phase mistake in the implementation shows up as a
mismatch against linear algebra done a completely different way.
"""

import json
import math
import re
import time

import numpy as np
import pytest
from scipy.sparse import _sparsetools

from wavefuse.errors import DataError
from wavefuse.imgio import pad_to_block
from wavefuse.wavelet import (
    DecompositionTree,
    WaveletKind,
    _operator,
    _product,
    _transpose_into,
    decompose,
    export_tree,
    filter_bank,
    reconstruct,
)

ALL_KINDS = [WaveletKind.HAAR, WaveletKind.DB2]


def analysis_matrix(taps: np.ndarray, n: int) -> np.ndarray:
    """Rows of the single-channel polyphase operator: row i = output sample i."""
    mat = np.zeros((n // 2, n))
    for out in range(n // 2):
        for k, h in enumerate(taps):
            mat[out, (2 * out - k) % n] += h
    return mat


def oracle_dwt2(img, lo, hi):
    """2D analysis as four explicit matrix products (rows then columns)."""
    rows, cols = img.shape
    rl, rh = analysis_matrix(lo, cols), analysis_matrix(hi, cols)
    cl, ch = analysis_matrix(lo, rows), analysis_matrix(hi, rows)
    lo_x, hi_x = img @ rl.T, img @ rh.T
    return cl @ lo_x, ch @ lo_x, cl @ hi_x, ch @ hi_x


def oracle_idwt2(ca, chh, cv, cd, lo, hi):
    """Synthesis as the transpose of the orthogonal analysis operator."""
    rows, cols = ca.shape[0] * 2, ca.shape[1] * 2
    row_op = np.vstack([analysis_matrix(lo, cols), analysis_matrix(hi, cols)])
    col_op = np.vstack([analysis_matrix(lo, rows), analysis_matrix(hi, rows)])
    # column blocks follow the row-filter channel (lo | hi), row blocks the
    # column-filter channel, so cV sits top right and cH bottom left
    stacked = np.block([[ca, cv], [chh, cd]])
    return col_op.T @ stacked @ row_op


class TestFilterBank:
    def test_haar_taps(self):
        fb = filter_bank(WaveletKind.HAAR)
        np.testing.assert_allclose(fb.lo_d, [0.70710678, 0.70710678], atol=1e-8)
        np.testing.assert_allclose(fb.hi_d, [0.70710678, -0.70710678], atol=1e-8)

    def test_db2_taps(self):
        fb = filter_bank(WaveletKind.DB2)
        s3 = math.sqrt(3.0)
        expected = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
        np.testing.assert_allclose(fb.lo_d, expected, atol=1e-15)
        np.testing.assert_allclose(
            fb.lo_d, [0.48296291, 0.83651630, 0.22414387, -0.12940952], atol=1e-8
        )

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_identities(self, kind):
        fb = filter_bank(kind)
        n = fb.length
        assert abs(fb.lo_d.sum() - math.sqrt(2.0)) <= 1e-12
        assert abs((fb.lo_d**2).sum() - 1.0) <= 1e-12
        signs = (-1.0) ** np.arange(n)
        np.testing.assert_allclose(fb.hi_d, signs * fb.lo_d[::-1], atol=1e-15)

    def test_db2_extra_vanishing_moment(self):
        fb = filter_bank(WaveletKind.DB2)
        moment = sum(k * h for k, h in enumerate(fb.hi_d))
        assert abs(moment) <= 1e-12

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_shift_two_orthonormality(self, kind):
        # even shifts of lo_d form an orthonormal family
        fb = filter_bank(kind)
        padded = np.zeros(8)
        padded[: fb.length] = fb.lo_d
        for shift in (2, 4, 6):
            assert abs(np.dot(padded, np.roll(padded, shift))) <= 1e-12


def per_level_sweep(coeffs, kind, levels, synthesis):
    """A copy of ``coeffs`` swept level by level with numpy's plain transposes.

    Synthesis applies scipy's transpose of each analysis operator through ``@``.
    """
    out = coeffs.copy()
    rows, cols = out.shape
    for level in reversed(range(levels)) if synthesis else range(levels):
        block = out[: rows >> level, : cols >> level]
        a_r, a_c = (_operator(kind, n).T if synthesis else _operator(kind, n)
                    for n in block.shape)
        block[...] = (a_c @ np.ascontiguousarray((a_r @ block).T)).T
    return out


def dwt2(img, kind):
    """One analysis level without padding: the tree's bands are the subbands."""
    return decompose(img, kind, 1, pad=False)


def single_band_tree(dims, kind, band, value):
    """A one-level tree of zeros except one band, written through its view."""
    tree = decompose(np.zeros(dims), kind, 1, pad=False)
    bands = dict(zip(("cH", "cV", "cD"), tree.details[0]), cA=tree.deepest_approx)
    grid = bands[band]
    grid[...] = value
    return tree


class TestDwt2:
    def test_constant_image(self):
        tree = dwt2(np.ones((2, 2)), WaveletKind.HAAR)
        np.testing.assert_allclose(tree.deepest_approx, [[2.0]], atol=1e-12)
        for grid in tree.details[0]:
            np.testing.assert_allclose(grid, [[0.0]], atol=1e-12)

    def test_two_by_two_orientation(self):
        tree = dwt2(np.array([[1.0, 2.0], [3.0, 4.0]]), WaveletKind.HAAR)
        cH, cV, cD = tree.details[0]
        assert tree.deepest_approx[0, 0] == pytest.approx(5.0, abs=1e-12)
        assert cH[0, 0] == pytest.approx(-2.0, abs=1e-12)
        assert cV[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert cD[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("dims", [(8, 8), (6, 10), (16, 4)])
    def test_matches_matrix_oracle(self, kind, dims):
        rng = np.random.default_rng(71)
        img = rng.random(dims)
        fb = filter_bank(kind)
        ca, chh, cv, cd = oracle_dwt2(img, fb.lo_d, fb.hi_d)
        tree = dwt2(img, kind)
        cH, cV, cD = tree.details[0]
        np.testing.assert_allclose(tree.deepest_approx, ca, atol=1e-12)
        np.testing.assert_allclose(cH, chh, atol=1e-12)
        np.testing.assert_allclose(cV, cv, atol=1e-12)
        np.testing.assert_allclose(cD, cd, atol=1e-12)
        # the whole array is the two-sided product, which pins the Mallat layout
        rows, cols = dims
        row_op = np.vstack([analysis_matrix(fb.lo_d, cols), analysis_matrix(fb.hi_d, cols)])
        col_op = np.vstack([analysis_matrix(fb.lo_d, rows), analysis_matrix(fb.hi_d, rows)])
        np.testing.assert_allclose(tree.coeffs, col_op @ img @ row_op.T, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_energy_conserved(self, kind):
        rng = np.random.default_rng(3)
        img = rng.random((8, 8))
        tree = dwt2(img, kind)
        assert (tree.coeffs**2).sum() == pytest.approx((img**2).sum(), rel=1e-9)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_linearity(self, kind):
        rng = np.random.default_rng(9)
        x, y = rng.random((2, 8, 8))
        a, b = 1.7, -0.3
        left = dwt2(a * x + b * y, kind)
        rx, ry = dwt2(x, kind), dwt2(y, kind)
        np.testing.assert_allclose(left.coeffs, a * rx.coeffs + b * ry.coeffs, atol=1e-12)

    def test_odd_dims_rejected(self):
        with pytest.raises(DataError, match="divisible"):
            dwt2(np.ones((3, 4)), WaveletKind.HAAR)


class TestIdwt2:
    def test_constant_inverse(self):
        tree = single_band_tree((2, 2), WaveletKind.HAAR, "cA", 2.0)
        np.testing.assert_allclose(reconstruct(tree), np.ones((2, 2)), atol=1e-12)

    def test_single_horizontal_detail(self):
        tree = single_band_tree((2, 2), WaveletKind.HAAR, "cH", 1.0)
        np.testing.assert_allclose(reconstruct(tree), [[0.5, 0.5], [-0.5, -0.5]], atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_matches_transpose_oracle(self, kind):
        rng = np.random.default_rng(13)
        grids = rng.random((4, 4, 6))
        fb = filter_bank(kind)
        tree = decompose(np.zeros((8, 12)), kind, 1, pad=False)
        for view, grid in zip((tree.deepest_approx, *tree.details[0]), grids):
            view[...] = grid
        expected = oracle_idwt2(*grids, fb.lo_d, fb.hi_d)
        np.testing.assert_allclose(reconstruct(tree), expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("dims, levels", [((2, 2), 1), ((33, 70), 3)])
    def test_synthesis_is_bitwise_the_transposed_operator_product(self, kind, dims, levels):
        tree = decompose(np.random.default_rng(17).random(dims), kind, levels)
        expected = per_level_sweep(tree.coeffs, kind, levels, synthesis=True)
        np.testing.assert_array_equal(reconstruct(tree), expected[: dims[0], : dims[1]])

    def test_roundtrip_db2_small(self):
        img = np.array([[1.0, 2.0], [3.0, 4.0]])
        tree = dwt2(img, WaveletKind.DB2)
        np.testing.assert_allclose(reconstruct(tree), img, atol=1e-9)

    def test_mismatched_subband_dims_rejected(self):
        # 6 columns cannot split into two levels of equal-size subbands
        with pytest.raises(DataError, match="dims"):
            DecompositionTree(WaveletKind.HAAR, np.zeros((4, 6)), 2, (4, 6))
        with pytest.raises(DataError, match="dims"):
            DecompositionTree(WaveletKind.HAAR, np.zeros(4), 1, (4, 1))


class TestPanelTransposes:
    """The sweep transposes each block in 64-row panels."""

    @pytest.mark.parametrize("shape", [
        (512, 600), (600, 512), (1024, 70), (65, 9), (64, 9), (3, 512), (37, 41),
    ])
    def test_transpose_into_is_bitwise_the_transpose(self, shape):
        src = np.random.default_rng(5).random(shape)
        wide = np.zeros((shape[1], shape[0] + 9))
        dst = wide[:, : shape[0]]
        assert _transpose_into(src, dst) is dst
        assert dst.tobytes() == src.T.tobytes()
        assert not wide[:, shape[0] :].any()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("dims, levels", [
        ((509, 509), 5), ((600, 512), 3), ((512, 600), 3), ((600, 392), 3), ((1040, 520), 3),
        ((64, 64), 5), ((6, 10), 1),
    ], ids=["509x509", "600x512", "512x600", "600x392", "1040x520", "64x64", "6x10"])
    def test_sweep_is_bitwise_the_per_level_formula(self, kind, dims, levels):
        img = np.random.default_rng(19).random(dims)
        tree = decompose(img, kind, levels)
        padded, _ = pad_to_block(img, 2**levels)
        assert tree.coeffs.tobytes() == per_level_sweep(padded, kind, levels, False).tobytes()
        out = reconstruct(tree)
        expected = per_level_sweep(tree.coeffs, kind, levels, True)[: dims[0], : dims[1]]
        assert out.tobytes() == np.ascontiguousarray(expected).tobytes()
        assert np.abs(out - img).max() <= 1e-9


class TestProduct:
    """The sweep's products call scipy's CSR and CSC kernels on one operator's arrays."""

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("synthesis", [False, True], ids=["analysis", "synthesis"])
    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 64, 70, 512])
    def test_kernel_is_bitwise_the_scipy_product(self, kind, synthesis, n):
        a = _operator(kind, n)
        kernel, op = ((_sparsetools.csc_matvecs, a.T) if synthesis
                      else (_sparsetools.csr_matvecs, a))
        coeffs = np.random.default_rng(n).standard_normal((2 * n, 2 * n + 6))
        level_block = coeffs[:n, : n + 3]
        for x in (np.ascontiguousarray(level_block), level_block):
            out = np.full((n, n + 3), np.nan)  # the kernel adds into out, so it must zero it
            assert _product(kernel, a, x, out) is out
            assert out.tobytes() == (op @ x).tobytes()

    @pytest.mark.parametrize("x_dims, out_dims", [((6, 3), (8, 3)), ((8, 3), (8, 4)),
                                                  ((8, 3), (6, 3))])
    def test_mismatched_dims_rejected(self, x_dims, out_dims):
        with pytest.raises(ValueError, match="product dims"):
            _product(_sparsetools.csr_matvecs, _operator(WaveletKind.DB2, 8), np.ones(x_dims),
                     np.ones(out_dims))


class TestDecomposeReconstruct:
    def test_level_five_grid_sizes(self):
        tree = decompose(np.zeros((32, 32)), WaveletKind.HAAR, 5)
        assert tree.deepest_approx.shape == (1, 1)
        assert [d[0].shape for d in tree.details] == [(16, 16), (8, 8), (4, 4), (2, 2), (1, 1)]

    def test_single_level_equals_dwt2(self):
        # level 2 is one more dwt2 of level 1's approximation
        rng = np.random.default_rng(21)
        img = rng.random((8, 8))
        tree = decompose(img, WaveletKind.DB2, 2)
        first = dwt2(img, WaveletKind.DB2)
        second = dwt2(first.deepest_approx, WaveletKind.DB2)
        np.testing.assert_array_equal(tree.deepest_approx, second.deepest_approx)
        for level, sb in enumerate((first, second)):
            for got, want in zip(tree.details[level], sb.details[0]):
                np.testing.assert_array_equal(got, want)

    def test_multilevel_energy_conserved(self):
        rng = np.random.default_rng(2)
        img = rng.random((8, 8))
        tree = decompose(img, WaveletKind.HAAR, 2)
        mass = (tree.deepest_approx**2).sum() + sum(
            (g**2).sum() for d in tree.details for g in d
        )
        assert mass == pytest.approx((img**2).sum(), rel=1e-9)

    def test_coefficient_count_matches_padded_pixels(self):
        tree = decompose(np.ones((37, 41)), WaveletKind.DB2, 3)
        assert tree.coeffs.size == 40 * 48

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("levels", [1, 2, 3, 4, 5])
    def test_roundtrip_odd_dims(self, kind, levels):
        rng = np.random.default_rng(40 + levels)
        img = rng.random((37, 41))
        out = reconstruct(decompose(img, kind, levels))
        assert out.shape == img.shape
        assert np.abs(out - img).max() <= 1e-9

    def test_pad_disabled_requires_divisibility(self):
        with pytest.raises(DataError, match="divisible"):
            decompose(np.ones((37, 41)), WaveletKind.HAAR, 3, pad=False)
        tree = decompose(np.ones((40, 48)), WaveletKind.HAAR, 3, pad=False)
        assert tree.original_dims == (40, 48)

    def test_zeroed_details_of_constant_image(self):
        tree = decompose(np.full((8, 8), 0.4), WaveletKind.HAAR, 1)
        for grid in tree.details[0]:
            grid[:] = 0.0
        np.testing.assert_allclose(reconstruct(tree), np.full((8, 8), 0.4), atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        img = np.ones((8, 8))
        img[3, 5] = bad
        with pytest.raises(DataError, match="non-finite"):
            decompose(img, WaveletKind.HAAR, 2)

    @pytest.mark.parametrize("shape", [(8,), (4, 4, 2), (0, 4), (4, 0)])
    def test_non_2d_or_empty_image_rejected(self, shape):
        with pytest.raises(DataError, match=re.escape(f"2D image, got shape {shape}")):
            decompose(np.ones(shape), "db2", 1)

    def test_bad_levels_rejected(self):
        with pytest.raises(DataError):
            decompose(np.ones((8, 8)), WaveletKind.HAAR, 0)

    @pytest.mark.parametrize("dims, deepest", [((8, 8), 5), ((16, 16), 6), ((5, 17), 6)])
    def test_levels_bounded_by_four_times_the_larger_dim(self, dims, deepest):
        img = np.ones(dims)
        assert decompose(img, WaveletKind.HAAR, deepest).coeffs.shape[1] == 2**deepest
        with pytest.raises(DataError, match="too deep"):
            decompose(img, WaveletKind.HAAR, deepest + 1)

    @pytest.mark.parametrize("levels", [64, 10**9, 2**100])
    def test_extreme_levels_rejected_before_any_padding(self, levels):
        with pytest.raises(DataError, match=f"levels {levels} too deep for a 16x16 image"):
            decompose(np.ones((16, 16)), WaveletKind.DB2, levels)

    def test_inconsistent_tree_rejected(self):
        tree = decompose(np.ones((16, 16)), WaveletKind.HAAR, 2)
        with pytest.raises(DataError, match="inconsistent"):
            DecompositionTree(tree.wavelet, tree.coeffs, 5, tree.original_dims)
        with pytest.raises(DataError, match="inconsistent"):
            DecompositionTree(tree.wavelet, tree.coeffs, tree.levels, (17, 16))

    def test_huge_tree_levels_rejected_before_two_to_the_levels_is_built(self):
        start = time.perf_counter()
        with pytest.raises(DataError, match="inconsistent"):
            DecompositionTree(WaveletKind.HAAR, np.zeros((4, 4)), 10**9, (4, 4))
        assert time.perf_counter() - start < 0.5


class TestExportTree:
    def test_files_and_metadata(self, tmp_path):
        rng = np.random.default_rng(17)
        img = rng.random((16, 16))
        tree = decompose(img, WaveletKind.DB2, 2)
        out = export_tree(tree, tmp_path / "coeffs")
        meta = json.loads((out / "tree.json").read_text())
        assert meta["levels"] == 2
        assert meta["wavelet"] == "db2"
        assert meta["original_dims"] == [16, 16]
        assert meta["subbands"]["L2_cA"] == [4, 4]
        assert meta["subbands"]["L1_cH"] == [8, 8]
        names = {p.name for p in out.glob("*.f64")}
        assert names == {
            "L2_cA.f64",
            "L1_cH.f64",
            "L1_cV.f64",
            "L1_cD.f64",
            "L2_cH.f64",
            "L2_cV.f64",
            "L2_cD.f64",
        }

    def test_binary_payload_is_little_endian_row_major(self, tmp_path):
        tree = decompose(np.arange(16.0).reshape(4, 4), WaveletKind.HAAR, 1)
        out = export_tree(tree, tmp_path / "c")
        raw = np.frombuffer((out / "L1_cA.f64").read_bytes(), dtype="<f8")
        np.testing.assert_array_equal(raw.reshape(2, 2), tree.deepest_approx)
