"""Coefficient fusion rules, policies, and the image-level fusion chain.

The oracle is a plain Python loop over flattened coefficient pairs that
re-implements the selection masks with scalar comparisons, independent of
any array shape or tree bookkeeping.
"""

import itertools
import re

import numpy as np
import pytest

from wavefuse.errors import DataError
from wavefuse.fusion import FusionPolicy, FusionRule, fuse_coeffs, fuse_images, fuse_trees
from wavefuse.imgio import load_image, save_image
from wavefuse.wavelet import DecompositionTree, WaveletKind, decompose

ALL_RULES = [FusionRule.MAX_ABS, FusionRule.MIN_ABS, FusionRule.AVERAGE]
SELECTION_RULES = [FusionRule.MAX_ABS, FusionRule.MIN_ABS]
# zero, the smallest subnormal, ordinary values and the largest finite double; the
# tests take each with both signs
EDGE_VALUES = [0.0, 5e-324, 1.5, 2.0, np.nextafter(2.0, 3.0), np.finfo(np.float64).max]


def oracle_fuse_flat(t_flat, v_flat, rule):
    out = []
    for t, v in zip(t_flat, v_flat):
        if rule is FusionRule.AVERAGE:
            out.append((t + v) / 2.0)
        elif rule is FusionRule.MAX_ABS:
            out.append(t if abs(t) >= abs(v) else v)
        else:
            out.append(t if abs(t) <= abs(v) else v)
    return np.array(out)


def assert_same_bits(actual, expected):
    """Equal as float64 bit patterns, so -0.0 and 0.0 differ."""
    actual, expected = np.asarray(actual, np.float64), np.asarray(expected, np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.int64), expected.view(np.int64))


def tree_coefficient_grids(tree):
    yield "approx", tree.deepest_approx
    for level, det in enumerate(tree.details, start=1):
        for name, grid in zip("cH cV cD".split(), det):
            yield f"L{level}_{name}", grid


class TestFusionPolicy:
    def test_rules_typed_from_their_values(self):
        policy = FusionPolicy("average", "maxabs")
        assert policy == FusionPolicy(FusionRule.AVERAGE, FusionRule.MAX_ABS)
        assert type(policy.approx_rule) is FusionRule and type(policy.detail_rule) is FusionRule

    @pytest.mark.parametrize("field", ["approx_rule", "detail_rule"])
    def test_bad_rule_is_data_error_naming_the_field(self, field):
        with pytest.raises(DataError, match=re.escape(
                f"{field} must be one of ['maxabs', 'minabs', 'average'], got 'bogus'")):
            FusionPolicy(**{field: "bogus"})


class TestFuseCoeffs:
    def test_max_abs_example(self):
        out = fuse_coeffs(np.array([[3.0, -5.0]]), np.array([[-4.0, 2.0]]), FusionRule.MAX_ABS)
        np.testing.assert_array_equal(out, [[-4.0, -5.0]])

    def test_min_abs_example(self):
        out = fuse_coeffs(np.array([[3.0, -5.0]]), np.array([[-4.0, 2.0]]), FusionRule.MIN_ABS)
        np.testing.assert_array_equal(out, [[3.0, 2.0]])

    def test_average_example(self):
        out = fuse_coeffs(np.array([[2.0]]), np.array([[4.0]]), FusionRule.AVERAGE)
        np.testing.assert_array_equal(out, [[3.0]])

    def test_tie_selects_first_operand(self):
        t, v = np.array([[-7.0]]), np.array([[7.0]])
        assert fuse_coeffs(t, v, FusionRule.MAX_ABS)[0, 0] == -7.0
        assert fuse_coeffs(t, v, FusionRule.MIN_ABS)[0, 0] == -7.0

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_matches_flat_oracle(self, rule):
        rng = np.random.default_rng(23)
        t, v = rng.normal(size=(2, 11, 7))
        fused = fuse_coeffs(t, v, rule)
        np.testing.assert_array_equal(fused.ravel(), oracle_fuse_flat(t.ravel(), v.ravel(), rule))

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_bounded_between_inputs(self, rule):
        rng = np.random.default_rng(29)
        t, v = rng.normal(size=(2, 16, 16))
        fused = fuse_coeffs(t, v, rule)
        assert np.all(fused >= np.minimum(t, v) - 1e-15)
        assert np.all(fused <= np.maximum(t, v) + 1e-15)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DataError, match="dims"):
            fuse_coeffs(np.ones((2, 2)), np.ones((2, 3)), FusionRule.MAX_ABS)

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    def test_edge_values_match_flat_oracle_bit_for_bit(self, rule):
        # every ordered pair of +-x: ties of equal magnitude and either sign,
        # +-0.0 against each other, subnormals and the largest finite double
        signed = [s * x for x in EDGE_VALUES for s in (1.0, -1.0)]
        t, v = np.array(list(itertools.product(signed, repeat=2))).T
        assert_same_bits(fuse_coeffs(t, v, rule), oracle_fuse_flat(t, v, rule))

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    @pytest.mark.parametrize("shape", [(0, 3), (), (5,), (3, 4, 5), (130, 131)])
    def test_random_grids_match_flat_oracle(self, rule, shape):
        rng = np.random.default_rng(53)
        t, v = rng.standard_cauchy(size=(2, *shape))
        assert_same_bits(fuse_coeffs(t, v, rule),
                         oracle_fuse_flat(t.ravel(), v.ravel(), rule).reshape(shape))

    @pytest.mark.parametrize("rule", ALL_RULES)
    def test_non_contiguous_views_match_flat_oracle(self, rule):
        rng = np.random.default_rng(59)
        t_tree = decompose(rng.random((64, 48)), WaveletKind.DB2, 2)
        v_tree = decompose(rng.random((64, 48)), WaveletKind.DB2, 2)
        for t, v in [(t_tree.deepest_approx, v_tree.deepest_approx),
                     (t_tree.coeffs[::3, 1::2], v_tree.coeffs.T[:22, :48:2])]:
            assert not t.flags.c_contiguous
            assert_same_bits(fuse_coeffs(t, v, rule),
                             oracle_fuse_flat(t.ravel(), v.ravel(), rule).reshape(t.shape))

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    @pytest.mark.parametrize("bad", [np.nan, -np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("operand", [0, 1])
    def test_non_finite_coefficient_is_data_error(self, rule, bad, operand):
        grids = [np.ones((4, 5)), np.ones((4, 5))]
        grids[operand][3, 2] = bad
        with pytest.raises(DataError, match="non-finite coefficients"):
            fuse_coeffs(*grids, rule)


class TestFuseTrees:
    def test_self_fusion_is_identity(self):
        rng = np.random.default_rng(31)
        img = rng.random((16, 16))
        tree = decompose(img, WaveletKind.DB2, 2)
        for approx_rule in ALL_RULES:
            for detail_rule in ALL_RULES:
                fused = fuse_trees(tree, tree, FusionPolicy(approx_rule, detail_rule))
                for (_, a), (_, b) in zip(
                    tree_coefficient_grids(fused), tree_coefficient_grids(tree)
                ):
                    np.testing.assert_array_equal(a, b)

    def test_zero_details_win_min_abs(self):
        rng = np.random.default_rng(37)
        t_img = np.full((8, 8), 0.5)  # constant: all detail coefficients zero
        v_img = rng.random((8, 8))
        fused = fuse_trees(
            decompose(t_img, WaveletKind.HAAR, 1),
            decompose(v_img, WaveletKind.HAAR, 1),
            FusionPolicy(),
        )
        for grid in fused.details[0]:
            np.testing.assert_array_equal(grid, np.zeros((4, 4)))

    def test_matches_flat_oracle_per_grid(self):
        rng = np.random.default_rng(41)
        t_tree = decompose(rng.random((16, 16)), WaveletKind.DB2, 2)
        v_tree = decompose(rng.random((16, 16)), WaveletKind.DB2, 2)
        policy = FusionPolicy(FusionRule.MAX_ABS, FusionRule.MIN_ABS)
        fused = fuse_trees(t_tree, v_tree, policy)
        for (name, f), (_, t), (_, v) in zip(
            tree_coefficient_grids(fused),
            tree_coefficient_grids(t_tree),
            tree_coefficient_grids(v_tree),
        ):
            rule = policy.approx_rule if name == "approx" else policy.detail_rule
            expected = oracle_fuse_flat(t.ravel(), v.ravel(), rule)
            np.testing.assert_array_equal(f.ravel(), expected)

    def test_wavelet_mismatch_rejected(self):
        a = decompose(np.ones((8, 8)), WaveletKind.HAAR, 1)
        b = decompose(np.ones((8, 8)), WaveletKind.DB2, 1)
        with pytest.raises(DataError, match="wavelet"):
            fuse_trees(a, b, FusionPolicy())

    @pytest.mark.parametrize("rule", SELECTION_RULES)
    def test_non_finite_coefficient_is_data_error(self, rule):
        # decompose rejects non-finite images, so the tree is built directly
        coeffs = np.ones((8, 8))
        coeffs[5, 6] = np.nan
        t = DecompositionTree(WaveletKind.HAAR, coeffs, 2, (8, 8))
        v = DecompositionTree(WaveletKind.HAAR, np.ones((8, 8)), 2, (8, 8))
        with pytest.raises(DataError, match="non-finite coefficients"):
            fuse_trees(t, v, FusionPolicy(rule, rule))
        with pytest.raises(DataError, match="non-finite coefficients"):
            fuse_trees(v, t, FusionPolicy(FusionRule.AVERAGE, rule))

    @pytest.mark.parametrize("detail_rule", ALL_RULES)
    def test_inputs_unchanged(self, detail_rule):
        rng = np.random.default_rng(61)
        t = decompose(rng.random((24, 20)), WaveletKind.DB2, 2)
        v = decompose(rng.random((24, 20)), WaveletKind.DB2, 2)
        t_before, v_before = t.coeffs.copy(), v.coeffs.copy()
        fused = fuse_trees(t, v, FusionPolicy(FusionRule.MAX_ABS, detail_rule))
        assert not np.shares_memory(fused.coeffs, t.coeffs)
        assert_same_bits(t.coeffs, t_before)
        assert_same_bits(v.coeffs, v_before)

    def test_level_mismatch_rejected(self):
        a = decompose(np.ones((8, 8)), WaveletKind.HAAR, 1)
        b = decompose(np.ones((8, 8)), WaveletKind.HAAR, 2)
        with pytest.raises(DataError, match="level"):
            fuse_trees(a, b, FusionPolicy())


class TestFuseImages:
    @pytest.mark.parametrize("approx_rule", ALL_RULES)
    @pytest.mark.parametrize("detail_rule", ALL_RULES)
    def test_self_fusion_recovers_input(self, approx_rule, detail_rule):
        rng = np.random.default_rng(43)
        img = rng.random((37, 41))
        out = fuse_images(img, img, WaveletKind.DB2, 5, FusionPolicy(approx_rule, detail_rule))
        assert np.abs(out - img).max() <= 1e-9

    def test_constant_images_default_policy(self):
        t = np.full((4, 4), 0.25)
        v = np.full((4, 4), 0.75)
        out = fuse_images(t, v, WaveletKind.HAAR, 1)
        np.testing.assert_allclose(out, v, atol=1e-9)

    def test_average_is_symmetric(self):
        rng = np.random.default_rng(47)
        t, v = rng.random((2, 16, 16))
        policy = FusionPolicy(FusionRule.AVERAGE, FusionRule.AVERAGE)
        ab = fuse_images(t, v, WaveletKind.HAAR, 2, policy)
        ba = fuse_images(v, t, WaveletKind.HAAR, 2, policy)
        np.testing.assert_allclose(ab, ba, atol=1e-12)

    @pytest.mark.parametrize("shape", [(32, 32), (37, 41)])
    def test_inputs_unchanged(self, shape):
        rng = np.random.default_rng(67)
        t, v = rng.random((2, *shape))
        t_before, v_before = t.copy(), v.copy()
        for rule in ALL_RULES:
            fuse_images(t, v, WaveletKind.DB2, 3, FusionPolicy(rule, rule))
        assert_same_bits(t, t_before)
        assert_same_bits(v, v_before)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(DataError, match="dims"):
            fuse_images(np.ones((8, 8)), np.ones((8, 10)))

    def test_non_2d_images_rejected(self):
        with pytest.raises(DataError, match=re.escape("got shape (4, 4, 2)")):
            fuse_images(np.ones((4, 4, 2)), np.ones((4, 4, 2)))


class TestFusePathMemory:
    """Peaks of one 509x509 fuse's steps, in images of 509 x 509 float64s.

    The decomposition pads each image to 512 x 512 (1.01 images). Each
    sweep holds its tree and two block-sized products, so the second
    decomposition, next to the first tree, peaks at 4 padded images. So does
    the inverse sweep: the fused tree, its copy and two products. Keeping
    both input trees alive through it would peak at 6.
    """

    IMAGE = 509 * 509 * 8
    PADDED = 512 * 512 * 8

    @pytest.fixture()
    def pair(self):
        rng = np.random.default_rng(23)
        return rng.random((509, 509)), rng.random((509, 509))

    def test_fuse_images_peak(self, pair, traced_peak):
        assert traced_peak(fuse_images, *pair) <= 4.1 * self.PADDED

    def test_save_image_peak(self, pair, tmp_path, traced_peak):
        # one float buffer for clip, scale and round, then the uint8 levels
        assert traced_peak(save_image, pair[0], tmp_path / "f.pgm") <= 1.5 * self.IMAGE

    def test_load_image_peak(self, pair, tmp_path, traced_peak):
        # the file's bytes and one float array, divided in place
        save_image(pair[0], tmp_path / "f.pgm")
        assert traced_peak(load_image, tmp_path / "f.pgm") <= 1.5 * self.IMAGE
