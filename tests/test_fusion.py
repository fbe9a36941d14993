"""Coefficient fusion rules, policies, and the image-level fusion chain.

The oracle is a plain Python loop over flattened coefficient pairs that
re-implements the selection masks with scalar comparisons, independent of
any array shape or tree bookkeeping.
"""

import itertools
import re
import sys
import threading
import time

import numpy as np
import pytest

from wavefuse.errors import DataError
from wavefuse.fusion import (
    FusionPolicy,
    FusionRule,
    _select,
    fuse_coeffs,
    fuse_images,
    fuse_trees,
)
from wavefuse.imgio import load_image, save_image
from wavefuse.wavelet import DecompositionTree, WaveletKind, _operator, decompose

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

    def test_coefficient_dims_mismatch_rejected(self):
        a = DecompositionTree(WaveletKind.HAAR, np.ones((8, 8)), 1, (8, 8))
        b = DecompositionTree(WaveletKind.HAAR, np.ones((8, 10)), 1, (8, 8))
        with pytest.raises(DataError, match=re.escape("dims differ: (8, 8) vs (8, 10)")):
            fuse_trees(a, b, FusionPolicy())


@pytest.fixture(scope="module", params=[(64, 64), (509, 509)], ids=["64x64", "509x509"])
def tree_pair(request):
    rng = np.random.default_rng(43)
    return tuple(decompose(rng.random(request.param), WaveletKind.DB2, 5) for _ in range(2))


class TestOneSelectionPass:
    """``fuse_trees`` against the detail rule over the whole array, then the approx rule."""

    @pytest.mark.parametrize("approx_rule, detail_rule", itertools.product(ALL_RULES, ALL_RULES))
    def test_bytes_equal_the_two_call_reference(self, tree_pair, approx_rule, detail_rule):
        t, v = tree_pair
        expected = fuse_coeffs(t.coeffs, v.coeffs, detail_rule)
        rows, cols = t.deepest_approx.shape
        expected[:rows, :cols] = fuse_coeffs(t.deepest_approx, v.deepest_approx, approx_rule)
        fused = fuse_trees(t, v, FusionPolicy(approx_rule, detail_rule))
        assert fused.coeffs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("approx_rule, detail_rule", [
        pair for pair in itertools.product(ALL_RULES, ALL_RULES)
        if pair != (FusionRule.AVERAGE, FusionRule.AVERAGE)
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_the_deepest_block_alone_is_data_error(
            self, approx_rule, detail_rule, bad):
        coeffs = np.ones((8, 8))
        coeffs[1, 0] = bad  # inside the 2 x 2 deepest block of two levels
        t = DecompositionTree(WaveletKind.DB2, coeffs, 2, (8, 8))
        v = DecompositionTree(WaveletKind.DB2, np.ones((8, 8)), 2, (8, 8))
        for pair in ((t, v), (v, t)):
            with pytest.raises(DataError, match="non-finite coefficients"):
                fuse_trees(*pair, FusionPolicy(approx_rule, detail_rule))


def tie_pair(shape):
    """Two grids whose magnitudes tie often: equal, negated, and 0.0 against -0.0."""
    rng = np.random.default_rng(53)
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    flat_b[::5] = -flat_a[::5]
    flat_b[1::7] = flat_a[1::7]
    flat_a[2::11], flat_b[2::11] = 0.0, -0.0
    flat_a[3::13], flat_b[3::13] = -0.0, 0.0
    return a, b


class TestTwoThreadSelection:
    """A selection over at least 2^17 coefficients runs its two flat halves on two threads.

    The threshold is forced to 2^16, so a 256x256 grid splits exactly.
    """

    @pytest.mark.parametrize("shape, opposite", [
        ((256, 256), None), ((256, 256), (128, 100)), ((2, 32769), None), ((2, 32769), (1, 999)),
    ], ids=["2^16", "2^16-opposite", "2^16+2", "2^16+2-opposite"])
    @pytest.mark.parametrize("rule", SELECTION_RULES)
    def test_split_selection_is_bitwise_one_thread(self, splits, shape, opposite, rule):
        a, b = tie_pair(shape)
        splits.at(None)
        expected = fuse_coeffs(a, b, rule)
        if opposite:
            other = FusionRule.MIN_ABS if rule is FusionRule.MAX_ABS else FusionRule.MAX_ABS
            block = (slice(opposite[0]), slice(opposite[1]))
            expected[block] = fuse_coeffs(a[block], b[block], other)
        splits.at(1 << 16)
        got = _select(a, b, rule, opposite)
        assert splits.count == 1
        assert_same_bits(got, expected)

    @pytest.mark.parametrize("where", [0, 65537], ids=["first-half", "second-half"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_in_either_half_is_data_error(self, splits, where, bad):
        a, b = tie_pair((2, 32769))
        b.reshape(-1)[where] = bad
        splits.at(1 << 16)
        with pytest.raises(DataError, match="non-finite coefficients"):
            _select(a, b, FusionRule.MIN_ABS, (1, 999))
        assert splits.count == 1


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

    def test_one_cached_operator_per_length(self):
        # analysis and synthesis share A_n: lengths 64, 32, 16, 8 and 4
        _operator.cache_clear()
        fuse_images(np.ones((64, 64)), np.zeros((64, 64)), WaveletKind.DB2, 5)
        assert _operator.cache_info().currsize == 5

    def test_one_cached_operator_per_length_split(self, splits):
        # lengths 512 ... 32: the calling thread looks up the operators of the
        # levels split across two threads as well
        splits.at(1 << 16)
        _operator.cache_clear()
        fuse_images(np.ones((509, 509)), np.zeros((509, 509)), WaveletKind.DB2, 5)
        assert splits.count == 7  # two levels in each of three sweeps, and the selection
        assert _operator.cache_info().currsize == 5

    def test_default_threshold_splits_the_large_fuse_only(self, splits):
        fuse_images(np.ones((509, 509)), np.zeros((509, 509)), WaveletKind.DB2, 5)
        assert splits.count == 4  # the 512 level of each of three sweeps, and the selection
        # the paper's 320x240 frames run on one thread: a split there was slower
        fuse_images(np.ones((240, 320)), np.zeros((240, 320)), WaveletKind.DB2, 5)
        assert splits.count == 4


class TestConcurrentCallers:
    def test_callers_on_four_threads_share_the_worker(self, splits):
        # more calling threads than cores, switching as often as the interpreter
        # allows: every fuse must still give its own pair's one-thread bytes
        pairs = [np.random.default_rng(59 + i).random((2, 256, 256)) for i in range(4)]
        splits.at(None)
        expected = [fuse_images(t, v, WaveletKind.DB2, 3).tobytes() for t, v in pairs]
        splits.at(1 << 16)
        results = [[] for _ in pairs]

        def fuse(i):
            for _ in range(5):
                results[i].append(fuse_images(*pairs[i], WaveletKind.DB2, 3).tobytes())

        callers = [threading.Thread(target=fuse, args=(i,), daemon=True) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            deadline = time.monotonic() + 60
            for caller in callers:
                caller.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == [[want] * 5 for want in expected]
        assert splits.count > 0


class TestFusePathMemory:
    """Peaks of one 509x509 fuse's steps, in images of 509 x 509 float64s.

    The decomposition pads each image to 512 x 512 (1.01 images). Each
    sweep holds its tree and two block-sized products, so the second
    decomposition, next to the first tree, peaks at 4 padded images. So does
    the inverse sweep: the fused tree, its copy and two products. Keeping
    both input trees alive through it would peak at 6. tracemalloc counts
    every thread's allocations, so the bound holds for the levels and the
    selection split across two threads too: the worker allocates no array.
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
