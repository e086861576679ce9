"""Compressed-domain aggregation algebra of the homomorphic codecs.

The aggregation-site refactor only works if ``aggregate_compressed``
really is a drop-in for decompress -> sum -> recompress: bit-exactly for
the lossless family, within the pinned lattice bound for THC, and
independent of the reduction-tree shape for both (a switch tree must
produce the same bits as the flat endpoint fold).
"""

import numpy as np
import pytest

from repro.core import (
    CAP_ERROR_FEEDBACK,
    CAP_FIXED_POINT,
    CAP_HOMOMORPHIC,
    CAP_LOSSY,
    CodecResult,
    encode_limbs,
    get_codec,
    profile_for,
    render_limbs,
)
from repro.core.homomorphic import LimbWindow

from . import reference_homomorphic as oracle

HOMOMORPHIC = ("lossless_hc", "thc")
FLT_MAX = float(np.finfo(np.float32).max)
DENORMAL = float(np.float32(2.0**-149))


def _grads(fan_in, n=257, seed=0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(n) * 0.004).astype(np.float32)
        for _ in range(fan_in)
    ]


def _strip_state(part):
    """A part as a remote peer would rebuild it: values only, no state."""
    return CodecResult(
        payload_nbytes=part.payload_nbytes,
        values=part.values,
        fan_in=part.fan_in,
    )


class TestCapabilities:
    def test_homomorphic_flags(self):
        assert get_codec("lossless_hc").capabilities() == frozenset(
            {CAP_HOMOMORPHIC, CAP_FIXED_POINT}
        )
        assert get_codec("thc").capabilities() == frozenset(
            {CAP_HOMOMORPHIC, CAP_LOSSY}
        )

    def test_non_homomorphic_codecs_say_so(self):
        assert not get_codec("inceptionn").homomorphic
        assert CAP_ERROR_FEEDBACK in get_codec("inceptionn").capabilities()
        assert not get_codec("identity").homomorphic

    def test_stream_profile_mirrors_codec(self):
        assert profile_for("lossless_hc").homomorphic
        assert profile_for("thc").homomorphic
        assert not profile_for("truncation").homomorphic

    def test_non_homomorphic_aggregate_raises(self):
        stream = profile_for("inceptionn")
        parts = [stream.compress(g) for g in _grads(2)]
        with pytest.raises(NotImplementedError):
            stream.aggregate_compressed(parts)


class TestLosslessHc:
    @pytest.mark.parametrize("fan_in", [2, 4, 8])
    def test_matches_decompress_sum_recompress_bit_exactly(self, fan_in):
        stream = profile_for("lossless_hc")
        grads = _grads(fan_in, seed=fan_in)
        parts = [stream.compress(g) for g in grads]
        agg = stream.aggregate_compressed(parts)
        # The endpoint reference: reconstruct every part (lossless:
        # values ARE the reconstruction), sum exactly, re-encode.
        reference = stream.compress(
            np.sum(grads, axis=0, dtype=np.float64).astype(np.float32)
        )
        np.testing.assert_array_equal(agg.values, reference.values)
        assert agg.fan_in == fan_in
        assert agg.payload_nbytes == reference.payload_nbytes

    def test_tree_shape_cannot_change_the_result(self):
        stream = profile_for("lossless_hc")
        parts = [stream.compress(g) for g in _grads(8, seed=3)]
        flat = stream.aggregate_compressed(parts)
        tree = stream.aggregate_compressed(
            [
                stream.aggregate_compressed(
                    [
                        stream.aggregate_compressed(parts[0:2]),
                        stream.aggregate_compressed(parts[2:4]),
                    ]
                ),
                stream.aggregate_compressed(parts[4:8]),
            ]
        )
        np.testing.assert_array_equal(flat.values, tree.values)
        assert flat.fan_in == tree.fan_in == 8
        assert flat.payload_nbytes == tree.payload_nbytes

    def test_stateless_parts_rebuild_the_accumulator(self):
        stream = profile_for("lossless_hc")
        parts = [stream.compress(g) for g in _grads(4, seed=5)]
        with_state = stream.aggregate_compressed(parts)
        without = stream.aggregate_compressed(
            [_strip_state(p) for p in parts]
        )
        np.testing.assert_array_equal(with_state.values, without.values)


def _columns(*parts):
    return [np.array(part, dtype=np.float32) for part in parts]


def _same_bits(got, want):
    # Not assert_array_equal: -0.0 == +0.0 would hide a sign slip.
    np.testing.assert_array_equal(
        got.values.view(np.uint32), want.values.view(np.uint32)
    )
    assert got.payload_nbytes == want.payload_nbytes
    assert got.fan_in == want.fan_in


class TestLosslessHcAgainstBigIntOracle:
    """The limb-window accumulator against the big-int path it replaced."""

    stream = profile_for("lossless_hc")

    def _fold(self, parts):
        got = self.stream.aggregate_compressed(
            [self.stream.compress(p) for p in parts]
        )
        want = oracle.aggregate_compressed([oracle.compress(p) for p in parts])
        _same_bits(got, want)
        return got

    @pytest.mark.parametrize(
        "parts, bits",
        [
            # float64 rounding drops the 2**-60, the float32 cast then
            # sees an exact tie and rounds to even: two roundings.
            (([1.0], [2.0**-24], [2.0**-60]), 0x3F800000),
            (([1.0], [2.0**-24], [-(2.0**-100)]), 0x3F800000),
            (([-(2.0**-24)], [2.0**-60], [1.0]), 0x3F7FFFFF),
            # An exact float64 tie goes to the even neighbour 1 + 2**-24 ...
            (([1.0], [2.0**-24], [2.0**-53]), 0x3F800000),
            # ... unless anything below it, however far, breaks the tie.
            (([1.0], [2.0**-24], [2.0**-53], [2.0**-79]), 0x3F800001),
            (([1.0], [2.0**-24], [2.0**-53], [2.0**-100]), 0x3F800001),
            # An odd float64 neighbour rounds up, onto a float32 tie; one
            # correct rounding of the total would give ...0001.
            (([1.0], [2.0**-23], [2.0**-24], [-(2.0**-53)]), 0x3F800002),
            (([-1.0], [-(2.0**-23)], [-(2.0**-24)], [2.0**-53]), 0xBF800002),
            (([DENORMAL], [DENORMAL]), 0x00000002),
            (([DENORMAL], [-DENORMAL]), 0x00000000),
            (([1.0], [2.0**-100], [-1.0], [-(2.0**-100)]), 0x00000000),
            (([-0.0], [-0.0]), 0x00000000),
        ],
    )
    def test_pinned_renderings(self, parts, bits):
        got = self._fold(_columns(*parts))
        assert got.values.view(np.uint32).tolist() == [bits]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_three_flt_max_overflow_to_inf(self, sign):
        # The float32 cast warns, exactly as the big-int render does.
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = self._fold(_columns(*[[sign * FLT_MAX]] * 3))
        assert got.values.tolist() == [sign * float("inf")]

    def test_denormals_beside_flt_max_span_all_nine_limbs(self):
        parts = _columns(
            [FLT_MAX, DENORMAL, 0.0, -DENORMAL], [DENORMAL, -FLT_MAX, -0.0, 1.5]
        )
        got = self._fold(parts)
        assert (got.state.base, got.state.width) == (0, 9)

    @pytest.mark.parametrize("size", [0, 5])
    def test_all_zero_and_empty_vectors(self, size):
        got = self._fold([np.zeros(size, dtype=np.float32), -np.zeros(size, np.float32)])
        assert got.state.width == 0
        assert got.values.view(np.uint32).tolist() == [0] * size
        assert got.values.dtype == np.float32

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_input_raises_naming_the_first_offender(self, bad):
        values = np.array([1.0, bad, float("nan")], dtype=np.float32)
        with pytest.raises(ValueError) as new:
            self.stream.compress(values)
        with pytest.raises(ValueError) as old:
            oracle.compress(values)
        assert str(new.value) == str(old.value)
        assert str(new.value).endswith(f"got {bad!r}")
        # ... and on the stateless re-entry path of a fold.
        part = CodecResult(payload_nbytes=16, values=values)
        with pytest.raises(ValueError, match="finite gradients"):
            self.stream.aggregate_compressed([part])

    def test_gaussian_state_is_a_two_or_three_limb_window(self):
        values = _grads(1, n=1 << 16, seed=19)[0]
        state = self.stream.compress(values).state
        assert isinstance(state, LimbWindow)
        assert not state.limbs.flags.writeable
        assert state.limbs.nbytes <= 24 * values.size
        np.testing.assert_array_equal(
            render_limbs(state).view(np.uint32), values.view(np.uint32)
        )

    def test_fold_of_disjoint_windows(self):
        tiny = np.float32(2.0**-140) * np.arange(1, 6, dtype=np.float32)
        huge = np.float32(2.0**100) * np.arange(1, 6, dtype=np.float32)
        low, high = encode_limbs(tiny), encode_limbs(huge)
        assert low.base + low.width < high.base
        got = self._fold([tiny, huge, -huge])
        assert (got.state.base, got.state.width) == (
            low.base,
            high.base + high.width - low.base,
        )
        np.testing.assert_array_equal(got.values, tiny)

    def test_render_crosses_block_boundaries(self):
        # Longer than one render block, so columns are stitched.
        parts = _grads(3, n=40_001, seed=23)
        self._fold(parts)

    def test_mis_sized_state_raises_instead_of_truncating(self):
        # zip() over a short big-int tuple used to fold this to a
        # 2-element aggregate.
        values = np.arange(1, 6, dtype=np.float32)
        good = self.stream.compress(values)
        short = CodecResult(
            payload_nbytes=good.payload_nbytes,
            values=values,
            state=encode_limbs(values[:2]),
        )
        with pytest.raises(ValueError, match=r"2 images for 5 values"):
            self.stream.aggregate_compressed([good, short])

    def test_foreign_state_is_treated_as_absent(self):
        values = np.arange(1, 6, dtype=np.float32)
        good = self.stream.compress(values)
        foreign = CodecResult(
            payload_nbytes=good.payload_nbytes,
            values=values,
            state=np.array([7], dtype=np.int64),
        )
        got = self.stream.aggregate_compressed([good, foreign])
        np.testing.assert_array_equal(got.values, 2 * values)

    def test_lazy_carry_bound_is_checked(self):
        part = self.stream.compress(np.ones(3, dtype=np.float32))
        many = CodecResult(
            payload_nbytes=part.payload_nbytes,
            values=part.values,
            fan_in=2**30,
            state=part.state,
        )
        with pytest.raises(ValueError, match=r"at most 2147483647 streams"):
            self.stream.aggregate_compressed([many, many])

    def test_limb_window_rejects_bare_index_arrays(self):
        with pytest.raises(TypeError):
            LimbWindow(0, np.zeros(4, dtype=np.int64))
        with pytest.raises(TypeError):
            LimbWindow(0, np.zeros((2, 4), dtype=np.float64))


class TestThc:
    def _lattice(self, stream):
        bits = int(stream.params.get("bits", 8))
        limit = float(stream.params.get("limit", 2.0**-5))
        step = 2.0 * limit / (2**bits - 1)
        return bits, limit, step

    @pytest.mark.parametrize("fan_in", [2, 4, 8])
    def test_within_half_step_of_recompression(self, fan_in):
        stream = profile_for("thc")
        _bits, limit, step = self._lattice(stream)
        # Small enough that the summed gradient stays inside the base
        # lattice: compress() clips at +/-limit, while the aggregated
        # lattice legitimately spans +/-fan_in*limit.
        grads = [g * 0.25 for g in _grads(fan_in, seed=10 + fan_in)]
        parts = [stream.compress(g) for g in grads]
        assert np.max(np.abs(np.sum(grads, axis=0))) < limit
        agg = stream.aggregate_compressed(parts)
        # Re-quantizing the summed reconstructions onto the base
        # lattice moves each element at most half a step; the exact
        # index-domain sum cannot drift further than that.
        reference = stream.compress(
            np.sum(
                [p.values for p in parts], axis=0, dtype=np.float64
            ).astype(np.float32)
        )
        diff = np.max(np.abs(agg.values - reference.values))
        assert diff <= step / 2 + step * 2.0**-16
        assert agg.fan_in == fan_in

    @pytest.mark.parametrize("fan_in", [2, 4, 8])
    def test_aggregated_payload_widens_with_fan_in(self, fan_in):
        stream = profile_for("thc")
        bits, _limit, _step = self._lattice(stream)
        parts = [stream.compress(g) for g in _grads(fan_in, seed=2)]
        agg = stream.aggregate_compressed(parts)
        index_bits = bits + (fan_in - 1).bit_length()
        n = parts[0].values.size
        assert agg.payload_nbytes == stream.aggregate_payload_nbytes(
            n * 4, [p.payload_nbytes for p in parts], fan_in
        )
        assert agg.payload_nbytes > parts[0].payload_nbytes
        assert agg.payload_nbytes == pytest.approx(
            4 + -(-n * index_bits // 8), abs=8
        )

    def test_tree_equals_flat_bit_exactly(self):
        stream = profile_for("thc")
        parts = [stream.compress(g) for g in _grads(8, seed=7)]
        flat = stream.aggregate_compressed(parts)
        tree = stream.aggregate_compressed(
            [
                stream.aggregate_compressed(parts[0:4]),
                stream.aggregate_compressed(parts[4:8]),
            ]
        )
        np.testing.assert_array_equal(flat.values, tree.values)
        assert flat.payload_nbytes == tree.payload_nbytes

    def test_stateless_parts_recover_exact_indices(self):
        # The float32 rendering is fine enough that lattice indices are
        # recoverable exactly — the property that makes the endpoint
        # recompress path bit-equal to the switch tree.
        stream = profile_for("thc")
        parts = [stream.compress(g) for g in _grads(4, seed=9)]
        with_state = stream.aggregate_compressed(parts)
        without = stream.aggregate_compressed(
            [_strip_state(p) for p in parts]
        )
        np.testing.assert_array_equal(with_state.values, without.values)

    def test_mis_sized_state_raises_instead_of_broadcasting(self):
        stream = profile_for("thc")
        good = stream.compress(_grads(1, n=5, seed=1)[0])
        short = CodecResult(
            payload_nbytes=good.payload_nbytes,
            values=good.values,
            state=np.array([7], dtype=np.int64),
        )
        with pytest.raises(ValueError, match=r"shape \(1,\) for 5 values"):
            stream.aggregate_compressed([good, short])

    @pytest.mark.parametrize("bits", [8, 8.0, np.int64(8), np.float32(8.0)])
    def test_integral_bits_spellings_agree(self, bits):
        values = _grads(1, seed=6)[0]
        got = profile_for("thc", bits=bits).compress(values)
        want = profile_for("thc").compress(values)
        np.testing.assert_array_equal(got.values, want.values)
        assert got.payload_nbytes == want.payload_nbytes

    @pytest.mark.parametrize(
        "bits", [True, False, 8.9, 0, 17, -1, float("nan"), float("inf"), "8", None]
    )
    def test_bits_rejects_everything_else(self, bits):
        # 8.9 used to run at 8 bits and True at 1 bit.
        stream = profile_for("thc", bits=bits)
        with pytest.raises(ValueError, match=r"thc bits .*\[1, 16\]"):
            stream.compress(_grads(1)[0])

    @pytest.mark.parametrize(
        "limit", [float("nan"), float("inf"), float("-inf"), 0.0, -0.5, "1", None]
    )
    def test_limit_must_be_finite_and_positive(self, limit):
        # NaN used to reconstruct all-NaN and inf all -inf.
        stream = profile_for("thc", limit=limit)
        values = _grads(1)[0]
        with pytest.raises(ValueError, match=r"thc limit .*finite positive"):
            stream.compress(values)
        with pytest.raises(ValueError, match=r"thc limit"):
            stream.error_bound(values)
        with pytest.raises(ValueError, match=r"thc limit"):
            stream.aggregate_payload_nbytes(values.nbytes, [16, 16], 2)


class TestFftSparse:
    def test_registered_lossy_error_feedback_endpoint_codec(self):
        codec = get_codec("fft_sparse")
        assert codec.capabilities() == frozenset(
            {CAP_LOSSY, CAP_ERROR_FEEDBACK}
        )
        assert not codec.homomorphic

    def test_keeps_fraction_of_spectrum(self):
        stream = profile_for("fft_sparse")
        grad = _grads(1, n=1024, seed=4)[0]
        result = stream.compress(grad)
        assert result.payload_nbytes < grad.nbytes
        bound = stream.error_bound(grad)
        assert bound is not None
        assert np.max(np.abs(result.values - grad)) <= bound
