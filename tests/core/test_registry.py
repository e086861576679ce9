"""Codec registry: round-trips, error bounds, and profile resolution."""

import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.baselines import qsgd, snappy_like, sz_like, top_k, truncate_lsbs
from repro.core import (
    CAP_ERROR_FEEDBACK,
    CAP_FIXED_POINT,
    DEFAULT_BOUND,
    ErrorFeedbackCompressor,
    StreamProfile,
    available_codecs,
    codec_tos,
    get_codec,
    inceptionn_profile,
    profile_for,
    quantize,
)
from repro.core.registry import register_codec
from repro.hardware import InceptionnNic
from repro.network import TOS_COMPRESS, TOS_DEFAULT
from repro.transport.wire import build_wire_message


def _sample(size=512, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(size) * 0.004).astype(np.float32)


@pytest.mark.parametrize("name", available_codecs())
def test_round_trip_respects_declared_bound(name):
    codec = get_codec(name)
    values = _sample()
    result = codec.compress(values, **codec.default_params())

    assert result.values.dtype == np.float32
    assert result.values.shape == values.shape
    assert result.payload_nbytes > 0

    bound = codec.error_bound(values, **codec.default_params())
    if codec.lossless:
        assert bound in (None, 0.0)
        np.testing.assert_array_equal(result.values, values)
    else:
        assert bound is not None and bound > 0
        assert float(np.max(np.abs(result.values - values))) <= bound


@pytest.mark.parametrize("name", available_codecs())
def test_every_codec_has_a_registered_tos(name):
    tos = codec_tos(name)
    assert TOS_DEFAULT < tos <= 0xFF
    assert profile_for(name).tos == tos


# -- the codec contract, one table --------------------------------------------


def _sz(values):
    blob = sz_like.compress(values, 2.0**-10)
    return len(blob), sz_like.decompress(blob, 2.0**-10)


def _snappy(values):
    blob = snappy_like.compress(values.tobytes())
    return len(blob), np.frombuffer(snappy_like.decompress(blob), dtype=np.float32)


def _of(result):
    return result.payload_nbytes, result.values


def _inceptionn(values):
    nbits, reconstruction = quantize(values, DEFAULT_BOUND)
    return -(-nbits // 8), reconstruction


#: name -> (ToS byte, kernel).  The ToS is wire contract: traces and
#: captures are keyed by it, so a name never moves.  ``kernel`` is what
#: ``compress`` at default parameters must equal, as ``values ->
#: (payload_nbytes, reconstruction)``; ``None`` where the codec class is
#: the kernel (pinned against references in ``test_homomorphic.py``).
CONTRACT = {
    "fft_sparse": (0x4C, None),
    "identity": (0x2C, lambda v: (v.nbytes, v)),
    "inceptionn": (0x28, _inceptionn),
    "lossless_hc": (0x44, None),
    "quantization": (0x34, lambda v: _of(qsgd(v, np.random.default_rng(0), bits=4))),
    "snappy_like": (0x40, _snappy),
    "sparsification": (0x38, lambda v: _of(top_k(v, 0.9))),
    "sz_like": (0x3C, _sz),
    "thc": (0x48, None),
    "truncation": (0x30, lambda v: (v.size * 2, truncate_lsbs(v, 16))),
}


def test_registered_names_and_tos_bytes_are_pinned():
    # Through the package root alone: a codec module nothing imports
    # would vanish from this listing (and from ``repro codecs``).
    assert {name: codec_tos(name) for name in available_codecs()} == {
        name: tos for name, (tos, _) in CONTRACT.items()
    }


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, kernel) in CONTRACT.items() if kernel)
)
def test_compress_is_its_kernel(name):
    kernel = CONTRACT[name][1]
    values = _sample(size=2048, seed=7)
    codec = get_codec(name)
    result = codec.compress(values, **codec.default_params())
    payload_nbytes, reconstruction = kernel(values)
    assert result.payload_nbytes == payload_nbytes
    # Bit identity, not ``==``: -0.0 vs +0.0 and NaN payloads count.
    np.testing.assert_array_equal(
        result.values.view(np.uint32), reconstruction.view(np.uint32)
    )


# -- fixed points: a forwarded reconstruction needs no second encode ---------

#: Codecs advertising CAP_FIXED_POINT.  Every lossless codec does; the
#: lossy ones hold the property below.  ``sparsification`` and ``thc``
#: hold it on finite inputs only (a NaN is dropped, or cast to an
#: out-of-lattice index, and re-encodes differently), and QSGD
#: (``quantization``) and ``fft_sparse`` move a reconstruction again.
FIXED_POINT_CODECS = (
    "identity",
    "inceptionn",
    "lossless_hc",
    "snappy_like",
    "sz_like",
    "truncation",
)


def test_fixed_point_claims_are_pinned():
    claims = tuple(
        name
        for name in available_codecs()
        if CAP_FIXED_POINT in get_codec(name).capabilities()
    )
    assert claims == FIXED_POINT_CODECS


def _boundary_words(b):
    """Float32 magnitudes (as bits) on and one ulp either side of the
    magnitude-class boundaries of the bound ``2**-b``: zero, the
    subnormals, ``2**-b``, ``2**(7-b)``, 1.0, inf and NaNs."""
    anchors = [
        int(np.float32(value).view(np.uint32))
        for value in (0.0, 2.0**-b, 2.0 ** (7 - b), 1.0)
    ]
    anchors += [0x00000001, 0x007FFFFF, 0x7F800000, 0x7FC00000]
    return sorted({(word + d) & 0x7FFFFFFF for word in anchors for d in (-1, 0, 1)})


def _boundary_gradients(b):
    """Vectors of signed boundary (or arbitrary) words in runs of ties."""
    magnitude = st.one_of(
        st.sampled_from(_boundary_words(b)), st.integers(0, 0x7FFFFFFF)
    )
    word = st.builds(lambda m, neg: m | (neg << 31), magnitude, st.booleans())
    runs = st.lists(st.tuples(word, st.integers(1, 6)), min_size=1, max_size=24)
    return runs.map(
        lambda rs: np.array(
            [w for w, count in rs for _ in range(count)], dtype=np.uint32
        ).view(np.float32)
    )


def _fixed_point_cases():
    for name in FIXED_POINT_CODECS:
        if name == "inceptionn":
            for b in (6, 8, 10):
                yield pytest.param(name, {"bound": b}, b, id=f"inceptionn-b{b}")
        else:
            yield pytest.param(name, get_codec(name).default_params(), 10, id=name)


@pytest.mark.parametrize("name, params, b", list(_fixed_point_cases()))
def test_fixed_point_codecs_re_encode_a_reconstruction_to_itself(name, params, b):
    codec = get_codec(name)

    @settings(max_examples=150, deadline=None)
    @given(_boundary_gradients(b))
    def holds(values):
        try:
            first = codec.compress(values, **params)
        except ValueError:
            return  # lossless_hc refuses non-finite input: nothing is sent
        again = codec.compress(first.values, **params)
        assert again.payload_nbytes == first.payload_nbytes
        np.testing.assert_array_equal(
            again.values.view(np.uint32), first.values.view(np.uint32)
        )

    holds()


@pytest.mark.parametrize("name", available_codecs())
def test_error_feedback_wraps_exactly_the_codecs_that_advertise_it(name):
    codec = get_codec(name)
    if CAP_ERROR_FEEDBACK not in codec.capabilities():
        with pytest.raises(ValueError, match="'error-feedback' capability"):
            ErrorFeedbackCompressor(codec)
        return
    ef = ErrorFeedbackCompressor(codec, **codec.default_params())
    sent = np.zeros(2048, dtype=np.float64)
    true = np.zeros(2048, dtype=np.float64)
    for step in range(5):
        gradient = _sample(size=2048, seed=step)
        true += gradient
        sent += ef.compress(gradient).values
    # No mass lost, only delayed: what was not sent is the residual.
    np.testing.assert_allclose(sent + ef.residual, true, rtol=0, atol=1e-6)


def test_core_never_names_the_comparator_package():
    core = pathlib.Path(repro.__file__).parent / "core"
    offenders = [
        path.name
        for path in sorted(core.glob("*.py"))
        if "repro.baselines" in path.read_text()
    ]
    assert offenders == []


def test_unknown_codec_raises_with_available_names():
    with pytest.raises(KeyError) as excinfo:
        get_codec("definitely_not_a_codec")
    message = excinfo.value.args[0]
    assert "definitely_not_a_codec" in message
    for name in available_codecs():
        assert name in message


def test_unknown_profile_raises_too():
    with pytest.raises(KeyError):
        profile_for("nope").resolve()


def test_raw_stream_is_not_compressing():
    # Raw is ``None``: even an enabled NIC sends it as is, under ToS 0x00.
    nic = InceptionnNic(0, DEFAULT_BOUND)
    msg = build_wire_message(0, 1, stream=None, array=_sample(), nic=nic)
    assert not msg.compressed and msg.codec is None
    assert msg.tos == TOS_DEFAULT


def test_profile_params_override_defaults():
    values = _sample()
    default = profile_for("truncation").compress(values)
    aggressive = profile_for("truncation", bits=24).compress(values)
    assert aggressive.payload_nbytes < default.payload_nbytes


def test_inceptionn_profile_matches_direct_codec():
    values = _sample()
    profile = inceptionn_profile()
    codec = get_codec("inceptionn")
    via_profile = profile.compress(values)
    direct = codec.compress(values, **codec.default_params())
    np.testing.assert_array_equal(via_profile.values, direct.values)
    assert via_profile.payload_nbytes == direct.payload_nbytes
    assert profile.tos == codec_tos("inceptionn") == 0x28


@pytest.mark.parametrize("spelling", [10, 10.0, np.int64(10), 2**-10, 2.0**-10])
def test_inceptionn_bound_accepts_exponent_or_literal_bound(spelling):
    # sz_like takes the same parameter name as the float 2**-b.
    from repro.core import ErrorBound

    values = _sample()
    expected = inceptionn_profile(ErrorBound(10)).compress(values)
    got = profile_for("inceptionn", bound=spelling).compress(values)
    assert got.payload_nbytes == expected.payload_nbytes
    np.testing.assert_array_equal(got.values, expected.values)
    assert profile_for("inceptionn", bound=spelling).error_bound(values) == 2**-10


@pytest.mark.parametrize(
    "bad", [True, False, 10.7, 0.3, 0, 16, -3, float("nan"), float("inf"), "10", None]
)
def test_inceptionn_bound_rejects_everything_else(bad):
    # 10.7 used to truncate to 10 and True became exponent 1.
    with pytest.raises(ValueError):
        profile_for("inceptionn", bound=bad).compress(_sample())


def test_inceptionn_bound_error_names_both_spellings():
    with pytest.raises(ValueError, match=r"exponent.*2\*\*-b"):
        profile_for("inceptionn", bound=10.7).compress(_sample())


def test_compression_ratio_property():
    values = _sample(size=1024)
    result = profile_for("truncation").compress(values)
    assert result.compression_ratio == pytest.approx(
        values.nbytes / result.payload_nbytes
    )


# -- listing determinism (rule R10 runtime counterpart) ----------------------


def test_listings_are_sorted_not_insertion_ordered():
    """User-visible registry listings must not leak import order."""
    from repro.core import available_codecs
    from repro.distributed import available_strategies

    assert list(available_codecs()) == sorted(available_codecs())
    assert list(available_strategies()) == sorted(available_strategies())


# -- the wire contract, enforced where it is made -----------------------------


def _claim(name, tos):
    """A thunk registering a stub codec called ``name`` under ``tos``."""
    stub = type("_Stub", (), {"name": name})()
    return lambda: register_codec(stub, tos=tos)


@pytest.mark.parametrize(
    "violate, error, message",
    [
        pytest.param(
            _claim("inceptionn", 0x7C),
            ValueError,
            "codec 'inceptionn' is already registered",
            id="duplicate-wire-name",
        ),
        # The scan is sorted, so the claimant named does not depend on
        # the order plugins registered in.
        pytest.param(
            _claim("zz-test-stub", 0x44),
            ValueError,
            "ToS 0x44 already claimed by codec 'lossless_hc'",
            id="duplicate-tos-names-claimant",
        ),
        pytest.param(
            _claim("zz-test-stub", TOS_COMPRESS),
            ValueError,
            "ToS 0x28 already claimed by codec 'inceptionn'",
            id="second-claimant-of-0x28",
        ),
        pytest.param(
            _claim("zz-test-stub", 0x100),
            ValueError,
            "ToS must fit one byte, got 0x100",
            id="tos-above-0xff",
        ),
        pytest.param(
            _claim("zz-test-stub", TOS_DEFAULT),
            ValueError,
            "the default ToS cannot mark compressible streams",
            id="tos-is-default",
        ),
        pytest.param(
            lambda: profile_for("zz-test-stub"),
            KeyError,
            "unknown codec 'zz-test-stub'; available codecs: fft_sparse, ",
            id="profile_for-unregistered-name",
        ),
        pytest.param(
            lambda: StreamProfile(codec="zz-test-stub").tos,
            KeyError,
            "unknown codec 'zz-test-stub'; available codecs: fft_sparse, ",
            id="tos-unregistered-name",
        ),
    ],
)
def test_registry_contract_violation_raises(violate, error, message):
    """Each breach of the ToS wire contract raises where it is made,
    and a refused claim leaves no trace in the registry."""
    before = available_codecs()
    with pytest.raises(error, match=re.escape(message)):
        violate()
    assert available_codecs() == before
    assert 0x7C not in {codec_tos(name) for name in before}
