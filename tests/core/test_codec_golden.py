"""Golden wire bytes: SHA-256 pins of the codec's output on a fixed corpus.

The digests were recorded before the uint8-index kernel rewrite, so a
kernel change cannot move the wire format, the wire size or a
reconstruction bit without failing a pin that predates it.  The corpus
(``tools/codec_corpus.py``) draws no random numbers.
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import ErrorBound, compress, decompress, quantize

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
from codec_corpus import corpus  # noqa: E402

# bound -> (wire bits, sha256 of to_bytes(), sha256 of the uint32 reconstruction)
GOLDEN = {
    1: (
        1190336,
        "55d0f6785081e730ddce2946ba4ef756ec2872057b03aae1bf37036243effe7a",
        "286404b42141ede3d9ab0bf0f33cd4fcea21db0c2ec3b6824004b98908e88095",
    ),
    6: (
        1200576,
        "3dc36bcc828f103687262e5c8733bb24b6af620fa3ed8f6e3bbbb3fdb812e873",
        "0ae67b39c88b3b3151cbc93235d3bc7f1b6afe852bd30b5bb3481dceb2f6bf5b",
    ),
    10: (
        1214920,
        "2d27050c493a2e1d7df2b0146b8a44482cfd16b91f85516559b282b6ae80f37d",
        "5e3d0edeaad0b475403c8f6a5bd51b153364a20f82c50f715d6dbd4a56cb7d42",
    ),
    15: (
        1235408,
        "466caed9dcf08e17f1f6b61884e4f349ac91cedb6399ca2d20f51ae0972895a8",
        "f36810ff09fb63cf0e67e478b7105a93e83a429aae5bf9e9f29b48dca8e5046c",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_corpus_is_the_recorded_one():
    x = corpus()
    assert x.dtype == np.float32 and x.size == 65561
    assert _sha256(x.view(np.uint32).tobytes()) == (
        "3531cb3e5c9fc0648e6ce752c855aeb38d694062ea365b72808eb2e32bedfe59"
    )


@pytest.mark.parametrize("exp", sorted(GOLDEN))
def test_wire_bytes_and_reconstruction_are_pinned(exp):
    nbits, wire_sha, recon_sha = GOLDEN[exp]
    x = corpus()
    bound = ErrorBound(exp)
    compressed = compress(x, bound)
    assert compressed.compressed_bits == nbits
    assert _sha256(compressed.to_bytes()) == wire_sha
    size, reconstruction = quantize(x, bound)
    assert size == nbits
    assert _sha256(reconstruction.view(np.uint32).tobytes()) == recon_sha
    assert _sha256(decompress(compressed).view(np.uint32).tobytes()) == recon_sha
