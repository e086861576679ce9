"""An RNG-free float32 corpus that reaches every codec class and edge case.

Every 65 521st uint32 word (a prime stride, so the words cover all signs
and exponents with varied mantissas) plus ±0, ±inf, a quiet and a
signalling NaN and denormals.  ``tests/core/test_codec_golden.py`` pins
the codec's wire bytes on it; CI drives the CLI with it::

    python tools/codec_corpus.py write corpus.npy
    python tools/codec_corpus.py check restored.npy 10   # == core.roundtrip

``check`` exits non-zero unless the restored file is bit-equal (uint32
view) to ``core.roundtrip(corpus, ErrorBound(B))``.
"""

from __future__ import annotations

import sys

import numpy as np

SPECIAL_WORDS = (
    0x00000000,  # +0
    0x80000000,  # -0
    0x7F800000,  # +inf
    0xFF800000,  # -inf
    0x7FC00000,  # quiet NaN
    0x7FA00001,  # signalling NaN
    0x00000001,  # smallest denormal
    0x807FFFFF,  # largest negative denormal
    0x00400000,  # a mid denormal
)


def corpus() -> np.ndarray:
    """The corpus as float32 (build anything else from its uint32 view)."""
    stride = np.arange(0, 2**32, 65521, dtype=np.uint64).astype(np.uint32)
    words = np.concatenate([stride, np.array(SPECIAL_WORDS, dtype=np.uint32)])
    return words.view(np.float32)


def main(argv: list) -> int:
    if argv[:1] == ["write"] and len(argv) == 2:
        np.save(argv[1], corpus())
        return 0
    if argv[:1] == ["check"] and len(argv) == 3:
        from repro.core import ErrorBound, roundtrip

        restored = np.load(argv[1])
        expected = roundtrip(corpus(), ErrorBound(int(argv[2])))
        if restored.dtype != np.float32 or not np.array_equal(
            restored.view(np.uint32), expected.view(np.uint32)
        ):
            print(f"{argv[1]}: not bit-equal to core.roundtrip at 2^-{argv[2]}")
            return 1
        print(f"{argv[1]}: {restored.size} values bit-equal to core.roundtrip")
        return 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
