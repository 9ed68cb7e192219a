"""Same-process floors for the SECDED codec's fast paths.

Each ratio times two implementations in one process on the same random
words, so it holds on any machine: the table-driven Hamming(72,64)
codec against the bit-loop reference (typically ~2.5x encode, ~6-8x
decode), and the vectorized ``repro.ecc.batch`` arrays against the
scalar word loop (typically ~20-40x).  The floors sit far below those
values; tripping one means the fast path grossly regressed or the gate
timed the wrong function.  The batch floor applies on numpy builds only
and skips itself on a scalar-only build (no numpy, or
``REPRO_NO_NUMPY=1``).
"""

import random

import pytest

from repro.ecc import batch, hamming

from benchmarks.perf.common import PERF_SEED, time_call

REPEATS = 5
CODEC_WORDS = 2_000
BATCH_WORDS = 20_000

ENCODE_VS_REFERENCE_FLOOR = 1.2
DECODE_VS_REFERENCE_FLOOR = 2.0
BATCH_VS_SCALAR_FLOOR = 5.0


def _words(n_words: int, seed: int):
    rng = random.Random(seed)
    words = [rng.getrandbits(64) for _ in range(n_words)]
    return words, [hamming.encode(w) for w in words]


def _ratio(slow, fast) -> float:
    return time_call(slow, REPEATS) / time_call(fast, REPEATS)


def test_codec_beats_the_bit_loop_reference():
    words, checks = _words(CODEC_WORDS, PERF_SEED * 9176 + 11)
    pairs = list(zip(words, checks))

    def encode():
        for w in words:
            hamming.encode(w)

    def encode_reference():
        for w in words:
            hamming._encode_reference(w)

    def decode():
        for w, c in pairs:
            hamming.decode(w, c)

    def decode_reference():
        for w, c in pairs:
            hamming._decode_reference(w, c)

    encode_ratio = _ratio(encode_reference, encode)
    decode_ratio = _ratio(decode_reference, decode)
    print(f"codec vs reference: encode {encode_ratio:.2f}x, "
          f"decode {decode_ratio:.2f}x")
    assert encode_ratio >= ENCODE_VS_REFERENCE_FLOOR
    assert decode_ratio >= DECODE_VS_REFERENCE_FLOOR


@pytest.mark.skipif(not batch.HAS_NUMPY, reason="scalar-only build")
def test_batch_codec_beats_the_scalar_loop():
    words, checks = _words(BATCH_WORDS, PERF_SEED * 4243 + 17)
    np = batch.np
    word_arr = np.array(words, dtype=np.uint64)
    check_arr = np.array(checks, dtype=np.uint8)

    def scalar_encode():
        for w in words:
            hamming.encode(w)

    def scalar_decode():
        for w, c in zip(words, checks):
            hamming.decode(w, c)

    encode_ratio = _ratio(scalar_encode, lambda: batch.encode_words(word_arr))
    decode_ratio = _ratio(
        scalar_decode, lambda: batch.decode_words(word_arr, check_arr)
    )
    print(f"batch codec vs scalar loop: encode {encode_ratio:.1f}x, "
          f"decode {decode_ratio:.1f}x")
    assert encode_ratio >= BATCH_VS_SCALAR_FLOOR
    assert decode_ratio >= BATCH_VS_SCALAR_FLOOR
