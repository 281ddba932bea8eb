"""Huffman coding: package-merge, canonical codes, bit-exact streams."""

import heapq
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.biosignal.huffman import (
    HuffmanCode,
    HuffmanDecoder,
    HuffmanEncoder,
    MAX_CODE_LENGTH,
    canonical_codes,
    package_merge,
)
from repro.biosignal import huffman
from repro.biosignal.quantize import NUM_SYMBOLS
from repro.errors import ConfigurationError
from repro.kernels import BenchmarkSpec, build_benchmark

frequency_lists = st.lists(st.integers(min_value=1, max_value=10_000),
                           min_size=2, max_size=64)


def optimal_unlimited_cost(frequencies):
    """Classic Huffman cost via a heap (no length limit)."""
    heap = list(frequencies)
    heapq.heapify(heap)
    cost = 0
    while len(heap) > 1:
        a, b = heapq.heappop(heap), heapq.heappop(heap)
        cost += a + b
        heapq.heappush(heap, a + b)
    return cost


def package_merge_reference(frequencies, max_length=MAX_CODE_LENGTH):
    """Package-merge with an explicit symbol multiset per package: the
    oracle for the counting form in :func:`package_merge` (same sort,
    originals before packages at equal weight)."""
    n = len(frequencies)
    if n == 1:
        return [1]
    originals = sorted(((float(f), {s: 1})
                        for s, f in enumerate(frequencies)),
                       key=lambda item: item[0])
    level = list(originals)
    for _ in range(max_length - 1):
        packages = []
        for index in range(0, len(level) - 1, 2):
            weight = level[index][0] + level[index + 1][0]
            contents = Counter(level[index][1])
            contents.update(level[index + 1][1])
            packages.append((weight, dict(contents)))
        level = sorted(originals + packages, key=lambda item: item[0])
    lengths = [0] * n
    for weight, contents in level[: 2 * (n - 1)]:
        for symbol, count in contents.items():
            lengths[symbol] += count
    return lengths


class TestCountingForm:
    """The counting form keeps the reference's tie order, so equal
    weights get the same lengths and every digest stays put."""

    def test_matches_reference_on_tied_frequencies(self):
        rng = random.Random(1990)
        for __ in range(300):
            n = rng.randint(2, 600)
            top = rng.choice([1, 2, 3, 8, 50, 10_000])
            freqs = [rng.randint(1, top) for __ in range(n)]
            max_length = max(rng.choice([15, 11, 9]),
                             (n - 1).bit_length())
            assert package_merge(freqs, max_length) \
                == package_merge_reference(freqs, max_length), \
                (n, top, max_length)

    @pytest.mark.parametrize("samples,measurements,seed",
                             [(32, 16, 12345), (64, 32, 2012),
                              (512, 256, 2012)])
    def test_matches_reference_on_benchmark_alphabets(
            self, samples, measurements, seed):
        seen = []

        def record(freqs, max_length):
            seen.append((list(freqs), max_length))
            return package_merge(freqs, max_length)

        with mock.patch.object(huffman, "package_merge", record):
            build_benchmark(BenchmarkSpec(n_samples=samples,
                                          n_measurements=measurements,
                                          seed=seed))
        assert seen
        for freqs, max_length in seen:
            assert len(freqs) == NUM_SYMBOLS
            assert package_merge(freqs, max_length) \
                == package_merge_reference(freqs, max_length)


class TestPackageMerge:
    @given(frequency_lists)
    @settings(max_examples=60, deadline=None)
    def test_kraft_inequality(self, freqs):
        lengths = package_merge(freqs, max_length=15)
        assert sum(2.0 ** -l for l in lengths) <= 1.0 + 1e-12
        assert all(1 <= l <= 15 for l in lengths)

    @given(frequency_lists)
    @settings(max_examples=40, deadline=None)
    def test_matches_unlimited_huffman_when_limit_is_loose(self, freqs):
        """With a generous limit, package-merge is cost-optimal."""
        lengths = package_merge(freqs, max_length=32)
        cost = sum(f * l for f, l in zip(freqs, lengths))
        assert cost == optimal_unlimited_cost(freqs)

    @given(frequency_lists)
    @settings(max_examples=40, deadline=None)
    def test_more_frequent_never_longer(self, freqs):
        lengths = package_merge(freqs, max_length=15)
        pairs = sorted(zip(freqs, lengths))
        for (f1, l1), (f2, l2) in zip(pairs, pairs[1:]):
            if f1 < f2:
                assert l1 >= l2

    def test_length_limit_enforced(self):
        # Exponential frequencies would produce a degenerate deep tree.
        freqs = [2 ** i for i in range(20)]
        lengths = package_merge(freqs, max_length=8)
        assert max(lengths) <= 8

    def test_impossible_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            package_merge([1] * 10, max_length=3)

    def test_single_symbol(self):
        assert package_merge([5]) == [1]

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            package_merge([1, 0, 2])


class TestCanonicalCodes:
    @given(frequency_lists)
    @settings(max_examples=40, deadline=None)
    def test_prefix_free(self, freqs):
        lengths = package_merge(freqs, max_length=15)
        codes = canonical_codes(lengths)
        bit_strings = [format(code, f"0{length}b")
                       for code, length in zip(codes, lengths)]
        assert len(set(bit_strings)) == len(bit_strings)
        for a in bit_strings:
            for b in bit_strings:
                if a is not b:
                    assert not b.startswith(a) or a == b


class TestHuffmanCode:
    def test_paper_lut_footprint(self):
        code = HuffmanCode.from_training_symbols([256] * 100)
        assert len(code.lengths) == NUM_SYMBOLS
        assert code.lut_bytes == 1024  # per LUT, two LUTs total
        assert len(code.code_lut_words()) == NUM_SYMBOLS
        assert all(0 <= w <= 0xFFFF for w in code.code_lut_words())

    def test_every_symbol_gets_a_code(self):
        """Add-one smoothing: unseen symbols must still encode."""
        code = HuffmanCode.from_training_symbols([0, 0, 0])
        assert all(l >= 1 for l in code.lengths)
        assert max(code.lengths) <= MAX_CODE_LENGTH

    def test_frequent_symbol_gets_short_code(self):
        symbols = [256] * 10_000 + [10, 300]
        code = HuffmanCode.from_training_symbols(symbols)
        assert code.lengths[256] == min(code.lengths)

    def test_kraft_violation_rejected(self):
        with pytest.raises(ConfigurationError):
            HuffmanCode(lengths=(1, 1, 1), codes=(0, 1, 1))

    def test_expected_length(self):
        code = HuffmanCode.from_frequencies([8, 4, 2, 2])
        assert abs(code.expected_length([8, 4, 2, 2]) - 1.75) < 1e-12


symbol_lists = st.lists(st.integers(min_value=0,
                                    max_value=NUM_SYMBOLS - 1),
                        min_size=0, max_size=300)


class TestRoundTrip:
    @pytest.fixture(scope="class")
    def codec(self):
        import numpy as np
        rng = np.random.default_rng(5)
        training = rng.normal(256, 30, size=5000).astype(int) % NUM_SYMBOLS
        code = HuffmanCode.from_training_symbols(training.tolist())
        return HuffmanEncoder(code), HuffmanDecoder(code)

    @given(symbol_lists)
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_round_trip(self, codec, symbols):
        encoder, decoder = codec
        bits, words = encoder.encode_symbols(symbols)
        assert decoder.decode_bits(bits, words) == symbols

    @given(symbol_lists)
    @settings(max_examples=40, deadline=None)
    def test_bit_count_matches_lengths(self, codec, symbols):
        encoder, __ = codec
        bits, words = encoder.encode_symbols(symbols)
        assert bits == sum(encoder.code.lengths[s] for s in symbols)
        assert len(words) == (bits + 15) // 16

    def test_final_word_left_aligned(self, codec):
        encoder, __ = codec
        symbol = 256
        length = encoder.code.lengths[symbol]
        code = encoder.code.codes[symbol]
        bits, words = encoder.encode_symbols([symbol])
        assert bits == length
        assert words[0] == (code << (16 - length)) & 0xFFFF

    def test_measurement_encoding(self, codec):
        encoder, decoder = codec
        measurements = [0, 16, 0xFFF0, 100, 0x8000]
        bits, words = encoder.encode_measurements(measurements)
        decoded = decoder.decode_measurements(bits, words)
        assert len(decoded) == len(measurements)

    def test_truncated_stream_rejected(self, codec):
        encoder, decoder = codec
        bits, words = encoder.encode_symbols([1, 2, 3])
        with pytest.raises(ConfigurationError):
            decoder.decode_bits(bits - 1, words)
