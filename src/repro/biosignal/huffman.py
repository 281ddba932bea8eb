"""Length-limited canonical Huffman coding.

The paper's Huffman stage encodes the (quantised) CS measurements for
wireless transmission through two data-dependent 1024-byte LUTs — with a
512-symbol alphabet that is one 16-bit *code* word and one 16-bit *length*
word per symbol, which is exactly what this module emits for the kernel.

Code lengths are limited to 15 bits (codes must fit a 16-bit LUT entry and
the core's 16-bit bit-packing register) using the package-merge algorithm,
then assigned canonically.  Every symbol receives a code even with zero
training frequency (add-one smoothing), because the alphabet is
data-dependent at run time.

The encoder mirrors the TamaRISC kernel bit for bit: codes are emitted
MSB-first and packed big-endian into 16-bit words; the final partial word
is left-aligned; the stream is described by its total bit count.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from repro.biosignal.quantize import NUM_SYMBOLS, dequantize_symbol, \
    quantize_measurement
from repro.errors import ConfigurationError

#: Maximum code length: codes live in 16-bit LUT entries.
MAX_CODE_LENGTH = 15


def package_merge(frequencies, max_length: int = MAX_CODE_LENGTH) -> list[int]:
    """Optimal length-limited code lengths (package-merge algorithm).

    ``frequencies``: positive weight per symbol.  Returns one code length
    per symbol with every length <= ``max_length`` and Kraft sum <= 1.
    """
    n = len(frequencies)
    if n == 0:
        raise ConfigurationError("no symbols")
    if any(f <= 0 for f in frequencies):
        raise ConfigurationError("frequencies must be positive")
    if n == 1:
        return [1]
    if (1 << max_length) < n:
        raise ConfigurationError(
            f"{max_length}-bit codes cannot cover {n} symbols")

    # Counting form (Larmore & Hirschberg 1990): each level merges the
    # sorted symbols with the pairs of the level before (originals first
    # at equal weight); its selected items are a prefix whose packages are
    # the level below's first pairs, so a length counts prefixes holding it.
    order = sorted(range(n), key=lambda s: float(frequencies[s]))
    originals = [(float(frequencies[s]), False) for s in order]
    level = originals
    kinds = [[False] * n]  # per level: which items are packages
    for _ in range(max_length - 1):
        packages = [(level[index][0] + level[index + 1][0], True)
                    for index in range(0, len(level) - 1, 2)]
        level = sorted(originals + packages, key=itemgetter(0))
        kinds.append([package for __, package in level])
    lengths = [0] * n
    take = 2 * (n - 1)
    for flags in reversed(kinds):
        packed = sum(flags[:take])
        for symbol in order[:take - packed]:
            lengths[symbol] += 1
        take = 2 * packed
    return lengths


def canonical_codes(lengths) -> list[int]:
    """Canonical code values for the given lengths (MSB-first semantics)."""
    order = sorted(range(len(lengths)), key=lambda s: (lengths[s], s))
    codes = [0] * len(lengths)
    code = 0
    previous_length = lengths[order[0]]
    for symbol in order:
        code <<= lengths[symbol] - previous_length
        codes[symbol] = code
        previous_length = lengths[symbol]
        code += 1
    return codes


@dataclass(frozen=True)
class HuffmanCode:
    """A canonical, length-limited Huffman code over 512 symbols."""

    lengths: tuple
    codes: tuple

    @classmethod
    def from_frequencies(cls, frequencies,
                         max_length: int = MAX_CODE_LENGTH) -> "HuffmanCode":
        lengths = package_merge(list(frequencies), max_length)
        return cls(lengths=tuple(lengths),
                   codes=tuple(canonical_codes(lengths)))

    @classmethod
    def from_training_symbols(cls, symbols,
                              alphabet: int = NUM_SYMBOLS) -> "HuffmanCode":
        """Build from observed symbols with add-one smoothing.

        Smoothing guarantees a code for every symbol: the Huffman LUTs are
        indexed by *runtime* data, so unseen symbols must still encode.
        """
        counts = Counter(symbols)
        frequencies = [counts.get(s, 0) + 1 for s in range(alphabet)]
        return cls.from_frequencies(frequencies)

    def __post_init__(self):
        if len(self.lengths) != len(self.codes):
            raise ConfigurationError("lengths/codes size mismatch")
        kraft = sum(2.0 ** -length for length in self.lengths)
        if kraft > 1.0 + 1e-9:
            raise ConfigurationError(f"Kraft inequality violated: {kraft}")
        if any(not 1 <= length <= 16 for length in self.lengths):
            raise ConfigurationError("code length outside 1..16")

    # -- LUTs for the kernel ------------------------------------------------

    def code_lut_words(self) -> list[int]:
        """Per-symbol 16-bit entries, code left-aligned (MSB-first emit)."""
        return [(code << (16 - length)) & 0xFFFF
                for code, length in zip(self.codes, self.lengths)]

    def length_lut_words(self) -> list[int]:
        return list(self.lengths)

    @property
    def lut_bytes(self) -> int:
        """1024 B per LUT for the 512-symbol alphabet."""
        return 2 * len(self.lengths)

    def expected_length(self, frequencies) -> float:
        """Mean code length in bits under the given symbol distribution."""
        total = float(sum(frequencies))
        return sum(f * length for f, length in
                   zip(frequencies, self.lengths)) / total


class HuffmanEncoder:
    """Bit-exact mirror of the TamaRISC Huffman kernel."""

    def __init__(self, code: HuffmanCode):
        self.code = code

    def encode_symbols(self, symbols) -> tuple[int, list[int]]:
        """Encode symbols; returns (total_bits, 16-bit words, MSB-first)."""
        accumulator = 0
        bits_in_accumulator = 0
        total_bits = 0
        words: list[int] = []
        lengths, codes = self.code.lengths, self.code.codes
        for symbol in symbols:
            length = lengths[symbol]
            code = codes[symbol]
            total_bits += length
            for position in range(length - 1, -1, -1):
                accumulator = ((accumulator << 1) |
                               ((code >> position) & 1)) & 0xFFFF
                bits_in_accumulator += 1
                if bits_in_accumulator == 16:
                    words.append(accumulator)
                    accumulator = 0
                    bits_in_accumulator = 0
        if bits_in_accumulator:
            words.append((accumulator << (16 - bits_in_accumulator))
                         & 0xFFFF)
        return total_bits, words

    def encode_measurements(self, measurements) -> tuple[int, list[int]]:
        """Quantise 16-bit CS measurements and encode them."""
        return self.encode_symbols(
            quantize_measurement(y) for y in measurements)


class HuffmanDecoder:
    """Canonical decoder (receiver side; validates round trips)."""

    def __init__(self, code: HuffmanCode):
        self.code = code
        self._table = {(length, value): symbol
                       for symbol, (length, value)
                       in enumerate(zip(code.lengths, code.codes))}
        self._max_length = max(code.lengths)

    def decode_bits(self, total_bits: int, words) -> list[int]:
        """Decode a packed stream back into symbols."""
        symbols = []
        value = 0
        length = 0
        for index in range(total_bits):
            word = words[index >> 4]
            bit = (word >> (15 - (index & 15))) & 1
            value = (value << 1) | bit
            length += 1
            if length > self._max_length:
                raise ConfigurationError("undecodable prefix in stream")
            symbol = self._table.get((length, value))
            if symbol is not None:
                symbols.append(symbol)
                value = 0
                length = 0
        if length:
            raise ConfigurationError(
                f"{length} dangling bits at end of stream")
        return symbols

    def decode_measurements(self, total_bits: int, words) -> list[int]:
        """Decode and dequantise back to measurement estimates."""
        return [dequantize_symbol(symbol)
                for symbol in self.decode_bits(total_bits, words)]
