"""Lossless encoder round trips, frame behaviour, and CR ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoders import (
    EncodeError,
    HuffmanEncoder,
    RansEncoder,
    elias_gamma_decode,
    elias_gamma_encode,
    get_encoder,
    list_encoders,
)
from repro.encoders.ans import quantize_freqs
from repro.encoders.huffman import code_lengths

ALL = list_encoders()


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("payload", ["zeros", "skewed", "uniform", "runs", "short", "empty"])
def test_roundtrip_every_encoder_every_payload(name, payload, byte_payloads):
    enc = get_encoder(name)
    data = byte_payloads[payload]
    assert enc.decode(enc.encode(data)) == data


@pytest.mark.parametrize("name", ALL)
def test_never_expands_beyond_frame_header(name, byte_payloads):
    enc = get_encoder(name)
    data = byte_payloads["uniform"]  # incompressible
    assert len(enc.encode(data)) <= len(data) + 5


@pytest.mark.parametrize("name", ALL)
def test_truncated_frame_rejected(name):
    with pytest.raises(EncodeError):
        get_encoder(name).decode(b"\x01\x00")


def test_entropy_coders_beat_dictionary_coders_on_gradient_bytes(byte_payloads):
    """Paper Table 2: entropy coding wins on non-uniform gradient data."""
    data = byte_payloads["skewed"]
    entropy = min(get_encoder(n).ratio(data) for n in ("ans", "huffman", "deflate", "zstd"))
    dictionary = max(get_encoder(n).ratio(data) for n in ("lz4", "snappy"))
    assert entropy > dictionary


def test_cascaded_wins_on_long_runs(byte_payloads):
    data = byte_payloads["runs"]
    assert get_encoder("cascaded").ratio(data) > get_encoder("bitcomp").ratio(data)
    assert get_encoder("cascaded").ratio(data) > 10


def test_unknown_encoder_rejected():
    with pytest.raises(KeyError):
        get_encoder("nope")


@given(st.binary(max_size=4000))
@settings(max_examples=30, deadline=None)
def test_ans_roundtrip_property(data):
    enc = RansEncoder()
    assert enc.decode(enc.encode(data)) == data


@given(st.binary(max_size=4000))
@settings(max_examples=30, deadline=None)
def test_huffman_roundtrip_property(data):
    enc = HuffmanEncoder()
    assert enc.decode(enc.encode(data)) == data


class TestAnsInternals:
    def test_quantized_freqs_sum_to_scale(self, rng):
        freq = rng.integers(0, 1000, 256)
        freq[0] = 0
        q = quantize_freqs(freq)
        assert q.sum() == 1 << 12

    def test_present_symbols_stay_nonzero(self):
        freq = np.zeros(256, dtype=np.int64)
        freq[7] = 1
        freq[8] = 10**9
        q = quantize_freqs(freq)
        assert q[7] >= 1
        assert q[freq == 0].sum() == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantize_freqs(np.zeros(256, dtype=np.int64))


class TestAnsCorruptFrames:
    """A damaged rANS frame decodes to the original bytes or raises EncodeError."""

    @pytest.fixture
    def frame(self, byte_payloads):
        data = byte_payloads["skewed"][:3000]
        blob = RansEncoder().encode(data)
        assert blob[0] == 1  # a coded frame, not the raw fallback
        return data, blob

    @staticmethod
    def _decodes_right_or_rejects(blob, data):
        try:
            out = RansEncoder().decode(blob)
        except EncodeError:
            return True
        return out == data

    def test_truncations(self, frame):
        data, blob = frame
        cuts = list(range(0, len(blob), 23)) + list(range(len(blob) - 8, len(blob)))
        bad = [c for c in cuts if not self._decodes_right_or_rejects(blob[:c], data)]
        assert bad == []

    def test_bit_flips(self, frame, rng):
        data, blob = frame
        flips = [(int(p), int(b)) for p, b in zip(rng.integers(0, len(blob), 120), rng.integers(0, 8, 120))]
        flips += [(len(blob) - 1, b) for b in range(8)]  # the last stream byte
        bad = []
        for pos, bit in flips:
            mutated = bytearray(blob)
            mutated[pos] ^= 1 << bit
            if not self._decodes_right_or_rejects(bytes(mutated), data):
                bad.append((pos, bit))
        assert bad == []

    def test_last_byte_dropped_or_appended_rejected(self, frame):
        _, blob = frame
        for damaged in (blob[:-1], blob + b"\x00"):
            with pytest.raises(EncodeError):
                RansEncoder().decode(damaged)

    def test_declared_length_changed_rejected(self, frame):
        _, blob = frame
        n = int.from_bytes(blob[1:5], "little")
        for forged in (n - 1, n + 1, 2 * n):
            with pytest.raises(EncodeError):
                RansEncoder().decode(blob[:1] + forged.to_bytes(4, "little") + blob[5:])


class TestHuffmanInternals:
    def test_code_lengths_kraft_inequality(self, rng):
        freq = rng.integers(0, 500, 256)
        lengths = code_lengths(freq)
        present = lengths[lengths > 0]
        assert np.sum(2.0 ** (-present.astype(float))) <= 1.0 + 1e-9

    def test_single_symbol(self):
        freq = np.zeros(256, dtype=np.int64)
        freq[65] = 100
        lengths = code_lengths(freq)
        assert lengths[65] == 1
        assert lengths.sum() == 1

    def test_length_limit_respected(self, rng):
        # Fibonacci-like frequencies force deep trees without limiting.
        freq = np.zeros(256, dtype=np.int64)
        a, b = 1, 1
        for i in range(40):
            freq[i] = a
            a, b = b, a + b
        assert code_lengths(freq, max_len=15).max() <= 15

    def test_more_frequent_symbols_get_shorter_codes(self, rng):
        freq = np.ones(256, dtype=np.int64)
        freq[0] = 10**6
        lengths = code_lengths(freq)
        assert lengths[0] == lengths[lengths > 0].min()


class TestEliasGamma:
    def test_roundtrip(self, rng):
        v = rng.integers(1, 10_000, 2000).astype(np.uint64)
        assert np.array_equal(elias_gamma_decode(elias_gamma_encode(v), 2000), v)

    def test_one_is_single_bit(self):
        blob = elias_gamma_encode(np.array([1], dtype=np.uint64))
        assert len(blob) == 1  # one bit, padded to a byte

    def test_small_values_cheap(self):
        small = elias_gamma_encode(np.ones(1000, dtype=np.uint64))
        big = elias_gamma_encode(np.full(1000, 1000, dtype=np.uint64))
        assert len(small) < len(big)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            elias_gamma_encode(np.array([0], dtype=np.uint64))

    def test_truncated_rejected(self):
        blob = elias_gamma_encode(np.array([500, 600], dtype=np.uint64))
        with pytest.raises(EncodeError):
            elias_gamma_decode(blob[:1], 2)

    @given(st.lists(st.integers(min_value=1, max_value=2**20), max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.uint64)
        assert np.array_equal(elias_gamma_decode(elias_gamma_encode(arr), len(values)), arr)
