"""Static byte-wise rANS (range Asymmetric Numeral System) coder.

ANS is the paper's winning encoder (Table 2): highest combined ratio and
throughput on gradient data thanks to block-parallel GPU execution
(Weissenberger & Schmidt, ICPP'19).  We implement the classic single-state
rANS with 12-bit quantised frequencies; compressed sizes are real, GPU
throughput is modelled separately in ``repro.gpusim``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.encoders.base import Encoder, EncodeError, as_u8

__all__ = ["RansEncoder", "quantize_freqs"]

_PROB_BITS = 12
_PROB_SCALE = 1 << _PROB_BITS
_RANS_L = 1 << 23  # lower bound of the normalised state interval


def quantize_freqs(freq: np.ndarray, scale: int = _PROB_SCALE) -> np.ndarray:
    """Scale frequencies to sum exactly to ``scale``, keeping present symbols >= 1."""
    freq = np.asarray(freq, dtype=np.int64)
    total = int(freq.sum())
    if total == 0:
        raise ValueError("cannot quantise an empty frequency table")
    scaled = np.maximum((freq * scale) // total, (freq > 0).astype(np.int64))
    diff = scale - int(scaled.sum())
    if diff != 0:
        # Adjust symbols with the most headroom, never dropping below 1.
        order = np.argsort(scaled)[::-1]
        i = 0
        step = 1 if diff > 0 else -1
        while diff != 0:
            s = order[i % len(order)]
            if scaled[s] + step >= 1 and freq[s] > 0:
                scaled[s] += step
                diff -= step
            i += 1
    return scaled.astype(np.uint32)


class RansEncoder(Encoder):
    """Single-state static rANS over the byte alphabet."""

    name = "ans"

    def _encode_payload(self, data: bytes) -> bytes:
        u8 = as_u8(data)
        freq = np.bincount(u8, minlength=256)
        qfreq = quantize_freqs(freq)
        cum = np.zeros(257, dtype=np.uint32)
        np.cumsum(qfreq, out=cum[1:])
        f = qfreq.tolist()
        c = cum.tolist()
        # rANS encodes in reverse so the decoder emits in forward order.
        out = bytearray()
        x = _RANS_L
        x_max_base = (_RANS_L >> _PROB_BITS) << 8
        for s in memoryview(u8.tobytes())[::-1]:
            fs = f[s]
            x_max = x_max_base * fs
            while x >= x_max:
                out.append(x & 0xFF)
                x >>= 8
            x = ((x // fs) << _PROB_BITS) + (x % fs) + c[s]
        header = qfreq.astype(np.uint16).tobytes() + struct.pack("<Q", x)
        return header + bytes(out[::-1])

    def _decode_payload(self, payload: bytes, n: int) -> bytes:
        head = 512 + 8
        if len(payload) < head:
            raise EncodeError("ans: truncated header")
        qfreq = np.frombuffer(payload[:512], dtype=np.uint16).astype(np.uint32)
        (x,) = struct.unpack_from("<Q", payload, 512)
        cum = np.zeros(257, dtype=np.uint32)
        np.cumsum(qfreq, out=cum[1:])
        # slot -> symbol lookup
        slot2sym = np.repeat(np.arange(256, dtype=np.uint8), qfreq).tolist()
        if len(slot2sym) != _PROB_SCALE:
            raise EncodeError("ans: invalid frequency table")
        f = qfreq.tolist()
        c = cum.tolist()
        stream = payload[head:]
        pos = 0
        mask = _PROB_SCALE - 1
        out = bytearray(n)
        try:
            for i in range(n):
                slot = x & mask
                s = slot2sym[slot]
                out[i] = s
                x = f[s] * (x >> _PROB_BITS) + slot - c[s]
                while x < _RANS_L:
                    x = (x << 8) | stream[pos]
                    pos += 1
        except IndexError:
            raise EncodeError("ans: stream ends early") from None
        # Decoding inverts encoding, which started from state _RANS_L: a
        # valid frame ends there with every stream byte consumed.
        if pos != len(stream) or x != _RANS_L:
            raise EncodeError("ans: corrupt stream (bad final state)")
        return bytes(out)
