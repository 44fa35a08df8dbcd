"""802.11 frame-synchronous scrambler (x^7 + x^4 + 1)."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.validation import require

#: keystream period: x^7 + x^4 + 1 is primitive, so every non-zero seed
#: cycles through all 127 non-zero states
_PERIOD = 127


@lru_cache(maxsize=None)
def _period(seed: int) -> np.ndarray:
    """One read-only period of the LFSR keystream started from ``seed``."""
    state = seed
    out = np.empty(_PERIOD, dtype=np.uint8)
    for i in range(_PERIOD):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = bit
    require(state == seed, "scrambler LFSR did not return to its seed")
    out.flags.writeable = False
    return out


class Scrambler:
    """Length-127 self-synchronizing scrambler of IEEE 802.11-2012 §18.3.5.5.

    Scrambling and descrambling are the same XOR operation with the LFSR
    keystream, so one class provides both directions.
    """

    def __init__(self, seed: int = 0b1011101):
        require(0 < seed < 128, "scrambler seed must be a non-zero 7-bit value")
        self.seed = seed

    def keystream(self, n_bits: int) -> np.ndarray:
        """Generate ``n_bits`` of the scrambling sequence."""
        return np.tile(_period(self.seed), -(-n_bits // _PERIOD))[:n_bits]

    def scramble(self, bits: np.ndarray) -> np.ndarray:
        """XOR the data bits with the scrambler keystream.

        A 2-D ``(B, n)`` input scrambles each row from the seed.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2:
            bits = bits.ravel()
        return bits ^ self.keystream(bits.shape[-1])

    # descrambling is identical
    descramble = scramble
