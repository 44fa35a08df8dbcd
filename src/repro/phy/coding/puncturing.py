"""Puncturing of the rate-1/2 mother code to rates 2/3 and 3/4.

Patterns follow IEEE 802.11-2012 §18.3.5.6 (Figures 18-9/18-10): the coded
stream is partitioned into blocks and selected bits are simply not
transmitted.  On receive, ``depuncture`` re-inserts zero-valued LLR erasures
so the Viterbi decoder sees the full-rate trellis.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require

#: keep-masks over one puncturing period of the coded (A,B) stream.
PUNCTURE_PATTERNS = {
    (1, 2): np.array([1, 1], dtype=bool),
    (2, 3): np.array([1, 1, 1, 0], dtype=bool),
    (3, 4): np.array([1, 1, 1, 0, 0, 1], dtype=bool),
}


class Puncturer:
    """Puncture/depuncture a coded bit stream for a given coding rate."""

    def __init__(self, rate: tuple):
        rate = (int(rate[0]), int(rate[1]))
        if rate not in PUNCTURE_PATTERNS:
            raise KeyError(
                f"unsupported coding rate {rate}; options: {sorted(PUNCTURE_PATTERNS)}"
            )
        self.rate = rate
        self.pattern = PUNCTURE_PATTERNS[rate]
        self.period = len(self.pattern)
        self.kept_per_period = int(self.pattern.sum())

    def punctured_length(self, n_coded: int) -> int:
        """Transmitted bit count after puncturing ``n_coded`` mother bits."""
        full, rem = divmod(n_coded, self.period)
        return full * self.kept_per_period + int(self.pattern[:rem].sum())

    def puncture(self, coded_bits: np.ndarray) -> np.ndarray:
        """Drop the masked positions from a mother-code bit stream."""
        coded_bits = np.asarray(coded_bits).ravel()
        mask = np.resize(self.pattern, coded_bits.size)
        return coded_bits[mask]

    def depuncture(self, values: np.ndarray, n_coded: int) -> np.ndarray:
        """Re-insert zero erasures to recover a length-``n_coded`` stream.

        Args:
            values: Received soft values for the transmitted positions, one
                stream ``(n,)`` or a batch of streams ``(B, n)``.
            n_coded: Length of the mother-coded stream before puncturing.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            values = values.ravel()
        expected = self.punctured_length(n_coded)
        require(
            values.shape[-1] == expected,
            f"expected {expected} punctured values for {n_coded} coded bits, "
            f"got {values.shape[-1]}",
        )
        mask = np.resize(self.pattern, n_coded)
        out = np.zeros(values.shape[:-1] + (n_coded,), dtype=float)
        out[..., mask] = values
        return out
