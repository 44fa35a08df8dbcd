"""Gray-coded constellation mapping for BPSK/QPSK/16-QAM/64-QAM.

Constellations follow IEEE 802.11-2012 §18.3.5.8: Gray-mapped square QAM
normalized to unit average energy (K_mod factors 1, 1/sqrt(2), 1/sqrt(10),
1/sqrt(42)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.validation import require

_GRAY_2 = np.array([-1, 1], dtype=float)  # bit 0 -> -1, bit 1 -> +1
_GRAY_4 = np.array([-3, -1, 3, 1], dtype=float)  # 00,01,10,11 (Gray)
_GRAY_8 = np.array([-7, -5, -1, -3, 7, 5, 1, 3], dtype=float)


def _axis_levels(bits_per_axis: int) -> np.ndarray:
    if bits_per_axis == 1:
        return _GRAY_2
    if bits_per_axis == 2:
        return _GRAY_4
    if bits_per_axis == 3:
        return _GRAY_8
    raise ValueError(f"unsupported bits per axis: {bits_per_axis}")


@dataclass(frozen=True)
class Modulation:
    """A Gray-coded constellation with unit average symbol energy.

    Attributes:
        name: Human-readable name, e.g. ``"16QAM"``.
        bits_per_symbol: Number of bits carried per constellation point.
        points: Complex constellation points indexed by the integer whose
            binary expansion (MSB first) is the bit label.
    """

    name: str
    bits_per_symbol: int
    points: np.ndarray = field(repr=False)

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map a bit array (length divisible by bits_per_symbol) to symbols."""
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        require(
            bits.size % self.bits_per_symbol == 0,
            f"bit count {bits.size} not divisible by {self.bits_per_symbol}",
        )
        groups = bits.reshape(-1, self.bits_per_symbol)
        weights = 1 << np.arange(self.bits_per_symbol - 1, -1, -1)
        indices = groups @ weights
        return self.points[indices]

    def demodulate_hard(self, symbols: np.ndarray) -> np.ndarray:
        """Nearest-neighbour hard decisions back to bits (MSB first)."""
        symbols = np.asarray(symbols, dtype=complex).ravel()
        # distance to every constellation point: (n_sym, n_points)
        dist = np.abs(symbols[:, None] - self.points[None, :])
        indices = np.argmin(dist, axis=1)
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        bits = (indices[:, None] >> shifts[None, :]) & 1
        return bits.astype(np.uint8).ravel()

    def demodulate_soft(self, symbols: np.ndarray, noise_var=1.0) -> np.ndarray:
        """Max-log LLRs for each bit; positive LLR means bit 0 more likely.

        Args:
            symbols: Received (equalized) constellation points, ``(n,)`` or
                a batch of streams ``(B, n)``.
            noise_var: Post-equalization noise variance used to scale LLRs;
                a scalar, or one value per stream of a batch.

        Returns:
            Array of LLRs, ``bits_per_symbol`` per input symbol:
            ``(n * bits_per_symbol,)`` or ``(B, n * bits_per_symbol)``.
        """
        symbols = np.asarray(symbols, dtype=complex)
        if symbols.ndim != 2:
            symbols = symbols.ravel()
        noise_var = np.maximum(np.asarray(noise_var, dtype=float), 1e-12)
        if symbols.ndim == 2:
            noise_var = np.broadcast_to(noise_var, symbols.shape[:1])[:, None]
        sq_dist = np.abs(symbols[..., None] - self.points) ** 2
        n_points = len(self.points)
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        labels = (np.arange(n_points)[:, None] >> shifts[None, :]) & 1
        llrs = np.empty(symbols.shape + (self.bits_per_symbol,))
        for b in range(self.bits_per_symbol):
            mask0 = labels[:, b] == 0
            d0 = sq_dist[..., mask0].min(axis=-1)
            d1 = sq_dist[..., ~mask0].min(axis=-1)
            llrs[..., b] = (d1 - d0) / noise_var
        return llrs.reshape(symbols.shape[:-1] + (-1,))

    @property
    def min_distance(self) -> float:
        """Minimum Euclidean distance between constellation points."""
        diffs = self.points[:, None] - self.points[None, :]
        d = np.abs(diffs)
        d[d == 0] = np.inf
        return float(d.min())


def _build_bpsk() -> Modulation:
    return Modulation("BPSK", 1, _GRAY_2.astype(complex))


def _build_qam(bits_per_symbol: int, name: str) -> Modulation:
    bits_per_axis = bits_per_symbol // 2
    levels = _axis_levels(bits_per_axis)
    n = 1 << bits_per_symbol
    points = np.empty(n, dtype=complex)
    for idx in range(n):
        i_bits = idx >> bits_per_axis
        q_bits = idx & ((1 << bits_per_axis) - 1)
        points[idx] = levels[i_bits] + 1j * levels[q_bits]
    # normalize to unit average energy
    points /= np.sqrt(np.mean(np.abs(points) ** 2))
    return Modulation(name, bits_per_symbol, points)


_MODULATIONS = {
    "BPSK": _build_bpsk(),
    "QPSK": _build_qam(2, "QPSK"),
    "4QAM": _build_qam(2, "4QAM"),
    "16QAM": _build_qam(4, "16QAM"),
    "64QAM": _build_qam(6, "64QAM"),
}


def get_modulation(name: str) -> Modulation:
    """Look up a constellation by name (BPSK, QPSK/4QAM, 16QAM, 64QAM)."""
    key = name.upper()
    if key not in _MODULATIONS:
        raise KeyError(f"unknown modulation {name!r}; options: {sorted(_MODULATIONS)}")
    return _MODULATIONS[key]
