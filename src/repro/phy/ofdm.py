"""64-point OFDM modulation with pilot-aided phase tracking.

Maps 48 data symbols plus 4 scrambled pilots onto the 802.11 subcarrier
grid, performs the IFFT and prepends the cyclic prefix.  The demodulator
strips the prefix, FFTs, equalizes against a channel estimate, and applies
common-phase-error correction derived from the pilots — which is exactly how
MegaMIMO clients "track the phase of the lead AP symbol by symbol" (§5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.constants import (
    CP_LENGTH,
    DATA_SUBCARRIERS,
    FFT_SIZE,
    N_DATA_SUBCARRIERS,
    PILOT_POLARITY,
    PILOT_SUBCARRIERS,
    PILOT_VALUES,
    SYMBOL_LENGTH,
)
from repro.utils.validation import require


def subcarrier_to_fft_index(subcarriers: np.ndarray) -> np.ndarray:
    """Map signed subcarrier indices (-26..26) to FFT bin indices (0..63)."""
    subcarriers = np.asarray(subcarriers)
    return np.where(subcarriers >= 0, subcarriers, subcarriers + FFT_SIZE)


_DATA_BINS = subcarrier_to_fft_index(DATA_SUBCARRIERS)
_PILOT_BINS = subcarrier_to_fft_index(PILOT_SUBCARRIERS)


def _pilots(first_symbol_index: int, n_symbols: int) -> np.ndarray:
    """(n_symbols, 4) scrambled pilot values from ``first_symbol_index`` on."""
    index = (first_symbol_index + np.arange(n_symbols)) % len(PILOT_POLARITY)
    return PILOT_VALUES * PILOT_POLARITY[index][:, None]


@dataclass
class EqualizedSymbol:
    """Result of demodulating one OFDM symbol, or a frame of them.

    For a frame of ``n`` symbols every field gains a leading axis of
    length ``n``.

    Attributes:
        data: 48 equalized data-subcarrier values.
        common_phase: Pilot-derived common phase error that was removed.
        pilot_snr: Crude SNR estimate from pilot dispersion (linear).
    """

    data: np.ndarray
    common_phase: Union[float, np.ndarray]
    pilot_snr: Union[float, np.ndarray]


class OfdmModulator:
    """Map frequency-domain data symbols to cyclic-prefixed time samples."""

    def __init__(self):
        self.fft_size = FFT_SIZE
        self.cp_length = CP_LENGTH

    def symbol_grid(self, data_symbols: np.ndarray, symbol_index: int = 0) -> np.ndarray:
        """The 64-bin frequency grid for one symbol: data + scrambled pilots.

        Args:
            data_symbols: 48 complex constellation points, or an
                ``(n_sym, 48)`` frame of them (one grid row per symbol).
            symbol_index: Index into the pilot polarity sequence (the SIGNAL
                symbol is index 0 in 802.11; data symbols continue from 1);
                for a frame, the index of its first symbol.
        """
        data_symbols = np.asarray(data_symbols, dtype=complex)
        if data_symbols.ndim != 2:
            data_symbols = data_symbols.ravel()
        require(
            data_symbols.shape[-1] == N_DATA_SUBCARRIERS,
            f"need {N_DATA_SUBCARRIERS} data symbols, got {data_symbols.shape[-1]}",
        )
        rows = data_symbols.reshape(-1, N_DATA_SUBCARRIERS)
        grid = np.zeros((rows.shape[0], FFT_SIZE), dtype=complex)
        grid[:, _DATA_BINS] = rows
        grid[:, _PILOT_BINS] = _pilots(symbol_index, rows.shape[0])
        return grid.reshape(data_symbols.shape[:-1] + (FFT_SIZE,))

    def modulate_symbol(self, data_symbols: np.ndarray, symbol_index: int = 0) -> np.ndarray:
        """Build one OFDM symbol (80 samples) from 48 data symbols."""
        return self.modulate_grid(self.symbol_grid(data_symbols, symbol_index))

    def modulate_frame(self, data_symbols: np.ndarray, first_symbol_index: int = 0) -> np.ndarray:
        """Concatenate many OFDM symbols; ``data_symbols`` is (n_sym, 48)."""
        data_symbols = np.asarray(data_symbols, dtype=complex)
        require(data_symbols.ndim == 2, "expected a (n_symbols, 48) array")
        grid = self.symbol_grid(data_symbols, first_symbol_index)
        return self.modulate_grid(grid).ravel()

    def modulate_grid(self, grid: np.ndarray) -> np.ndarray:
        """Modulate raw 64-bin frequency grids (``(..., 64)``) to CP-prefixed
        ``(..., 80)`` samples, one IFFT call for every grid."""
        grid = np.asarray(grid, dtype=complex)
        require(grid.shape[-1:] == (FFT_SIZE,), "grid must have 64 bins")
        time = np.fft.ifft(grid, axis=-1) * np.sqrt(FFT_SIZE)
        return np.concatenate([time[..., -CP_LENGTH:], time], axis=-1)


class OfdmDemodulator:
    """Strip CP, FFT, equalize and phase-track received OFDM symbols."""

    def __init__(self):
        self.fft_size = FFT_SIZE
        self.cp_length = CP_LENGTH

    def fft_symbol(self, samples: np.ndarray) -> np.ndarray:
        """FFT 80-sample OFDM symbols (``(..., 80)``) to 64-bin grids."""
        samples = np.asarray(samples, dtype=complex)
        require(samples.shape[-1:] == (SYMBOL_LENGTH,), f"need {SYMBOL_LENGTH} samples")
        return np.fft.fft(samples[..., CP_LENGTH:], axis=-1) / np.sqrt(FFT_SIZE)

    def demodulate_symbol(
        self,
        samples: np.ndarray,
        channel: np.ndarray,
        symbol_index: int = 0,
        track_phase: bool = True,
    ) -> EqualizedSymbol:
        """Equalize one received OFDM symbol, or a whole frame of them.

        Args:
            samples: 80 time-domain samples (with CP), or ``(n_sym, 80)``
                for a frame, demodulated with one FFT call.
            channel: Complex channel estimate per occupied FFT bin; accepts a
                full 64-bin array.
            symbol_index: Pilot polarity index for this symbol; for a frame,
                the index of its first symbol.
            track_phase: Remove pilot-derived common phase error (residual
                CFO/SFO) before slicing.

        Returns:
            An :class:`EqualizedSymbol` with equalized data values; for a
            frame its fields are arrays with one row per symbol.
        """
        samples = np.asarray(samples, dtype=complex)
        if samples.ndim != 2:
            samples = samples.ravel()
        grid = self.fft_symbol(samples).reshape(-1, FFT_SIZE)
        channel = np.asarray(channel, dtype=complex).ravel()
        require(channel.size == FFT_SIZE, "channel estimate must cover 64 bins")

        expected_pilots = _pilots(symbol_index, grid.shape[0])
        raw_pilots = grid[:, _PILOT_BINS] / _safe(channel[_PILOT_BINS])
        rotations = raw_pilots * np.conj(expected_pilots)
        common = np.sum(rotations, axis=-1)
        common_phase = np.angle(common) if track_phase else np.zeros(common.shape)
        derotate = np.exp(-1j * common_phase)[:, None]

        data = grid[:, _DATA_BINS] / _safe(channel[_DATA_BINS])
        data = data * derotate

        # pilot dispersion around the common rotation -> noise estimate
        aligned = rotations * derotate
        # squared one float at a time: a float's ** is C pow, which can
        # round differently from the array square
        signal_power = np.array([m ** 2 for m in np.mean(np.abs(aligned), axis=-1).tolist()])
        noise_power = np.mean(
            np.abs(aligned - np.mean(aligned, axis=-1, keepdims=True)) ** 2, axis=-1
        )
        pilot_snr = signal_power / np.maximum(noise_power, 1e-12)
        if samples.ndim == 1:
            return EqualizedSymbol(
                data=data[0], common_phase=float(common_phase[0]), pilot_snr=float(pilot_snr[0])
            )
        return EqualizedSymbol(data=data, common_phase=common_phase, pilot_snr=pilot_snr)


def _safe(values: np.ndarray, floor: float = 1e-9) -> np.ndarray:
    """Avoid dividing by (near-)zero channel bins."""
    values = np.asarray(values, dtype=complex).copy()
    small = np.abs(values) < floor
    values[small] = floor
    return values
