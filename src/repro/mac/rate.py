"""Effective-SNR bitrate selection (Halperin et al. [13], used by §9).

Frequency-selective channels make average SNR a poor rate predictor; the
effective-SNR algorithm instead:

1. computes the uncoded bit error rate *per subcarrier* from that
   subcarrier's SNR and the candidate modulation,
2. averages BER across subcarriers, and
3. inverts the BER formula to get the *effective SNR* — the SNR of the flat
   channel that would produce the same average BER,

then picks the fastest MCS whose effective SNR clears its threshold.  In
MegaMIMO the APs know the post-beamforming signal strength k^2 in each
subcarrier and the client-reported noise N, "so they can compute the SNR in
each subcarrier as k^2/N.  They can then map this set of SNRs to rate by
performing a table lookup" (§9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.phy.mcs import ALL_MCS, Mcs
from repro.utils.special import erfc, erfcinv
from repro.utils.units import db_to_linear, linear_to_db
from repro.utils.validation import require


def _qfunc(x):
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _qfunc_inv(p):
    p = np.clip(np.asarray(p, dtype=float), 1e-300, 1 - 1e-12)
    return np.sqrt(2.0) * erfcinv(2.0 * p)


def _modulation(bits_per_symbol: int) -> np.ndarray:
    """``(a, d, coef, e, f, cap)`` of Gray-coded BPSK/QPSK/square M-QAM.

    BER is ``coef * Q(sqrt(a * s / d))`` at symbol SNR ``s``; its inverse is
    ``Q^-1(min(BER / coef, cap))**2 * e / f``.  BPSK and QPSK are the QAM
    nearest-neighbour formula with unit factors, which IEEE arithmetic
    applies exactly, so every modulation shares one broadcast formula.
    """
    if bits_per_symbol == 1:  # BPSK: Q(sqrt(2 s))
        return np.array([2.0, 1.0, 1.0, 1.0, 2.0, np.inf])
    if bits_per_symbol == 2:  # QPSK: Q(sqrt(s))
        return np.array([1.0, 1.0, 1.0, 1.0, 1.0, np.inf])
    m = 2.0**bits_per_symbol
    coef = 4.0 / bits_per_symbol * (1.0 - 1.0 / np.sqrt(m))
    return np.array([3.0, m - 1.0, coef, m - 1.0, 3.0, 0.5])


def _ber(snr_linear, params: np.ndarray) -> np.ndarray:
    a, d, coef = params[:3]
    return coef * _qfunc(np.sqrt(a * np.maximum(snr_linear, 0.0) / d))


def _snr(ber, params: np.ndarray) -> np.ndarray:
    coef, e, f, cap = params[2:]
    return _qfunc_inv(np.minimum(ber / coef, cap)) ** 2 * e / f


def ber_for_modulation(snr_linear, bits_per_symbol: int) -> np.ndarray:
    """Uncoded BER of Gray-coded BPSK/QPSK/M-QAM at the given symbol SNR."""
    return _ber(np.asarray(snr_linear, dtype=float), _modulation(bits_per_symbol))


def snr_for_ber(ber, bits_per_symbol: int) -> np.ndarray:
    """Inverse of :func:`ber_for_modulation` (the effective SNR mapping)."""
    return _snr(np.asarray(ber, dtype=float), _modulation(bits_per_symbol))


def effective_snr_db(subcarrier_snr_db, bits_per_symbol: int) -> float:
    """Effective SNR (dB) of a set of per-subcarrier SNRs for one modulation."""
    snrs = db_to_linear(np.atleast_1d(subcarrier_snr_db))
    bers = ber_for_modulation(snrs, bits_per_symbol)
    mean_ber = float(np.mean(bers))
    return float(linear_to_db(snr_for_ber(mean_ber, bits_per_symbol)))


#: Bits per symbol of the modulations ``ALL_MCS`` uses (BPSK first), their
#: ``_modulation`` rows stacked on a trailing axis, and each MCS's modulation.
_BITS = tuple(sorted({mcs.bits_per_subcarrier for mcs in ALL_MCS}))
_MODULATIONS = np.stack([_modulation(b) for b in _BITS], axis=1)  # (6, n_mod)
_MCS_MODULATION = np.array([_BITS.index(mcs.bits_per_subcarrier) for mcs in ALL_MCS])
_MCS_MIN_SNR_DB = np.array([mcs.min_snr_db for mcs in ALL_MCS])


def _walk_mcs(subcarrier_snr_db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The effective-SNR MCS walk over rows of shape (..., n_bins).

    One stacked pass over a leading modulation axis gives each modulation's
    effective SNR, shape (n_mod, ...); each MCS reads its modulation's.
    Returns the index into ``ALL_MCS`` of each row's fastest MCS whose
    threshold its effective SNR clears, or -1, and those effective SNRs.
    """
    snrs = db_to_linear(subcarrier_snr_db)
    params = _MODULATIONS.reshape(_MODULATIONS.shape + (1,) * snrs.ndim)
    mean_ber = np.mean(_ber(snrs, params), axis=-1)
    eff = linear_to_db(_snr(mean_ber, params[..., 0]))
    per_mcs = (-1,) + (1,) * (eff.ndim - 1)
    ok = eff[_MCS_MODULATION] >= _MCS_MIN_SNR_DB.reshape(per_mcs)
    order = np.arange(len(ALL_MCS)).reshape(per_mcs)
    return np.max(np.where(ok, order, -1), axis=0), eff


def select_mcs_for_snr(snr_db: float) -> Optional[Mcs]:
    """Fastest MCS whose threshold a flat SNR clears; None below all."""
    best = None
    for mcs in ALL_MCS:
        if snr_db >= mcs.min_snr_db:
            best = mcs
    return best


@dataclass
class RateDecision:
    """Output of the rate selector.

    Attributes:
        mcs: Chosen MCS, or None if even the slowest one won't hold.
        effective_snr_db: Effective SNR for the chosen MCS's modulation
            (for the base modulation when no MCS qualifies).
        bitrate: PHY bitrate in bits/s (0 when no MCS qualifies).
    """

    mcs: Optional[Mcs]
    effective_snr_db: float
    bitrate: float


class EffectiveSnrRateSelector:
    """Maps per-subcarrier SNRs to an MCS via the effective-SNR lookup.

    Args:
        sample_rate: Channel sample rate, which fixes the bitrate scale
            (10 MHz -> 3..27 Mbps; 20 MHz -> 6..54 Mbps per stream).
        mac_efficiency: Fraction of the PHY rate surviving MAC overheads;
            applied by :meth:`goodput` only.
    """

    def __init__(self, sample_rate: float, mac_efficiency: float = 1.0):
        require(sample_rate > 0, "sample rate must be positive")
        self.sample_rate = float(sample_rate)
        self.mac_efficiency = float(mac_efficiency)

    def select(self, subcarrier_snr_db) -> RateDecision:
        """Choose the fastest sustainable MCS for these per-subcarrier SNRs."""
        row = np.atleast_1d(np.asarray(subcarrier_snr_db, dtype=float))
        index, eff = _walk_mcs(row)
        if index < 0:
            # no MCS holds: report the base modulation's effective SNR
            return RateDecision(mcs=None, effective_snr_db=float(eff[0]), bitrate=0.0)
        best = ALL_MCS[int(index)]
        return RateDecision(
            mcs=best,
            effective_snr_db=float(eff[_MCS_MODULATION[index]]),
            bitrate=best.bitrate(self.sample_rate),
        )

    def goodput(self, subcarrier_snr_db) -> float:
        """Bitrate after MAC overhead for these per-subcarrier SNRs (bits/s)."""
        return self.select(subcarrier_snr_db).bitrate * self.mac_efficiency

    def goodput_batch(self, subcarrier_snr_db: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`goodput` over a stack of per-subcarrier rows.

        ``subcarrier_snr_db`` has shape (..., n_bins); the return value has
        shape (...,).  It runs the same MCS walk as :meth:`select` over all
        rows at once, so each row's decision is bit-identical to the scalar
        selector's.
        """
        rows = np.asarray(subcarrier_snr_db, dtype=float)
        require(rows.ndim >= 1, "need at least one subcarrier axis")
        index, _ = _walk_mcs(rows)
        bitrates = [0.0] + [mcs.bitrate(self.sample_rate) for mcs in ALL_MCS]
        return np.array(bitrates)[index + 1] * self.mac_efficiency
