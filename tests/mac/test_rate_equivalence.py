"""The stacked effective-SNR selector against a frozen scipy-backed oracle.

The oracle is the selector as it stood before the runtime dropped scipy:
one effective-SNR evaluation per MCS, each through ``scipy.special``'s
``erfc``/``erfcinv``.  The selector under test evaluates each modulation
once, through the numpy ports.  Decisions must be identical; effective
SNRs may differ by the ports' few ulp.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mac.rate import EffectiveSnrRateSelector
from repro.phy.mcs import ALL_MCS
from repro.utils.units import db_to_linear, linear_to_db

special = pytest.importorskip("scipy.special")

EFF_TOL_DB = 1e-13


# -- the oracle: the per-MCS selector, frozen, on scipy -----------------------


def _qfunc(x):
    return 0.5 * special.erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _qfunc_inv(p):
    p = np.clip(np.asarray(p, dtype=float), 1e-300, 1 - 1e-12)
    return np.sqrt(2.0) * special.erfcinv(2.0 * p)


def oracle_ber(snr_linear, bits_per_symbol):
    snr_linear = np.maximum(np.asarray(snr_linear, dtype=float), 0.0)
    if bits_per_symbol == 1:
        return _qfunc(np.sqrt(2.0 * snr_linear))
    if bits_per_symbol == 2:
        return _qfunc(np.sqrt(snr_linear))
    m = 2.0**bits_per_symbol
    coef = 4.0 / bits_per_symbol * (1.0 - 1.0 / np.sqrt(m))
    return coef * _qfunc(np.sqrt(3.0 * snr_linear / (m - 1.0)))


def oracle_snr(ber, bits_per_symbol):
    ber = np.asarray(ber, dtype=float)
    if bits_per_symbol == 1:
        return _qfunc_inv(ber) ** 2 / 2.0
    if bits_per_symbol == 2:
        return _qfunc_inv(ber) ** 2
    m = 2.0**bits_per_symbol
    coef = 4.0 / bits_per_symbol * (1.0 - 1.0 / np.sqrt(m))
    return _qfunc_inv(np.minimum(ber / coef, 0.5)) ** 2 * (m - 1.0) / 3.0


def oracle_effective_snr_db(row, bits_per_symbol):
    bers = oracle_ber(db_to_linear(np.atleast_1d(row)), bits_per_symbol)
    return float(linear_to_db(oracle_snr(float(np.mean(bers)), bits_per_symbol)))


def oracle_select(row):
    """(MCS index or -1, effective SNR) by the per-MCS walk."""
    best, best_eff = -1, oracle_effective_snr_db(row, 1)
    for mcs in ALL_MCS:
        eff = oracle_effective_snr_db(row, mcs.bits_per_subcarrier)
        if eff >= mcs.min_snr_db:
            best, best_eff = mcs.index, eff
    return best, best_eff


def oracle_goodput_batch(rows, sample_rate, mac_efficiency):
    snrs = db_to_linear(rows)
    bitrate = np.zeros(rows.shape[:-1])
    for mcs in ALL_MCS:
        mean_ber = np.mean(oracle_ber(snrs, mcs.bits_per_subcarrier), axis=-1)
        eff = linear_to_db(oracle_snr(mean_ber, mcs.bits_per_subcarrier))
        bitrate = np.where(eff >= mcs.min_snr_db, mcs.bitrate(sample_rate), bitrate)
    return bitrate * mac_efficiency


# -- the checks ---------------------------------------------------------------

_selector = EffectiveSnrRateSelector(10e6, mac_efficiency=0.875)


def _assert_same_decisions(rows):
    rows = np.asarray(rows, dtype=float)
    flat = rows.reshape(-1, rows.shape[-1])
    for row in flat:
        decision = _selector.select(row)
        index, eff = oracle_select(row)
        assert (decision.mcs.index if decision.mcs else -1) == index
        assert abs(decision.effective_snr_db - eff) <= EFF_TOL_DB
        rate = ALL_MCS[index].bitrate(10e6) if index >= 0 else 0.0
        assert decision.bitrate == rate
        assert _selector.goodput(row) == rate * 0.875
    expected = oracle_goodput_batch(rows, 10e6, 0.875)
    np.testing.assert_array_equal(_selector.goodput_batch(rows), expected)


@given(
    seed=st.integers(0, 2**31),
    batch=st.integers(1, 6),
    n_bins=st.sampled_from([1, 2, 7, 48, 52]),
    low=st.floats(-15.0, 25.0),
    spread=st.floats(0.0, 30.0),
)
@settings(max_examples=60, deadline=None)
def test_random_rows_decide_like_the_oracle(seed, batch, n_bins, low, spread):
    rng = np.random.default_rng(seed)
    _assert_same_decisions(rng.uniform(low, low + spread, (batch, n_bins)))


def test_many_random_52_bin_rows():
    rng = np.random.default_rng(2012)
    _assert_same_decisions(rng.uniform(-10.0, 40.0, (2000, 52)))


@pytest.mark.parametrize("mcs", ALL_MCS, ids=lambda m: m.name)
def test_flat_rows_at_each_threshold(mcs):
    """A flat row's effective SNR is its SNR up to rounding: step across the
    threshold in 1e-13 dB increments."""
    offsets = np.arange(-50, 51) * 1e-13
    rows = np.repeat((mcs.min_snr_db + offsets)[:, None], 52, axis=1)
    _assert_same_decisions(rows)


def test_extreme_rows():
    rows = np.array([[-200.0] * 52, [300.0] * 52, [-200.0] * 26 + [300.0] * 26])
    _assert_same_decisions(rows)
