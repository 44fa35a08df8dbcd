"""Property-based tests of the stacked (vectorized) array paths.

Every sweep kernel takes a batch of seeds and stacks its trials, which
rests on three families of invariants:

* **per-subcarrier equivalence** — each trial slice of a stacked call, and
  a single (3-D) tensor, which is just a batch of one, match the
  per-subcarrier loops kept here as test-local oracles.  Everything except
  :func:`nulling_inr_db` is bitwise; nulling swaps the oracle's gemv for a
  batched gemm and is pinned at tight tolerance instead;
* **shape/dtype invariants** — batch axes pass through untouched and
  outputs are real float arrays whatever the topology dimensions;
* **permutation invariance** — trials own independent seed streams, so
  permuting the seed list permutes the per-trial results (and leaves any
  aggregate over trials unchanged).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.beamforming import (
    snr_reduction_from_misalignment,
    snr_reduction_grid,
    zero_forcing_precoder_wideband,
)
from repro.mac.rate import EffectiveSnrRateSelector
from repro.sim.fastsim import (
    SyncErrorModel,
    diversity_snr_db,
    joint_zf_sinr_db,
    mmse_stream_sinr_db,
    nulling_inr_db,
    sinr_grid_kernel,
)
from repro.utils.units import linear_to_db

dims = st.integers(min_value=2, max_value=4)
batch_sizes = st.integers(min_value=1, max_value=3)
bins = st.integers(min_value=2, max_value=5)
seeds = st.integers(min_value=0, max_value=2**31)


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _stack(seed, batch, n_bins, n_rx, n_tx):
    rng = np.random.default_rng(seed)
    channels = _complex(rng, (batch, n_bins, n_rx, n_tx))
    phases = rng.uniform(-np.pi, np.pi, n_tx)
    return channels, phases


# ---------------------------------------------------------------------------
# Per-subcarrier oracles: one matrix operation per bin.
# ---------------------------------------------------------------------------


def wideband_precoder_oracle(channels):
    n_bins, n_clients, n_antennas = channels.shape
    inverses = np.empty((n_bins, n_antennas, n_clients), dtype=complex)
    for b in range(n_bins):
        inverses[b] = np.linalg.inv(channels[b])
    per_antenna = np.mean(np.sum(np.abs(inverses) ** 2, axis=-1), axis=-2)
    k = float(np.sqrt(1.0 / np.max(per_antenna, axis=-1)))
    return k * inverses, k


def joint_zf_oracle(channels, phase_errors, est_channels):
    precoders, _ = wideband_precoder_oracle(est_channels)
    rotation = np.exp(1j * phase_errors)
    n_bins, n_rx, _ = channels.shape
    sinr = np.empty((n_rx, n_bins))
    for b in range(n_bins):
        eff = (channels[b] * rotation[None, :]) @ precoders[b]
        signal = np.abs(np.diag(eff)) ** 2
        interference = np.sum(np.abs(eff) ** 2, axis=1) - signal
        sinr[:, b] = signal / (interference + 1.0)
    return linear_to_db(sinr)


def nulling_oracle(channels, nulled, phase_errors):
    precoders, _ = wideband_precoder_oracle(channels)
    rotation = np.exp(1j * phase_errors)
    n_bins, n_rx, _ = channels.shape
    others = np.ones(n_rx, dtype=bool)
    others[nulled] = False
    leak = 0.0
    for b in range(n_bins):
        row = (channels[b][nulled] * rotation) @ precoders[b]
        leak += float(np.sum(np.abs(row[others]) ** 2))
    return float(linear_to_db(leak / n_bins + 1.0))


def mmse_oracle(channels, noise_power):
    n_bins, _, n_tx = channels.shape
    sinr = np.empty((n_tx, n_bins))
    for b in range(n_bins):
        h = channels[b]
        gram = np.eye(n_tx) + (h.conj().T @ h) / noise_power
        inv_diag = np.real(np.diag(np.linalg.inv(gram)))
        sinr[:, b] = 1.0 / np.maximum(inv_diag, 1e-12) - 1.0
    return linear_to_db(np.maximum(sinr, 1e-12))


class TestBatchOfOneMatchesScalar:
    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_joint_zf_bitwise(self, seed, batch, n, n_bins):
        channels, phases = _stack(seed, batch, n_bins, n, n)
        est = channels + 0.01 * _complex(np.random.default_rng(seed + 1),
                                         channels.shape)
        batched = joint_zf_sinr_db(channels, phase_errors=phases,
                                   est_channels=est)
        for t in range(batch):
            oracle = joint_zf_oracle(channels[t], phases, est[t])
            np.testing.assert_array_equal(batched[t], oracle)
            single = joint_zf_sinr_db(channels[t], phase_errors=phases,
                                      est_channels=est[t])
            np.testing.assert_array_equal(single, oracle)

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_nulling_tight_tolerance(self, seed, batch, n, n_bins):
        channels, phases = _stack(seed, batch, n_bins, n, n)
        nulled = seed % n
        batched = nulling_inr_db(channels, nulled, phase_errors=phases)
        assert np.shape(batched) == (batch,)
        for t in range(batch):
            oracle = nulling_oracle(channels[t], nulled, phases)
            np.testing.assert_allclose(batched[t], oracle,
                                       rtol=1e-12, atol=1e-12)
            single = nulling_inr_db(channels[t], nulled, phase_errors=phases)
            assert isinstance(single, float)
            np.testing.assert_allclose(single, oracle, rtol=1e-12, atol=1e-12)

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_mmse_bitwise(self, seed, batch, n, n_bins):
        channels, _ = _stack(seed, batch, n_bins, n, n)
        batched = mmse_stream_sinr_db(channels, noise_power=0.5)
        for t in range(batch):
            oracle = mmse_oracle(channels[t], noise_power=0.5)
            np.testing.assert_array_equal(batched[t], oracle)
            np.testing.assert_array_equal(
                mmse_stream_sinr_db(channels[t], noise_power=0.5), oracle
            )

    @given(seed=seeds, batch=batch_sizes, n_aps=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_diversity_bitwise(self, seed, batch, n_aps, n_bins):
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n_bins, n_aps))
        phases = rng.uniform(-np.pi, np.pi, n_aps)
        batched = diversity_snr_db(channels, phase_errors=phases)
        for t in range(batch):
            scalar = diversity_snr_db(channels[t], phase_errors=phases)
            np.testing.assert_array_equal(batched[t], scalar)

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_wideband_precoder_bitwise(self, seed, batch, n, n_bins):
        channels, _ = _stack(seed, batch, n_bins, n, n)
        precoders, scale = zero_forcing_precoder_wideband(channels)
        for t in range(batch):
            ref_p, ref_k = wideband_precoder_oracle(channels[t])
            np.testing.assert_array_equal(precoders[t], ref_p)
            np.testing.assert_array_equal(np.asarray(scale)[t], ref_k)
            single_p, single_k = zero_forcing_precoder_wideband(channels[t])
            assert isinstance(single_k, float)
            np.testing.assert_array_equal(single_p, ref_p)
            assert single_k == ref_k

    @given(seed=seeds, batch=batch_sizes, n=dims)
    @settings(max_examples=25, deadline=None)
    def test_snr_reduction_grid_bitwise(self, seed, batch, n):
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n, n))
        misalignments = rng.uniform(0.0, 0.5, 3)
        snrs_db = np.array([10.0, 20.0])
        grid = snr_reduction_grid(channels, misalignments, snrs_db)
        assert grid.shape == (batch, 2, 3, n)
        for t in range(batch):
            for s, snr in enumerate(snrs_db):
                for m, mis in enumerate(misalignments):
                    ref = snr_reduction_from_misalignment(channels[t], mis, snr)
                    np.testing.assert_array_equal(grid[t, s, m], ref)

    @given(seed=seeds, batch=batch_sizes, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_goodput_batch_bitwise(self, seed, batch, n_bins):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(-10.0, 40.0, (batch, n_bins))
        selector = EffectiveSnrRateSelector(10e6, mac_efficiency=0.75)
        batched = selector.goodput_batch(rows)
        assert batched.shape == (batch,)
        for t in range(batch):
            np.testing.assert_array_equal(batched[t], selector.goodput(rows[t]))


class TestShapeDtypeInvariants:
    @given(seed=seeds, batch=batch_sizes, n_rx=dims,
           extra_tx=st.integers(0, 2), n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_joint_zf_shapes(self, seed, batch, n_rx, extra_tx, n_bins):
        n_tx = n_rx + extra_tx  # ZF needs at least as many antennas as clients
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n_bins, n_rx, n_tx))
        out = joint_zf_sinr_db(channels)
        assert out.shape == (batch, n_rx, n_bins)
        assert out.dtype == np.float64
        assert np.all(np.isfinite(out))

    @given(seed=seeds, batch=batch_sizes, n=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_mmse_shapes(self, seed, batch, n, n_bins):
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n_bins, n, n))
        out = mmse_stream_sinr_db(channels)
        assert out.shape == (batch, n, n_bins)
        assert out.dtype == np.float64

    @given(seed=seeds, batch=batch_sizes, n_aps=dims, n_bins=bins)
    @settings(max_examples=25, deadline=None)
    def test_diversity_shapes(self, seed, batch, n_aps, n_bins):
        rng = np.random.default_rng(seed)
        channels = _complex(rng, (batch, n_bins, n_aps))
        out = diversity_snr_db(channels)
        assert out.shape == (batch, n_bins)
        assert out.dtype == np.float64


class TestTrialPermutationInvariance:
    PARAMS = {
        "n": 2,
        "band": (18.0, 22.0),
        "error_model": SyncErrorModel(),
    }

    @given(master=seeds, order_seed=seeds, n_trials=st.integers(2, 6))
    @settings(max_examples=10, deadline=None)
    def test_permuting_seeds_permutes_results(self, master, order_seed,
                                              n_trials):
        trial_seeds = [master + i for i in range(n_trials)]
        results = sinr_grid_kernel(self.PARAMS, trial_seeds)
        perm = np.random.default_rng(order_seed).permutation(n_trials)
        permuted = sinr_grid_kernel(
            self.PARAMS, [trial_seeds[i] for i in perm]
        )
        assert permuted == [results[i] for i in perm]
        # fsum is correctly rounded, hence order-invariant — the aggregate
        # over trials is untouched by the permutation, bit for bit.
        agg = math.fsum(r["mean_sinr_db"] for r in results) / n_trials
        assert math.fsum(r["mean_sinr_db"] for r in permuted) / n_trials == agg

    @given(master=seeds, n_trials=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_batch_matches_scalar_map(self, master, n_trials):
        trial_seeds = [master + i for i in range(n_trials)]
        batched = sinr_grid_kernel(self.PARAMS, trial_seeds)
        assert batched == [
            sinr_grid_kernel(self.PARAMS, [s])[0] for s in trial_seeds
        ]
