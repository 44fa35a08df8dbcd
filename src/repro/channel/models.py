"""Static small-scale fading models and per-link channel realizations.

The paper's experiments all run well inside the channel coherence time
("several hundreds of milliseconds in typical indoor scenarios", §5), so a
link's small-scale fading is a static complex response per experiment; the
time variation that matters — oscillator rotation — lives in
:mod:`repro.channel.oscillator`.  Supported models:

* flat Rayleigh (single tap, NLOS),
* Rician-K (single tap with a LOS component),
* multipath with an exponential power-delay profile (frequency selective).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import FFT_SIZE
from repro.utils.rng import complex_normal, ensure_rng
from repro.utils.validation import require


@dataclass
class LinkChannel:
    """One realized link: sampled impulse response plus propagation delay.

    Attributes:
        taps: Complex impulse response at the channel sample rate.  The taps
            include large-scale gain (path loss) so that convolving unit-power
            transmit samples yields the received power.
        delay_s: Line-of-sight propagation delay in seconds (sub-sample
            delays are applied by the medium as a fractional delay).
    """

    taps: np.ndarray
    delay_s: float = 0.0

    @property
    def gain(self) -> float:
        """Total power gain of the link, sum |tap|^2."""
        return float(np.sum(np.abs(self.taps) ** 2))

    def frequency_response(self, fft_size: int = FFT_SIZE) -> np.ndarray:
        """Channel frequency response over an OFDM grid (64 bins)."""
        taps = np.asarray(self.taps, dtype=complex)
        require(taps.size <= fft_size, "impulse response longer than FFT")
        padded = np.zeros(fft_size, dtype=complex)
        padded[: taps.size] = taps
        return np.fft.fft(padded)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Convolve transmit samples with the impulse response ("full")."""
        return np.convolve(np.asarray(samples, dtype=complex), self.taps)


class ChannelModel:
    """Interface: draw a :class:`LinkChannel` with a target average gain."""

    def realize(self, average_gain: float, rng=None) -> LinkChannel:
        raise NotImplementedError

    def realize_taps(self, average_gains: np.ndarray, rng=None) -> np.ndarray:
        """Vectorized draw: ``(*shape,)`` gains -> ``(*shape, n_taps)`` taps.

        One array-sized RNG draw replaces the per-link scalar draws of
        :meth:`realize`, so a whole link matrix (or a stack of them) costs a
        constant number of generator calls.  The stream consumption differs
        from per-link ``realize`` calls by construction; every consumer of a
        given sweep kernel must pick one of the two APIs and stick to it
        (the sweep kernels use this one exclusively).
        """
        raise NotImplementedError


@dataclass
class FlatRayleighChannel(ChannelModel):
    """Single-tap Rayleigh fading: h ~ CN(0, average_gain)."""

    def realize(self, average_gain: float, rng=None) -> LinkChannel:
        rng = ensure_rng(rng)
        tap = complex_normal(rng, (), scale=np.sqrt(average_gain))
        return LinkChannel(taps=np.array([tap]))

    def realize_taps(self, average_gains: np.ndarray, rng=None) -> np.ndarray:
        rng = ensure_rng(rng)
        gains = np.asarray(average_gains, dtype=float)
        taps = complex_normal(rng, gains.shape, scale=1.0) * np.sqrt(gains)
        return taps[..., np.newaxis]


@dataclass
class RicianChannel(ChannelModel):
    """Single-tap Rician fading with K-factor (LOS-to-scatter power ratio)."""

    k_factor: float = 5.0

    def realize(self, average_gain: float, rng=None) -> LinkChannel:
        rng = ensure_rng(rng)
        k = self.k_factor
        los_power = average_gain * k / (k + 1.0)
        nlos_power = average_gain / (k + 1.0)
        los_phase = rng.uniform(-np.pi, np.pi)
        tap = np.sqrt(los_power) * np.exp(1j * los_phase) + complex_normal(
            rng, (), scale=np.sqrt(nlos_power)
        )
        return LinkChannel(taps=np.array([tap]))

    def realize_taps(self, average_gains: np.ndarray, rng=None) -> np.ndarray:
        rng = ensure_rng(rng)
        gains = np.asarray(average_gains, dtype=float)
        k = self.k_factor
        los_power = gains * k / (k + 1.0)
        nlos_power = gains / (k + 1.0)
        los_phases = rng.uniform(-np.pi, np.pi, gains.shape)
        scatter = complex_normal(rng, gains.shape, scale=1.0) * np.sqrt(nlos_power)
        taps = np.sqrt(los_power) * np.exp(1j * los_phases) + scatter
        return taps[..., np.newaxis]


@dataclass
class MultipathChannel(ChannelModel):
    """Exponential power-delay-profile multipath channel.

    Attributes:
        n_taps: Number of sample-spaced taps.  With a 16-sample cyclic
            prefix, up to 16 taps decode cleanly; indoor channels at 10 MHz
            rarely exceed ~4 resolvable taps (rms delay spread < 100 ns).
        decay_per_tap_db: Power decay per tap of the exponential profile.
        rician_k_first_tap: Optional LOS component on the first tap.
    """

    n_taps: int = 4
    decay_per_tap_db: float = 3.0
    rician_k_first_tap: float = 0.0

    def realize(self, average_gain: float, rng=None) -> LinkChannel:
        rng = ensure_rng(rng)
        require(self.n_taps >= 1, "need at least one tap")
        profile = 10.0 ** (-self.decay_per_tap_db * np.arange(self.n_taps) / 10.0)
        profile = profile / profile.sum() * average_gain
        taps = complex_normal(rng, self.n_taps, scale=1.0) * np.sqrt(profile)
        if self.rician_k_first_tap > 0:
            k = self.rician_k_first_tap
            los = np.sqrt(profile[0] * k / (k + 1.0)) * np.exp(
                1j * rng.uniform(-np.pi, np.pi)
            )
            scatter = complex_normal(rng, (), scale=np.sqrt(profile[0] / (k + 1.0)))
            taps[0] = los + scatter
        return LinkChannel(taps=taps)

    def realize_taps(self, average_gains: np.ndarray, rng=None) -> np.ndarray:
        rng = ensure_rng(rng)
        require(self.n_taps >= 1, "need at least one tap")
        gains = np.asarray(average_gains, dtype=float)
        profile = 10.0 ** (-self.decay_per_tap_db * np.arange(self.n_taps) / 10.0)
        profile = profile / profile.sum()
        power = profile * gains[..., np.newaxis]
        taps = complex_normal(rng, power.shape, scale=1.0) * np.sqrt(power)
        if self.rician_k_first_tap > 0:
            k = self.rician_k_first_tap
            first = power[..., 0]
            los_phases = rng.uniform(-np.pi, np.pi, gains.shape)
            los = np.sqrt(first * k / (k + 1.0)) * np.exp(1j * los_phases)
            scatter = complex_normal(rng, gains.shape, scale=1.0) * np.sqrt(
                first / (k + 1.0)
            )
            taps[..., 0] = los + scatter
        return taps


def random_channel_matrix(
    n_rx: int,
    n_tx: int,
    rng=None,
    model: ChannelModel = None,
    average_gain: float = 1.0,
) -> np.ndarray:
    """Draw an (n_rx, n_tx) matrix of i.i.d. single-tap channels.

    Convenience for frequency-flat analyses like the Fig. 6 microbenchmark
    (100 random channel matrices).  Draws the whole matrix in one vectorized
    :meth:`ChannelModel.realize_taps` call, so a batched caller looping
    trials consumes the RNG stream identically to this scalar helper.
    """
    rng = ensure_rng(rng)
    model = model or FlatRayleighChannel()
    gains = np.full((n_rx, n_tx), float(average_gain))
    return model.realize_taps(gains, rng=rng)[..., 0]
