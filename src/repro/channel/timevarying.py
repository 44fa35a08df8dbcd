"""Time-varying fading: channel coherence and decorrelation.

The paper's protocol amortizes one channel-measurement phase over many
data packets because indoor channels stay coherent for "several hundreds
of milliseconds" (§5, [9]).  This module models that time axis with the
classic Clarke/Jakes fading model:

* ``JakesFader`` — sum-of-sinusoids simulator whose autocorrelation is
  ``J0(2 pi f_D t)`` (Clarke's spectrum); deterministic in time, so
  repeated queries at the same instant agree exactly;
* ``GaussMarkovFader`` — a simpler AR-1 alternative with exponential
  autocorrelation (pessimistic at short lags, kept for comparisons);
* ``TimeVaryingLinkChannel`` — a link whose taps evolve, compatible with
  :class:`~repro.channel.medium.Medium`;
* ``JakesLinkStack`` — a grid of Jakes-faded links stacked once and
  evaluated at an instant in one broadcast pass;
* ``channel_correlation`` — maps elapsed time to expected correlation,
  used by the staleness analysis in :mod:`repro.sim.overhead`.

Coherence time convention: ``Tc`` is the 50%-coherence time, i.e.
``|rho(Tc)| = 0.5``, giving a Doppler spread ``f_D ~ 0.242 / Tc`` (for
Clarke's model J0(1.52) ~ 0.5).  A pedestrian walking through a conference
room at 2.4 GHz gives f_D of a few Hz -> Tc of hundreds of ms, matching
the paper's environment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import j0

from repro.channel.models import LinkChannel
from repro.constants import COHERENCE_TIME_S
from repro.utils.rng import complex_normal, ensure_rng
from repro.utils.validation import require

#: 2*pi*f_D*Tc at which Clarke correlation crosses 0.5 (J0(1.52) ~ 0.5).
_CLARKE_HALF_POINT = 1.52


def doppler_from_coherence(coherence_time_s: float) -> float:
    """Doppler spread f_D (Hz) for a 50%-coherence time ``Tc``."""
    require(coherence_time_s > 0, "coherence time must be positive")
    return _CLARKE_HALF_POINT / (2.0 * np.pi * coherence_time_s)


def channel_correlation(
    elapsed_s: float, coherence_time_s: float, model: str = "clarke"
) -> float:
    """Expected fading correlation after ``elapsed_s`` seconds.

    Args:
        model: ``"clarke"`` (J0, the physical default — flat near t = 0) or
            ``"exponential"`` (matches :class:`GaussMarkovFader`).
    """
    require(coherence_time_s > 0, "coherence time must be positive")
    if model == "exponential":
        return float(np.exp(-abs(elapsed_s) / coherence_time_s))
    if model == "clarke":
        f_d = doppler_from_coherence(coherence_time_s)
        return float(j0(2.0 * np.pi * f_d * abs(elapsed_s)))
    raise ValueError(f"unknown correlation model {model!r}")


class JakesFader:
    """Sum-of-sinusoids Clarke-spectrum fading simulator.

    ``h(t) = sqrt(1/N) sum_k exp(j (2 pi f_D cos(a_k) t + phi_k))`` with
    random arrival angles and phases; E|h|^2 = 1 and the autocorrelation
    approaches ``J0(2 pi f_D t)`` as N grows.  Being a closed-form function
    of t it needs no state — queries are exactly repeatable at any time.
    """

    def __init__(self, coherence_time_s: float, rng=None, n_paths: int = 16):
        require(n_paths >= 4, "need a few propagation paths")
        self.coherence_time_s = float(coherence_time_s)
        self.f_doppler = doppler_from_coherence(coherence_time_s)
        rng = ensure_rng(rng)
        angles = rng.uniform(0.0, 2.0 * np.pi, n_paths)
        self._omegas = 2.0 * np.pi * self.f_doppler * np.cos(angles)
        self._phases = rng.uniform(0.0, 2.0 * np.pi, n_paths)
        self._scale = 1.0 / np.sqrt(n_paths)

    def value_at(self, t: float) -> complex:
        """The unit-power fading component at absolute time ``t``."""
        return complex(
            self._scale * np.sum(np.exp(1j * (self._omegas * t + self._phases)))
        )


class GaussMarkovFader:
    """AR-1 fading with exponential autocorrelation (comparison model).

    ``h(t + dt) = rho h(t) + sqrt(1 - rho^2) w`` with
    ``rho = exp(-dt / Tc)``.  Values are generated lazily on a grid and
    interpolated so repeated queries agree.  Note the exponential
    autocorrelation decays *linearly* near t = 0, much faster than
    physical fading — use :class:`JakesFader` unless you want that
    pessimism on purpose.
    """

    def __init__(self, coherence_time_s: float, rng=None, grid_dt: Optional[float] = None):
        require(coherence_time_s > 0, "coherence time must be positive")
        self.coherence_time_s = float(coherence_time_s)
        self._rng = ensure_rng(rng)
        self.grid_dt = grid_dt if grid_dt is not None else coherence_time_s / 50.0
        self._rho = float(np.exp(-self.grid_dt / self.coherence_time_s))
        self._innovation = float(np.sqrt(1.0 - self._rho**2))
        self._values = np.array([complex_normal(self._rng, ())])

    def _extend(self, n_points: int) -> None:
        if n_points <= self._values.size:
            return
        extra = n_points - self._values.size
        new = np.empty(extra, dtype=complex)
        prev = self._values[-1]
        for i in range(extra):
            prev = self._rho * prev + self._innovation * complex_normal(self._rng, ())
            new[i] = prev
        self._values = np.concatenate([self._values, new])

    def value_at(self, t: float) -> complex:
        """The unit-variance fading component at absolute time ``t >= 0``."""
        require(t >= 0.0, "time must be >= 0")
        idx = t / self.grid_dt
        hi = int(np.ceil(idx))
        self._extend(hi + 2)
        lo = int(np.floor(idx))
        frac = idx - lo
        return complex((1 - frac) * self._values[lo] + frac * self._values[lo + 1])


@dataclass
class TimeVaryingLinkChannel:
    """A link whose impulse response evolves with a coherence time.

    Decomposes each tap into a static (specular/LOS) part and a faded part:
    ``tap_i(t) = sqrt(K/(K+1)) s_i + sqrt(1/(K+1)) g_i f_i(t)`` where
    ``f_i`` is a unit fader — so a large Rician K yields a slowly-breathing
    channel and K = 0 pure time-varying Rayleigh.

    Implements the same interface as
    :class:`~repro.channel.models.LinkChannel` plus :meth:`taps_at`.
    """

    static_taps: np.ndarray
    faded_scale: np.ndarray
    faders: list
    delay_s: float = 0.0

    @classmethod
    def create(
        cls,
        average_gain: float,
        coherence_time_s: float = COHERENCE_TIME_S,
        n_taps: int = 1,
        rician_k: float = 0.0,
        rng=None,
        delay_s: float = 0.0,
        fader: str = "jakes",
    ) -> "TimeVaryingLinkChannel":
        """Draw a time-varying link with the given statistics."""
        rng = ensure_rng(rng)
        require(n_taps >= 1, "need at least one tap")
        profile = np.full(n_taps, average_gain / n_taps)
        k = max(float(rician_k), 0.0)
        static = np.sqrt(profile * k / (k + 1.0)) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, n_taps)
        )
        faded_scale = np.sqrt(profile / (k + 1.0))
        fader_cls = JakesFader if fader == "jakes" else GaussMarkovFader
        faders = [fader_cls(coherence_time_s, rng=rng) for _ in range(n_taps)]
        return cls(
            static_taps=static,
            faded_scale=faded_scale,
            faders=faders,
            delay_s=delay_s,
        )

    def taps_at(self, t: float) -> np.ndarray:
        """The impulse response at absolute time ``t``."""
        faded = np.array([f.value_at(t) for f in self.faders])
        return self.static_taps + self.faded_scale * faded

    def snapshot(self, t: float) -> LinkChannel:
        """Freeze the link at time ``t`` as a static LinkChannel."""
        return LinkChannel(taps=self.taps_at(t), delay_s=self.delay_s)

    # -- LinkChannel-compatible interface (evaluated at t = 0) --------------

    @property
    def taps(self) -> np.ndarray:
        return self.taps_at(0.0)

    @property
    def gain(self) -> float:
        return float(
            np.sum(np.abs(self.static_taps) ** 2) + np.sum(self.faded_scale**2)
        )

    def frequency_response(self, fft_size: int = 64) -> np.ndarray:
        return self.snapshot(0.0).frequency_response(fft_size)

    def apply(self, samples: np.ndarray) -> np.ndarray:
        return self.snapshot(0.0).apply(samples)

    def apply_at(self, samples: np.ndarray, t: float) -> np.ndarray:
        """Convolve with the response at time ``t`` (packets are far shorter
        than the coherence time, so one snapshot per packet suffices)."""
        return self.snapshot(t).apply(samples)


class JakesLinkStack:
    """A (rows, cols) grid of Jakes-faded links evaluated in one pass.

    Every link's fader angles, phases and scales, static taps and faded
    scales are stacked once; :meth:`taps_at` then realizes all links' taps
    with one broadcast ``exp``/``sum``, bit-identical to each link's own
    :meth:`TimeVaryingLinkChannel.taps_at`.

    Args:
        links: Equally long rows of :class:`TimeVaryingLinkChannel` built
            with Jakes faders, all with the same tap and path counts.
    """

    def __init__(self, links: Sequence[Sequence[TimeVaryingLinkChannel]]):
        flat = [link for row in links for link in row]
        faders = [fader for link in flat for fader in link.faders]
        require(
            all(type(fader) is JakesFader for fader in faders),
            "stacked evaluation supports Jakes faders only",
        )
        n_taps = len(flat[0].faders)
        require(
            all(len(link.faders) == n_taps for link in flat),
            "links must share a tap count",
        )
        grid = (len(links), len(links[0]), n_taps)
        self._omegas = np.array([f._omegas for f in faders]).reshape(grid + (-1,))
        self._phases = np.array([f._phases for f in faders]).reshape(grid + (-1,))
        self._scale = np.array([f._scale for f in faders]).reshape(grid)
        self._static = np.array([link.static_taps for link in flat]).reshape(grid)
        self._faded_scale = np.array([link.faded_scale for link in flat]).reshape(grid)

    def taps_at(self, t: float) -> np.ndarray:
        """(rows, cols, n_taps) impulse responses at absolute time ``t``."""
        paths = np.exp(1j * (self._omegas * t + self._phases))
        faded = self._scale * np.sum(paths, axis=-1)
        return self._static + self._faded_scale * faded
