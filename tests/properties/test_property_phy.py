"""Property-based tests of the PHY chain invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.constants import (
    CP_LENGTH,
    DATA_SUBCARRIERS,
    FFT_SIZE,
    PILOT_POLARITY,
    PILOT_SUBCARRIERS,
    PILOT_VALUES,
    SYMBOL_LENGTH,
)
from repro.phy.coding import BlockInterleaver, ConvolutionalCode, Puncturer, Scrambler
from repro.phy.coding.puncturing import PUNCTURE_PATTERNS
from repro.phy.frame import bits_to_bytes, bytes_to_bits
from repro.phy.modulation import get_modulation
from repro.phy.ofdm import OfdmDemodulator, OfdmModulator

_code = ConvolutionalCode()
_mod = OfdmModulator()
_demod = OfdmDemodulator()

bit_arrays = st.lists(st.integers(0, 1), min_size=1, max_size=256).map(
    lambda bits: np.array(bits, dtype=np.uint8)
)


class TestCodingProperties:
    @given(bits=bit_arrays)
    @settings(max_examples=40, deadline=None)
    def test_conv_roundtrip(self, bits):
        assert np.array_equal(_code.decode_hard(_code.encode(bits), bits.size), bits)

    @given(bits=bit_arrays)
    @settings(max_examples=25, deadline=None)
    def test_conv_code_is_linear(self, bits):
        zero = np.zeros_like(bits)
        assert np.array_equal(_code.encode(zero), np.zeros(2 * (bits.size + 6), dtype=np.uint8))

    @given(
        bits=bit_arrays,
        rate=st.sampled_from([(1, 2), (2, 3), (3, 4)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_puncture_roundtrip(self, bits, rate):
        coded = _code.encode(bits)
        p = Puncturer(rate)
        tx = p.puncture(coded)
        assert tx.size == p.punctured_length(coded.size)
        rx = p.depuncture(1.0 - 2.0 * tx.astype(float), coded.size)
        assert np.array_equal(_code.decode(rx, bits.size), bits)

    @given(bits=bit_arrays, seed=st.integers(1, 127))
    @settings(max_examples=30, deadline=None)
    def test_scrambler_involution(self, bits, seed):
        s = Scrambler(seed)
        assert np.array_equal(Scrambler(seed).descramble(s.scramble(bits)), bits)

    @given(
        n_blocks=st.integers(1, 4),
        bits_per_sc=st.sampled_from([1, 2, 4, 6]),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=30, deadline=None)
    def test_interleaver_bijection(self, n_blocks, bits_per_sc, seed):
        n_cbps = 48 * bits_per_sc
        il = BlockInterleaver(n_cbps, bits_per_sc)
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 2, n_cbps * n_blocks).astype(np.uint8)
        out = il.interleave(data)
        assert sorted(out.tolist()) == sorted(data.tolist())  # permutation
        assert np.array_equal(il.deinterleave(out), data)


class TestModulationProperties:
    @given(
        name=st.sampled_from(["BPSK", "QPSK", "16QAM", "64QAM"]),
        seed=st.integers(0, 2**31),
        n=st.integers(1, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, name, seed, n):
        mod = get_modulation(name)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, n * mod.bits_per_symbol).astype(np.uint8)
        assert np.array_equal(mod.demodulate_hard(mod.modulate(bits)), bits)

    @given(name=st.sampled_from(["BPSK", "QPSK", "16QAM", "64QAM"]))
    @settings(max_examples=10, deadline=None)
    def test_unit_energy(self, name):
        mod = get_modulation(name)
        assert np.mean(np.abs(mod.points) ** 2) == pytest.approx(1.0)


class TestOfdmProperties:
    @given(seed=st.integers(0, 2**31), symbol_index=st.integers(0, 126))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_pilot_index(self, seed, symbol_index):
        rng = np.random.default_rng(seed)
        qpsk = get_modulation("QPSK")
        data = qpsk.modulate(rng.integers(0, 2, 96).astype(np.uint8))
        samples = _mod.modulate_symbol(data, symbol_index)
        eq = _demod.demodulate_symbol(samples, np.ones(64), symbol_index)
        assert np.allclose(eq.data, data, atol=1e-9)

    @given(seed=st.integers(0, 2**31), phase=st.floats(-3.0, 3.0))
    @settings(max_examples=40, deadline=None)
    def test_common_phase_invariance(self, seed, phase):
        """Pilot tracking removes any common rotation exactly."""
        rng = np.random.default_rng(seed)
        qpsk = get_modulation("QPSK")
        data = qpsk.modulate(rng.integers(0, 2, 96).astype(np.uint8))
        samples = _mod.modulate_symbol(data) * np.exp(1j * phase)
        eq = _demod.demodulate_symbol(samples, np.ones(64))
        assert np.allclose(eq.data, data, atol=1e-8)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_parseval_energy(self, seed):
        """Time-domain energy of the body equals frequency-domain energy."""
        rng = np.random.default_rng(seed)
        qpsk = get_modulation("QPSK")
        data = qpsk.modulate(rng.integers(0, 2, 96).astype(np.uint8))
        grid = _mod.symbol_grid(data)
        samples = _mod.modulate_symbol(data)
        body = samples[16:]
        assert np.sum(np.abs(body) ** 2) == pytest.approx(
            np.sum(np.abs(grid) ** 2), rel=1e-9
        )


class TestByteHelpers:
    @given(data=st.binary(min_size=0, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_bytes_bits_roundtrip(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data


# -- oracles: the straightforward per-step / per-symbol loops ------------------


def loop_encode(code, bits):
    """Shift-register encoder: one trellis transition per input bit."""
    padded = np.concatenate([bits, np.zeros(code.n_tail_bits, dtype=np.uint8)])
    out = np.empty(2 * padded.size, dtype=np.uint8)
    state = 0
    for i, b in enumerate(padded):
        out[2 * i] = code.output_bits[state, b, 0]
        out[2 * i + 1] = code.output_bits[state, b, 1]
        state = code.next_state[state, b]
    return out


def loop_decode(code, llrs, n_info_bits):
    """Viterbi over one frame, one add-compare-select per time step."""
    n_states = code.n_states
    prev_state = np.empty((n_states, 2), dtype=np.int64)
    prev_bit = np.empty((n_states, 2), dtype=np.uint8)
    counts = np.zeros(n_states, dtype=np.int64)
    for s in range(n_states):
        for bit in (0, 1):
            ns = code.next_state[s, bit]
            prev_state[ns, counts[ns]] = s
            prev_bit[ns, counts[ns]] = bit
            counts[ns] += 1
    pairs = np.asarray(llrs, dtype=float).reshape(-1, 2)
    expected = 1.0 - 2.0 * code.output_bits.astype(float)
    metrics = np.full(n_states, -1e18)
    metrics[0] = 0.0
    decisions = np.empty((len(pairs), n_states), dtype=np.uint8)
    arrived = expected[prev_state, prev_bit]
    branch = (pairs @ arrived.reshape(-1, 2).T).reshape(len(pairs), n_states, 2)
    state_range = np.arange(n_states)
    for t in range(len(pairs)):
        cand = metrics[prev_state] + branch[t]
        choice = (cand[:, 1] > cand[:, 0]).astype(np.uint8)  # ties keep 0
        metrics = cand[state_range, choice]
        decisions[t] = choice
    state = 0
    out = np.empty(len(pairs), dtype=np.uint8)
    for t in range(len(pairs) - 1, -1, -1):
        j = decisions[t, state]
        out[t] = prev_bit[state, j]
        state = prev_state[state, j]
    return out[:n_info_bits]


def loop_keystream(seed, n_bits):
    """The x^7 + x^4 + 1 LFSR, one bit per iteration."""
    state = seed
    out = np.empty(n_bits, dtype=np.uint8)
    for i in range(n_bits):
        bit = ((state >> 6) ^ (state >> 3)) & 1
        state = ((state << 1) | bit) & 0x7F
        out[i] = bit
    return out


_DATA = np.where(DATA_SUBCARRIERS >= 0, DATA_SUBCARRIERS, DATA_SUBCARRIERS + FFT_SIZE)
_PILOTS = np.where(PILOT_SUBCARRIERS >= 0, PILOT_SUBCARRIERS, PILOT_SUBCARRIERS + FFT_SIZE)


def _floored(values, floor=1e-9):
    values = np.asarray(values, dtype=complex).copy()
    values[np.abs(values) < floor] = floor
    return values


def loop_demodulate(samples, channel, symbol_index, track_phase):
    """Equalize one 80-sample symbol: (data, common_phase, pilot_snr)."""
    grid = np.fft.fft(samples[CP_LENGTH:]) / np.sqrt(FFT_SIZE)
    polarity = PILOT_POLARITY[symbol_index % len(PILOT_POLARITY)]
    rotations = grid[_PILOTS] / _floored(channel[_PILOTS]) * np.conj(PILOT_VALUES * polarity)
    common_phase = float(np.angle(np.sum(rotations))) if track_phase else 0.0
    data = grid[_DATA] / _floored(channel[_DATA]) * np.exp(-1j * common_phase)
    aligned = rotations * np.exp(-1j * common_phase)
    signal_power = float(np.mean(np.abs(aligned)) ** 2)
    noise_power = float(np.mean(np.abs(aligned - np.mean(aligned)) ** 2))
    return data, common_phase, signal_power / max(noise_power, 1e-12)


def _llr_batch(draw_kind, rng, n_frames, n_steps):
    shape = (n_frames, 2 * n_steps)
    if draw_kind == "soft":
        return rng.normal(0.0, 2.0, shape)
    if draw_kind == "hard":
        return rng.choice([-1.0, 1.0], shape)
    if draw_kind == "erasures":  # hard decisions with punctured zeros
        return rng.choice([-1.0, 0.0, 1.0], shape)
    if draw_kind == "quantized":  # coarse soft values: frequent exact ties
        return np.round(rng.normal(0.0, 1.0, shape))
    # long all-zero runs inside soft input: every path metric ties there
    llrs = rng.normal(0.0, 2.0, shape)
    for row in llrs:
        start = int(rng.integers(0, max(row.size - 1, 1)))
        row[start : start + int(rng.integers(20, 200))] = 0.0
    return llrs


class TestBatchedOracles:
    @given(
        seed=st.integers(0, 2**31),
        n_frames=st.integers(1, 4),
        n_steps=st.integers(0, 400),
        kind=st.sampled_from(["soft", "hard", "erasures", "quantized", "zero_runs"]),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_decode_equals_single_loop_decodes(
        self, seed, n_frames, n_steps, kind, data
    ):
        n_info = data.draw(st.integers(0, n_steps))
        llrs = _llr_batch(kind, np.random.default_rng(seed), n_frames, n_steps)
        batched = _code.decode(llrs, n_info)
        assert batched.shape == (n_frames, n_info)
        for row, out in zip(llrs, batched):
            expected = loop_decode(_code, row, n_info)
            assert np.array_equal(out, expected)
            assert np.array_equal(_code.decode(row, n_info), expected)

    @given(seed=st.integers(0, 2**31), n_frames=st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_all_zero_llrs_decode_like_the_loop(self, seed, n_frames):
        """Every metric ties on every step: the tie rule alone picks the path."""
        n_steps = int(np.random.default_rng(seed).integers(1, 300))
        llrs = np.zeros((n_frames, 2 * n_steps))
        expected = loop_decode(_code, llrs[0], n_steps)
        assert np.array_equal(_code.decode(llrs, n_steps), np.tile(expected, (n_frames, 1)))

    @given(bits=st.lists(st.integers(0, 1), min_size=0, max_size=600))
    @settings(max_examples=50, deadline=None)
    def test_encode_equals_shift_register(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        assert np.array_equal(_code.encode(bits), loop_encode(_code, bits))

    @given(n_bits=st.integers(0, 5 * 127))
    @example(n_bits=0)
    @example(n_bits=127)
    @example(n_bits=128)
    @settings(max_examples=15, deadline=None)
    def test_keystream_equals_lfsr_for_every_seed(self, n_bits):
        for seed in range(1, 128):
            assert np.array_equal(
                Scrambler(seed).keystream(n_bits), loop_keystream(seed, n_bits)
            )

    @given(
        seed=st.integers(0, 2**31),
        n_symbols=st.integers(1, 40),
        first_index=st.integers(0, 300),
        track_phase=st.booleans(),
        weak_bin=st.sampled_from([None, *_DATA[:3], *_PILOTS[:2]]),
    )
    @settings(max_examples=60, deadline=None)
    def test_frame_demod_equals_symbol_loop(
        self, seed, n_symbols, first_index, track_phase, weak_bin
    ):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(n_symbols, SYMBOL_LENGTH)) + 1j * rng.normal(
            size=(n_symbols, SYMBOL_LENGTH)
        )
        channel = rng.normal(size=FFT_SIZE) + 1j * rng.normal(size=FFT_SIZE)
        if weak_bin is not None:
            channel[weak_bin] = 1e-12  # below the equalizer's division floor
        eq = _demod.demodulate_symbol(samples, channel, first_index, track_phase)
        assert eq.data.shape == (n_symbols, 48)
        for m in range(n_symbols):
            data, phase, snr = loop_demodulate(
                samples[m], channel, first_index + m, track_phase
            )
            assert np.array_equal(eq.data[m], data)
            assert np.array_equal(eq.common_phase[m], phase)
            assert np.array_equal(eq.pilot_snr[m], snr)
            single = _demod.demodulate_symbol(
                samples[m], channel, first_index + m, track_phase
            )
            assert np.array_equal(single.data, data)
            assert (single.common_phase, single.pilot_snr) == (phase, snr)


class TestCyclicMasks:
    """Puncturing masks and scrambler keystreams equal ``np.resize`` of one
    period, the construction they replaced."""

    @given(
        rate=st.sampled_from(sorted(PUNCTURE_PATTERNS)),
        n_coded=st.integers(0, 4096),
        seed=st.integers(0, 2**31),
    )
    @example(rate=(3, 4), n_coded=0, seed=0)
    @example(rate=(3, 4), n_coded=4096, seed=0)
    @example(rate=(2, 3), n_coded=4095, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_puncture_depuncture_equal_resized_pattern(self, rate, n_coded, seed):
        mask = np.resize(PUNCTURE_PATTERNS[rate], n_coded)
        rng = np.random.default_rng(seed)
        coded = rng.integers(0, 2, n_coded).astype(np.uint8)
        p = Puncturer(rate)
        assert np.array_equal(p.puncture(coded), coded[mask])
        values = rng.normal(size=(2, int(mask.sum())))
        expected = np.zeros((2, n_coded))
        expected[:, mask] = values
        assert np.array_equal(p.depuncture(values, n_coded), expected)
        assert np.array_equal(p.depuncture(values[0], n_coded), expected[0])

    @given(seed=st.integers(1, 127), n_bits=st.integers(0, 4096))
    @example(seed=1, n_bits=0)
    @example(seed=127, n_bits=4096)
    @settings(max_examples=60, deadline=None)
    def test_keystream_equals_resized_period(self, seed, n_bits):
        period = loop_keystream(seed, 127)
        assert np.array_equal(Scrambler(seed).keystream(n_bits), np.resize(period, n_bits))
