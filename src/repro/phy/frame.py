"""PLCP-style packet framing: SIGNAL field, coding chain and OFDM payload.

The encoder turns a payload byte string into baseband samples:

    payload -> CRC-32 -> scramble -> convolutional encode -> puncture
            -> interleave -> constellation map -> OFDM symbols

preceded by a BPSK-1/2 SIGNAL symbol carrying the MCS and length (as in
IEEE 802.11-2012 §18.3.4).  The decoder inverts every step and reports CRC
success, which is what the link layer counts as a delivered packet.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from repro.phy.coding import BlockInterleaver, ConvolutionalCode, Puncturer, Scrambler
from repro.phy.mcs import Mcs, get_mcs
from repro.phy.modulation import get_modulation
from repro.phy.ofdm import OfdmModulator
from repro.utils.validation import require

_CRC_BYTES = 4
_SIGNAL_BITS = 24
#: RATE field encodings of 802.11-2012 Table 18-6, indexed by MCS index.
_RATE_CODES = (0b1101, 0b1111, 0b0101, 0b0111, 0b1001, 0b1011, 0b0001, 0b0011)


def bytes_to_bits(data: bytes) -> np.ndarray:
    """LSB-first byte-to-bit expansion (802.11 bit ordering)."""
    arr = np.frombuffer(bytes(data), dtype=np.uint8)
    return np.unpackbits(arr, bitorder="little")


def bits_to_bytes(bits: np.ndarray) -> bytes:
    """Inverse of :func:`bytes_to_bits`; trailing partial bytes are dropped."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    n = (bits.size // 8) * 8
    return np.packbits(bits[:n], bitorder="little").tobytes()


@dataclass
class FrameConfig:
    """Static configuration shared by encoder and decoder.

    Attributes:
        sample_rate: Channel sample rate (10 MHz USRP / 20 MHz 802.11n).
        scrambler_seed: Initial scrambler state.
    """

    sample_rate: float
    scrambler_seed: int = 0b1011101


@dataclass
class DecodedFrame:
    """Decoder output.

    Attributes:
        payload: Recovered payload bytes (CRC stripped), or None on failure.
        crc_ok: Whether the CRC-32 check passed.
        mcs: The MCS announced in the SIGNAL field.
        length: Payload length announced in the SIGNAL field.
        evm_db: Error-vector magnitude of the equalized data symbols, dB.
    """

    payload: Optional[bytes]
    crc_ok: bool
    mcs: Optional[Mcs]
    length: int = 0
    evm_db: float = np.nan


class PhyFrameEncoder:
    """Encode payload bytes into OFDM data symbols (frequency domain rows).

    The output is returned as a (n_symbols, 48) frequency-domain array plus
    the time-domain samples, so beamforming systems can precode the
    frequency-domain symbols before OFDM modulation.
    """

    def __init__(self, config: FrameConfig):
        self.config = config
        self._code = ConvolutionalCode()
        self._modulator = OfdmModulator()

    def signal_field_symbols(self, mcs: Mcs, length: int) -> np.ndarray:
        """Build the 1-symbol SIGNAL field (BPSK, rate 1/2, no scrambling)."""
        require(0 < length < (1 << 12), "SIGNAL length must fit in 12 bits")
        bits = np.zeros(_SIGNAL_BITS, dtype=np.uint8)
        rate_code = _RATE_CODES[mcs.index]
        for i in range(4):  # RATE, transmitted MSB..LSB into bits 0..3
            bits[i] = (rate_code >> (3 - i)) & 1
        for i in range(12):  # LENGTH, LSB first in bits 5..16
            bits[5 + i] = (length >> i) & 1
        bits[17] = bits[:17].sum() % 2  # even parity
        # bits 18..23 are the all-zero SIGNAL tail; the convolutional
        # encoder's own zero-termination provides it, so encode bits 0..17.
        coded = self._code.encode(bits[:18])  # 2*(18+6) = 48 coded bits
        interleaver = BlockInterleaver(48, 1)
        interleaved = interleaver.interleave(coded)
        symbols = get_modulation("BPSK").modulate(interleaved)
        return symbols.reshape(1, -1)

    def payload_symbols(self, payload: bytes, mcs: Mcs) -> np.ndarray:
        """Encode payload (with CRC) into (n_symbols, 48) data symbols."""
        payload = bytes(payload)
        data = payload + zlib.crc32(payload).to_bytes(_CRC_BYTES, "little")
        bits = bytes_to_bits(data)

        scrambler = Scrambler(self.config.scrambler_seed)
        scrambled = scrambler.scramble(bits)

        coded = self._code.encode(scrambled)
        puncturer = Puncturer(mcs.coding_rate)
        punctured = puncturer.puncture(coded)

        # pad with alternating bits to fill whole OFDM symbols
        n_cbps = mcs.coded_bits_per_symbol
        n_symbols = int(np.ceil(punctured.size / n_cbps))
        pad = n_symbols * n_cbps - punctured.size
        if pad:
            filler = (np.arange(pad) % 2).astype(punctured.dtype)
            punctured = np.concatenate([punctured, filler])

        interleaver = BlockInterleaver(n_cbps, mcs.bits_per_subcarrier)
        interleaved = interleaver.interleave(punctured)
        symbols = mcs.modulation.modulate(interleaved)
        return symbols.reshape(n_symbols, -1)

    def encode(self, payload: bytes, mcs: Mcs) -> np.ndarray:
        """Full frequency-domain frame: SIGNAL symbol + payload symbols."""
        signal = self.signal_field_symbols(mcs, len(payload))
        data = self.payload_symbols(payload, mcs)
        return np.vstack([signal, data])

    def encode_time_domain(self, payload: bytes, mcs: Mcs) -> np.ndarray:
        """Frame as cyclic-prefixed time samples (no preamble)."""
        return self._modulator.modulate_frame(self.encode(payload, mcs))

    def n_payload_symbols(self, payload_length: int, mcs: Mcs) -> int:
        """Number of OFDM data symbols a payload of given length occupies."""
        n_bits = 8 * (payload_length + _CRC_BYTES)
        n_coded = 2 * (n_bits + self._code.n_tail_bits)
        puncturer = Puncturer(mcs.coding_rate)
        n_tx = puncturer.punctured_length(n_coded)
        return int(np.ceil(n_tx / mcs.coded_bits_per_symbol))


class PhyFrameDecoder:
    """Decode equalized frequency-domain symbols back to payload bytes.

    Every method takes one frame or a stack of frames; a stack goes through
    each coding step together, with one Viterbi call per step.
    """

    def __init__(self, config: FrameConfig):
        self.config = config
        self._code = ConvolutionalCode()

    def decode_signal_field(self, symbol: np.ndarray):
        """Parse an equalized SIGNAL symbol; returns (mcs, length) or None.

        A ``(B, 48)`` input parses B SIGNAL symbols with one Viterbi call
        and returns a list.
        """
        symbol = np.asarray(symbol, dtype=complex)
        if symbol.ndim != 2:
            symbol = symbol.ravel()
        fields = symbol.reshape(-1, symbol.shape[-1])
        llrs = get_modulation("BPSK").demodulate_soft(fields)
        interleaver = BlockInterleaver(48, 1)
        deinterleaved = interleaver.deinterleave(llrs).reshape(fields.shape[0], -1)
        bits = self._code.decode(deinterleaved, 18).astype(np.int64)
        rate_codes = bits[:, :4] @ (1 << np.arange(3, -1, -1))
        lengths = bits[:, 5:17] @ (1 << np.arange(12))
        parity_ok = bits[:, :17].sum(axis=1) % 2 == bits[:, 17]
        parsed = [
            (get_mcs(_RATE_CODES.index(rate_code)), length)
            if ok and rate_code in _RATE_CODES and length != 0
            else None
            for rate_code, length, ok in zip(
                rate_codes.tolist(), lengths.tolist(), parity_ok.tolist()
            )
        ]
        return parsed if symbol.ndim == 2 else parsed[0]

    def decode_payload(
        self,
        symbols: np.ndarray,
        mcs: Mcs,
        length: int,
        noise_var=0.05,
    ) -> Union[DecodedFrame, List[DecodedFrame]]:
        """Decode equalized (n_symbols, 48) data symbols to payload bytes.

        A ``(B, n_symbols, 48)`` stack of frames with the same MCS and
        length, with a scalar or one ``noise_var`` per frame, returns one
        :class:`DecodedFrame` per frame.
        """
        symbols = np.asarray(symbols, dtype=complex)
        frames = symbols.reshape((-1,) + symbols.shape[-2:])
        n_frames = frames.shape[0]
        n_bits = 8 * (length + _CRC_BYTES)
        n_coded = 2 * (n_bits + self._code.n_tail_bits)
        puncturer = Puncturer(mcs.coding_rate)
        n_tx = puncturer.punctured_length(n_coded)
        n_symbols = int(np.ceil(n_tx / mcs.coded_bits_per_symbol))
        require(
            frames.shape[1] >= n_symbols,
            f"need {n_symbols} data symbols, got {frames.shape[1]}",
        )
        flat = frames[:, :n_symbols].reshape(n_frames, -1)

        llrs = mcs.modulation.demodulate_soft(flat, noise_var=noise_var)
        interleaver = BlockInterleaver(mcs.coded_bits_per_symbol, mcs.bits_per_subcarrier)
        deinterleaved = interleaver.deinterleave(llrs).reshape(n_frames, -1)
        depunctured = puncturer.depuncture(deinterleaved[:, :n_tx], n_coded)
        scrambled = self._code.decode(depunctured, n_bits)

        scrambler = Scrambler(self.config.scrambler_seed)
        bits = scrambler.descramble(scrambled)

        # EVM against nearest constellation point
        points = mcs.modulation.points
        hard = points[np.argmin(np.abs(flat[..., None] - points), axis=-1)]
        errors = np.mean(np.abs(flat - hard) ** 2, axis=-1)

        decoded = []
        for row, err in zip(bits, errors):
            data = bits_to_bytes(row)
            payload, crc = data[:-_CRC_BYTES], data[-_CRC_BYTES:]
            crc_ok = zlib.crc32(payload).to_bytes(_CRC_BYTES, "little") == crc
            decoded.append(DecodedFrame(
                payload=payload if crc_ok else None,
                crc_ok=crc_ok,
                mcs=mcs,
                length=length,
                evm_db=float(10 * np.log10(max(err, 1e-12))),
            ))
        return decoded if symbols.ndim == 3 else decoded[0]

    def decode(
        self, symbols: np.ndarray, noise_var=0.05
    ) -> Union[DecodedFrame, List[DecodedFrame]]:
        """Decode a full frame: SIGNAL symbol followed by data symbols.

        A ``(B, n_symbols, 48)`` stack of frames, with a scalar or one
        ``noise_var`` per frame, returns one :class:`DecodedFrame` per
        frame: all SIGNAL fields are decoded in one Viterbi call, then the
        payloads in one call per announced (MCS, length).

        A corrupted SIGNAL field can mis-announce a length longer than the
        captured frame; a real receiver just drops such a frame, so that
        case returns a failed DecodedFrame rather than raising.
        """
        symbols = np.asarray(symbols, dtype=complex)
        require(
            symbols.ndim in (2, 3) and symbols.shape[-2] >= 2, "frame too short"
        )
        frames = symbols.reshape((-1,) + symbols.shape[-2:])
        noise = np.broadcast_to(np.asarray(noise_var, dtype=float), frames.shape[:1])
        decoded: List[DecodedFrame] = [
            DecodedFrame(payload=None, crc_ok=False, mcs=None) for _ in frames
        ]
        groups: Dict[tuple, List[int]] = {}
        for i, parsed in enumerate(self.decode_signal_field(frames[:, 0])):
            if parsed is not None:
                groups.setdefault(parsed, []).append(i)
        for (mcs, length), members in groups.items():
            try:
                results = self.decode_payload(
                    frames[members, 1:], mcs, length, noise_var=noise[members]
                )
            except ValueError:
                # announced length exceeds the capture: corrupted SIGNAL field
                results = [
                    DecodedFrame(payload=None, crc_ok=False, mcs=mcs, length=length)
                    for _ in members
                ]
            for i, result in zip(members, results):
                decoded[i] = result
        return decoded if symbols.ndim == 3 else decoded[0]
