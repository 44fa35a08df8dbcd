"""Monitor-mode packet sniffer: find and decode every packet in a capture.

Scans a long sample stream for STS preambles, decodes each detected frame
(preamble-based CFO lock + channel estimate, then the PLCP chain), and
moves on — the software equivalent of a Wi-Fi card in monitor mode.  Used
by tests and by anyone inspecting what a simulated node actually hears.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.constants import FFT_SIZE, SYMBOL_LENGTH
from repro.phy.cfo import apply_cfo, combine_cfo, estimate_cfo_coarse, estimate_cfo_fine
from repro.phy.channel_est import average_channel_estimates, estimate_channel_lts
from repro.phy.detection import detect_packet, ideal_lts_offset
from repro.phy.frame import DecodedFrame, FrameConfig, PhyFrameDecoder, PhyFrameEncoder
from repro.phy.ofdm import OfdmDemodulator
from repro.phy.preamble import lts_symbol_offsets, sync_header_length


@dataclass
class SniffedPacket:
    """One packet pulled out of a capture.

    Attributes:
        sample_offset: Where its preamble starts in the capture.
        cfo_hz: The CFO the sniffer corrected.
        decoded: The PLCP decode result (``mcs is None`` if the SIGNAL
            field did not parse).
    """

    sample_offset: int
    cfo_hz: float
    decoded: DecodedFrame


class PacketSniffer:
    """Scan a capture and decode every detectable frame."""

    def __init__(self, sample_rate: float, threshold: float = 0.7):
        self.sample_rate = float(sample_rate)
        self.threshold = float(threshold)
        config = FrameConfig(sample_rate=sample_rate)
        self._encoder = PhyFrameEncoder(config)
        self._decoder = PhyFrameDecoder(config)
        self._demodulator = OfdmDemodulator()

    def _decode_at(self, capture: np.ndarray, header_start: int) -> Optional[SniffedPacket]:
        fs = self.sample_rate
        rx = capture[header_start:]
        if rx.size < sync_header_length() + 2 * SYMBOL_LENGTH:
            return None
        coarse = estimate_cfo_coarse(rx[:160], fs)
        lts_off = int(lts_symbol_offsets()[0])
        fine = estimate_cfo_fine(rx[lts_off : lts_off + 2 * FFT_SIZE], fs)
        cfo = combine_cfo(coarse, fine, fs)
        rx = apply_cfo(rx, -cfo, fs)

        channel = average_channel_estimates(
            [
                estimate_channel_lts(
                    rx[lts_off + k * FFT_SIZE : lts_off + (k + 1) * FFT_SIZE]
                )
                for k in range(2)
            ]
        )

        data_start = sync_header_length()
        # parse the SIGNAL symbol first to learn the frame length
        eq = self._demodulator.demodulate_symbol(
            rx[data_start : data_start + SYMBOL_LENGTH], channel, symbol_index=0
        )
        parsed = self._decoder.decode_signal_field(eq.data)
        if parsed is None:
            return SniffedPacket(
                sample_offset=header_start,
                cfo_hz=cfo,
                decoded=DecodedFrame(payload=None, crc_ok=False, mcs=None),
            )
        mcs, length = parsed
        n_data = self._encoder.n_payload_symbols(length, mcs)
        needed = data_start + (1 + n_data) * SYMBOL_LENGTH
        if rx.size < needed:
            return SniffedPacket(
                sample_offset=header_start,
                cfo_hz=cfo,
                decoded=DecodedFrame(payload=None, crc_ok=False, mcs=mcs, length=length),
            )
        samples = rx[data_start + SYMBOL_LENGTH : needed]
        eq = self._demodulator.demodulate_symbol(
            samples.reshape(n_data, SYMBOL_LENGTH), channel, symbol_index=1
        )
        noise_var = float(np.mean(1.0 / np.maximum(eq.pilot_snr, 1e-6)))
        decoded = self._decoder.decode_payload(eq.data, mcs, length, noise_var=noise_var)
        return SniffedPacket(
            sample_offset=header_start, cfo_hz=cfo, decoded=decoded
        )

    def sniff(self, capture: np.ndarray, max_packets: int = 100) -> List[SniffedPacket]:
        """Find and decode up to ``max_packets`` frames in the capture."""
        capture = np.asarray(capture, dtype=complex).ravel()
        packets: List[SniffedPacket] = []
        cursor = 0
        while len(packets) < max_packets:
            detection = detect_packet(
                capture, threshold=self.threshold, search_start=cursor
            )
            if detection is None:
                break
            header_start = detection.lts_start - ideal_lts_offset(0)
            if header_start < cursor:
                cursor = detection.lts_start + FFT_SIZE
                continue
            packet = self._decode_at(capture, header_start)
            if packet is None:
                break
            packets.append(packet)
            if packet.decoded.mcs is not None:
                n_data = self._encoder.n_payload_symbols(
                    packet.decoded.length, packet.decoded.mcs
                )
                cursor = header_start + sync_header_length() + (1 + n_data) * SYMBOL_LENGTH
            else:
                cursor = header_start + sync_header_length()
        return packets
