"""Rate-1/2 convolutional code with Viterbi decoding.

The industry-standard K=7 code with generators (133, 171) octal used by
802.11a/g/n.  The Viterbi decoder runs a batch of equal-length frames
through one add-compare-select pass, vectorized over frames and the 64
trellis states, and supports both hard (Hamming) and soft (LLR correlation)
branch metrics, plus depunctured input where erased positions carry zero
metric.
"""

from __future__ import annotations

import numpy as np

from repro.constants import CONV_G0, CONV_G1, CONV_K
from repro.utils.validation import require


def _parity(x: np.ndarray) -> np.ndarray:
    """Bitwise parity of each element of an integer array."""
    x = x.copy()
    result = np.zeros_like(x)
    while np.any(x):
        result ^= x & 1
        x >>= 1
    return result


class ConvolutionalCode:
    """K=7 (133, 171) rate-1/2 convolutional encoder / Viterbi decoder.

    The encoder is zero-terminated: ``encode`` appends K-1 tail zeros so the
    trellis ends in state 0, which the decoder exploits for traceback.
    Constraint lengths 4..7 are supported (one decision word per step).
    """

    #: trellis steps whose branch metrics are computed in one product
    BLOCK_STEPS = 256

    def __init__(self, constraint_length: int = CONV_K,
                 g0: int = CONV_G0, g1: int = CONV_G1):
        require(4 <= constraint_length <= 7, "constraint length must be 4..7")
        self.constraint_length = constraint_length
        self.n_states = 1 << (constraint_length - 1)
        self.g0 = g0
        self.g1 = g1
        self._build_trellis()

    def _build_trellis(self) -> None:
        k = self.constraint_length
        states = np.arange(self.n_states)
        # next state and output bits for input 0 and 1
        self.next_state = np.empty((self.n_states, 2), dtype=np.int64)
        self.output_bits = np.empty((self.n_states, 2, 2), dtype=np.uint8)
        for bit in (0, 1):
            # shift register: [input, state bits]; register = bit<<(K-1) | state
            register = (bit << (k - 1)) | states
            self.next_state[:, bit] = register >> 1
            self.output_bits[:, bit, 0] = _parity(register & self.g0)
            self.output_bits[:, bit, 1] = _parity(register & self.g1)
        # butterfly: state ns is entered from predecessors 2*(ns & (S/2-1)) + j,
        # j = 0, 1, both with input bit ns >> (K-2)
        half = self.n_states // 2
        for j in (0, 1):
            pred = 2 * (states & (half - 1)) + j
            require(
                bool(np.all(self.next_state[pred, states >> (k - 2)] == states)),
                "malformed trellis",
            )
        # expected +-1 symbol of each coded bit on the branch into state ns
        # from predecessor j, as [j, coded bit, ns]
        j, ns = np.meshgrid([0, 1], states, indexing="ij")
        branch_bits = self.output_bits[2 * (ns & (half - 1)) + j, ns >> (k - 2)]
        self._branch_symbols = (1.0 - 2.0 * branch_bits).transpose(0, 2, 1)
        # generator taps, current input first, for the encoder's convolution
        shifts = np.arange(k - 1, -1, -1)
        self._taps = [((g >> shifts) & 1).astype(np.uint8) for g in (self.g0, self.g1)]

    # -- encoding ----------------------------------------------------------

    @property
    def n_tail_bits(self) -> int:
        """Number of zero tail bits appended by ``encode``."""
        return self.constraint_length - 1

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode a bit array, appending K-1 tail zeros; returns coded bits.

        Output length is ``2 * (len(bits) + K - 1)``; the two coded bits per
        input bit are emitted g0-first, matching 802.11.
        """
        bits = np.asarray(bits, dtype=np.uint8).ravel()
        padded = np.concatenate([bits, np.zeros(self.n_tail_bits, dtype=np.uint8)])
        out = np.empty((padded.size, 2), dtype=np.uint8)
        for i, taps in enumerate(self._taps):
            out[:, i] = np.convolve(padded, taps)[: padded.size] & 1
        return out.ravel()

    # -- decoding ----------------------------------------------------------

    def decode(self, llrs: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Viterbi-decode soft input back to ``n_info_bits`` information bits.

        Args:
            llrs: Soft values, one per coded bit, where positive favours
                bit 0 and negative favours bit 1.  Hard decisions can be fed
                as ``1 - 2*bit``.  Erased (punctured) positions must be 0.
                Shape ``(n,)`` for one frame or ``(B, n)`` for B frames of
                the same length, decoded in one pass.
            n_info_bits: Number of information bits to return (tail bits from
                the zero-terminated encoder are stripped).

        Returns:
            The maximum-likelihood information bits, ``(n_info_bits,)`` or
            ``(B, n_info_bits)``.  On equal path metrics predecessor 0 wins.
        """
        llrs = np.asarray(llrs, dtype=float)
        require(llrs.ndim in (1, 2), "llrs must be (n,) or (B, n)")
        frames = np.atleast_2d(llrs)
        n_frames, n_coded = frames.shape
        require(n_coded % 2 == 0, "coded stream must contain bit pairs")
        n_steps = n_coded // 2
        require(
            n_steps >= n_info_bits,
            f"coded stream ({n_steps} steps) shorter than {n_info_bits} info bits",
        )
        pairs = frames.reshape(n_frames, n_steps, 2)
        half = self.n_states // 2

        metrics = np.full((n_frames, self.n_states), -1e18)
        metrics[:, 0] = 0.0
        # metrics[b, 2k + j] as [j, b, ., k]: predecessor j of states k, k + S/2
        pred = metrics.reshape(n_frames, half, 2).transpose(2, 0, 1)[:, :, None, :]
        survivors = metrics.reshape(n_frames, 2, half)
        decisions = np.empty((n_steps, n_frames, 2, half), dtype=bool)
        for t0 in range(0, n_steps, self.BLOCK_STEPS):
            block = pairs[:, t0 : t0 + self.BLOCK_STEPS].transpose(1, 0, 2)[:, None]
            # branch metrics, then path-metric candidates in place, as
            # [t, j, b, input bit, k]
            cand = np.matmul(block, self._branch_symbols)
            cand = cand.reshape(-1, 2, n_frames, 2, half)
            for step, cand0, cand1 in zip(cand, cand[:, 0], cand[:, 1]):
                np.add(pred, step, out=step)
                np.maximum(cand0, cand1, out=survivors)
            np.greater(cand[:, 1], cand[:, 0], out=decisions[t0 : t0 + self.BLOCK_STEPS])

        # traceback from state 0 (zero-terminated); bit ns of a step's word
        # is state ns's decision, and every state's input bit is ns >> (K-2)
        words = np.packbits(
            decisions.reshape(n_steps, n_frames, self.n_states), axis=-1, bitorder="little"
        ).view(f"<u{self.n_states // 8}")[..., 0]
        shift = self.constraint_length - 2
        out = np.empty((n_frames, n_info_bits), dtype=np.uint8)
        for b, row in enumerate(words.T.tolist()):
            state = 0
            bits = bytearray(n_steps)
            for t in range(n_steps - 1, -1, -1):
                bits[t] = state >> shift
                state = ((state & (half - 1)) << 1) | ((row[t] >> state) & 1)
            out[b] = np.frombuffer(bits, dtype=np.uint8, count=n_info_bits)
        return out[0] if llrs.ndim == 1 else out

    def decode_hard(self, coded_bits: np.ndarray, n_info_bits: int) -> np.ndarray:
        """Viterbi decode from hard bit decisions."""
        coded_bits = np.asarray(coded_bits, dtype=float).ravel()
        return self.decode(1.0 - 2.0 * coded_bits, n_info_bits)
