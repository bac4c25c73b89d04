"""Short-time Fourier transform.

Vectorized implementation: the signal is cut into overlapping frames with a
strided view (no copy until windowing), then transformed with a single 2-D
``rfft`` — the idiom the HPC guides recommend over per-frame Python loops.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.dsp.windows import cached_window


def frame_signal(signal: np.ndarray, frame_length: int, hop: int, center: bool = True) -> np.ndarray:
    """Cut ``signal`` into overlapping frames of ``frame_length`` every ``hop``.

    With ``center=True`` the signal is reflection-padded by ``frame_length//2``
    on both sides (librosa convention) so frame ``i`` is centered on sample
    ``i*hop``.  Returns an array of shape ``(n_frames, frame_length)``.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError(f"signal must be 1-D, got shape {signal.shape}")
    if frame_length < 1 or hop < 1:
        raise ValueError("frame_length and hop must be >= 1")
    if center:
        pad = frame_length // 2
        signal = np.pad(signal, pad, mode="reflect" if signal.size > 1 else "constant")
    if signal.size < frame_length:
        raise ValueError(f"signal too short ({signal.size} samples) for frame_length={frame_length}")
    n_frames = 1 + (signal.size - frame_length) // hop
    stride = signal.strides[0]
    frames = as_strided(
        signal,
        shape=(n_frames, frame_length),
        strides=(hop * stride, stride),
        writeable=False,
    )
    return frames


def stft(
    signal: np.ndarray,
    n_fft: int = 2048,
    hop: int = 512,
    window: str = "hann",
    center: bool = True,
) -> np.ndarray:
    """Complex STFT of shape ``(n_fft//2 + 1, n_frames)``.

    Matches the paper's feature settings by default (n_fft 2048, hop 512).
    """
    frames = frame_signal(signal, n_fft, hop, center=center)
    win = cached_window(window, n_fft)
    # Windowing copies; the rfft is applied across the frame axis in one call.
    spectra = np.fft.rfft(frames * win[None, :], axis=1)
    return spectra.T
