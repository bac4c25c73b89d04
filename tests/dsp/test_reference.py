"""Cross-validation of the DSP stack against scipy reference implementations."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.dsp.stft import stft
from repro.dsp.windows import hann


class TestStftAgainstScipy:
    def test_magnitudes_match_scipy(self):
        """Our STFT equals scipy's ShortTimeFFT up to its scaling, frame for
        frame (same periodic Hann, same hop, same centering)."""
        rng = np.random.default_rng(0)
        sig = rng.normal(size=8192)
        n_fft, hop = 512, 128

        ours = stft(sig, n_fft=n_fft, hop=hop, center=True)

        win = hann(n_fft)
        sft = sp_signal.ShortTimeFFT(win, hop=hop, fs=1.0, fft_mode="onesided")
        theirs = sft.stft(sig)

        # scipy emits one extra leading frame (its frame grid starts half a
        # window before t=0); interior frames then agree exactly — our frame
        # k is scipy's frame k+1.  Edge frames differ by padding convention
        # (scipy zero-pads, we reflect), so compare away from both ends.
        edge = n_fft // hop + 1
        n = min(ours.shape[1], theirs.shape[1] - 1) - 2 * edge
        np.testing.assert_allclose(
            np.abs(ours[:, edge : edge + n]),
            np.abs(theirs[:, edge + 1 : edge + 1 + n]),
            rtol=1e-9,
            atol=1e-9,
        )

    def test_window_matches_scipy_periodic_hann(self):
        np.testing.assert_allclose(
            hann(256), sp_signal.get_window("hann", 256, fftbins=True), atol=1e-12
        )

    def test_tone_frequency_readout(self):
        """Peak-bin frequency agrees with scipy's rfftfreq grid."""
        sr, f0 = 22050, 1000.0
        t = np.arange(2 * sr) / sr
        sig = np.sin(2 * np.pi * f0 * t)
        spec = np.abs(stft(sig, n_fft=2048, hop=512))
        freqs = np.fft.rfftfreq(2048, 1 / sr)
        peak = freqs[spec.mean(axis=1).argmax()]
        assert peak == pytest.approx(f0, abs=sr / 2048)

