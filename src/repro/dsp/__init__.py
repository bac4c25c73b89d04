"""DSP substrate: STFT, mel filterbank, spectrogram pipeline, image resize.

Implements from scratch (NumPy only) the feature pipeline of §V: mel-scaled
spectrograms of 10-second clips at 22 050 Hz with an FFT window of 2048, a
hop of 512 and 128 mel bands, converted to dB and optionally resized to
square images for the CNN.
"""

from repro.dsp.windows import hann, hamming, rectangular, get_window
from repro.dsp.stft import stft, frame_signal
from repro.dsp.mel import hz_to_mel, mel_to_hz, mel_filterbank
from repro.dsp.spectrogram import MelSpectrogram, SpectrogramConfig, power_to_db
from repro.dsp.image import resize_bilinear, normalize_image, spectrogram_to_image
from repro.dsp.features import mel_statistics, svm_feature_vector

__all__ = [
    "hann",
    "hamming",
    "rectangular",
    "get_window",
    "stft",
    "frame_signal",
    "hz_to_mel",
    "mel_to_hz",
    "mel_filterbank",
    "MelSpectrogram",
    "SpectrogramConfig",
    "power_to_db",
    "resize_bilinear",
    "normalize_image",
    "spectrogram_to_image",
    "mel_statistics",
    "svm_feature_vector",
]
