"""DSP substrate: STFT, mel filterbank, spectrogram pipeline, image resize.

Implements from scratch (NumPy only) the feature pipeline of §V: mel-scaled
spectrograms of 10-second clips at 22 050 Hz with an FFT window of 2048, a
hop of 512 and 128 mel bands, converted to dB and optionally resized to
square images for the CNN.
"""
