import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


@pytest.fixture
def fft_calls(monkeypatch):
    """The names of the numpy transforms called while the test runs, in
    call order: the 1-D and n-d complex and real ones, forward and inverse."""
    calls = []
    for name in FFT_NAMES:
        original = getattr(np.fft, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls
