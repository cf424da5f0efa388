"""Synchro-waveform event cause classification laboratory."""

from . import baselines, expharness, featpipe, metrics, store, synthgrid, tinycnn

__version__ = "0.1.0"

__all__ = [
    "baselines",
    "expharness",
    "featpipe",
    "metrics",
    "store",
    "synthgrid",
    "tinycnn",
    "__version__",
]
