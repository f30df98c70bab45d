"""Weight initialisation schemes (Kaiming/Xavier) with an explicit RNG.

Every initialiser takes a ``numpy.random.Generator`` so that experiments are
reproducible end to end — no global RNG state anywhere in the library.
"""

from __future__ import annotations

import numpy as np


def _fan_in_out(shape) -> tuple:
    if len(shape) == 2:  # linear: (out, in)
        fan_in, fan_out = shape[1], shape[0]
    elif len(shape) == 4:  # conv: (out, in/groups, kh, kw)
        receptive = shape[2] * shape[3]
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    else:
        raise ValueError(f"unsupported weight shape {shape}")
    return fan_in, fan_out


def kaiming_normal(rng: np.random.Generator, shape, gain: float = np.sqrt(2.0)
                   ) -> np.ndarray:
    """He-normal init, appropriate after ReLU layers."""
    fan_in, _ = _fan_in_out(shape)
    std = gain / np.sqrt(fan_in)
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def kaiming_uniform(rng: np.random.Generator, shape, gain: float = np.sqrt(2.0)
                    ) -> np.ndarray:
    fan_in, _ = _fan_in_out(shape)
    bound = gain * np.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def zeros(shape) -> np.ndarray:
    """Zero init — used for offset-predicting convs so a DCN starts as a
    regular convolution (standard practice from Dai et al., kept by DEFCON)."""
    return np.zeros(shape, dtype=np.float32)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
