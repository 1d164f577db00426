"""Prediction-track post-processing: Butterworth low-pass design, zero-phase
filtering, and a weighted moving-average alternative.

Design path for ``butter_design(n, Wn)`` (Wn is a fraction of Nyquist; at
1 Hz sampling, Nyquist is 0.5 Hz):

1. analog prototype poles  s_k = exp(i*pi*(2k + n - 1) / (2n)),  k = 1..n
2. scale by the prewarped cutoff  w = tan(pi * Wn / 2)
3. bilinear transform  z = (1 + s) / (1 - s)
4. numerator (1 + z^-1)^n, scaled for unity DC gain

Zero-phase application pads both ends with an odd reflection of length
3*(order+1), runs the direct-form difference equation forward and
backward, and strips the padding. Each pass starts from the steady-state
delay line for its first sample (the usual trick to suppress startup
transients); residual boundary effects decay at the pole radius within
the pad. Tracks are always filtered per movie, never across movie
boundaries. ``lfilter`` runs the recurrence over Python floats: the same
IEEE operations in the same order as over numpy scalars, so the same bits,
at about a third of the cost.

``smooth_track`` runs a :class:`SmootherSpec` (a kind in :data:`SMOOTHERS`)
over each column of a track. A design that rounds to a degenerate filter
(at very low cutoffs) is refused, naming its order and cutoff.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigError, DimensionError, DomainError


SMOOTHERS = ("butterworth", "moving_average", "none")


class ShortTrackWarning(UserWarning):
    """A track too short to pad was smoothed with a moving average instead."""


@dataclass(frozen=True)
class IIRCoefficients:
    """Digital filter b/a coefficients, normalized so a[0] = 1."""

    b: np.ndarray
    a: np.ndarray
    order: int
    cutoff: float

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)
        if b.shape != (self.order + 1,) or a.shape != (self.order + 1,):
            raise DimensionError(f"coefficient arrays must have length order+1={self.order + 1}")
        if abs(a[0] - 1.0) > 1e-12:
            raise DomainError("denominator must be normalized to a[0] = 1")
        where = f"filter of order {self.order}, cutoff {self.cutoff:g}"
        with np.errstate(divide="ignore", invalid="ignore"):
            dc = b.sum() / a.sum()
        if not abs(dc - 1.0) <= 1e-9:  # a 0/0 gain is NaN and fails too
            raise DomainError(f"{where}: DC gain must be 1, got {dc}")
        if np.any(np.abs(np.roots(a)) >= 1.0):
            raise DomainError(f"{where} is unstable: poles on or outside the unit circle")


def butter_design(order: int, cutoff: float) -> IIRCoefficients:
    """Digital low-pass Butterworth via bilinear transform with prewarping."""
    if order < 1:
        raise DomainError("filter order must be >= 1")
    if not 0.0 < cutoff < 1.0:
        raise DomainError(f"normalized cutoff must lie in (0, 1), got {cutoff}")
    w = np.tan(np.pi * cutoff / 2.0)
    k = np.arange(1, order + 1)
    analog_poles = w * np.exp(1j * np.pi * (2 * k + order - 1) / (2 * order))
    digital_poles = (1.0 + analog_poles) / (1.0 - analog_poles)
    a = np.poly(digital_poles).real
    binom = np.array([comb(order, i) for i in range(order + 1)], dtype=np.float64)
    b = binom * (a.sum() / 2.0 ** order)
    return IIRCoefficients(b=b, a=a, order=order, cutoff=cutoff)


def lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray,
            zi: np.ndarray | None = None) -> np.ndarray:
    """Direct-form (transposed) difference equation.

    ``zi`` is the initial delay-line state (length = order); default zero.
    """
    b = np.asarray(b, dtype=np.float64).tolist()
    a = np.asarray(a, dtype=np.float64).tolist()
    n = len(b) - 1
    z = np.zeros(n) if zi is None else np.array(zi, dtype=np.float64)
    if z.shape != (n,):
        raise DimensionError(f"initial state must have length {n}")
    z = z.tolist()
    y = []
    append = y.append
    b0, bn, an = b[0], b[n], a[n]
    taps = [(j, b[j + 1], a[j + 1]) for j in range(n - 1)]
    for xi in np.asarray(x, dtype=np.float64).tolist():
        if n:
            yi = z[0] + b0 * xi
            for j, bj, aj in taps:
                z[j] = z[j + 1] + bj * xi - aj * yi
            z[n - 1] = bn * xi - an * yi
        else:
            yi = b0 * xi
        append(yi)
    return np.array(y, dtype=np.float64)


def steady_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Delay-line state reached under a sustained unit input.

    Solving (I - A) z = B for the transposed-direct-form state matrices
    gives the state that makes the filter start on its steady-state step
    response; scaling by the first sample removes startup transients.
    """
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    n = b.size - 1
    if n == 0:
        return np.zeros(0)
    A = np.zeros((n, n))
    A[:, 0] = -a[1:]
    A[:-1, 1:] = np.eye(n - 1)
    B = b[1:] - b[0] * a[1:]
    return np.linalg.solve(np.eye(n) - A, B)


def _odd_pad(x: np.ndarray, pad: int) -> np.ndarray:
    head = 2.0 * x[0] - x[pad:0:-1]
    tail = 2.0 * x[-1] - x[-2:-pad - 2:-1]
    return np.concatenate([head, x, tail])


def filtfilt(coeffs: IIRCoefficients, x: np.ndarray) -> np.ndarray:
    """Zero-phase filtering (forward, reverse, forward, reverse, unpad).

    Each pass starts from the steady-state delay line scaled by its first
    input sample, so constant tracks pass through untouched and boundary
    transients scale with local signal variation, not signal magnitude.
    Tracks shorter than the required padding fall back to a uniform
    moving average of width min(N, 5), rounded down to odd, and emit a
    :class:`ShortTrackWarning`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionError("filtfilt expects a 1-D track")
    pad = 3 * (coeffs.order + 1)
    if x.size <= pad:
        width = min(x.size, 5)
        if width % 2 == 0:
            width -= 1
        warnings.warn(
            f"track of length {x.size} is too short for order {coeffs.order} "
            f"(needs > {pad}); using a uniform moving average of width {width}",
            ShortTrackWarning,
            stacklevel=2,
        )
        return weighted_moving_average(x, np.ones(max(width, 1)))
    zi = steady_state(coeffs.b, coeffs.a)
    padded = _odd_pad(x, pad)
    y = lfilter(coeffs.b, coeffs.a, padded, zi * padded[0])
    rev = y[::-1]
    y = lfilter(coeffs.b, coeffs.a, rev, zi * rev[0])[::-1]
    return y[pad:-pad]


def weighted_moving_average(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Centered weighted moving average with truncated, renormalized edges."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if x.ndim != 1 or w.ndim != 1:
        raise DimensionError("weighted_moving_average expects 1-D inputs")
    if w.size % 2 == 0:
        raise DomainError("window length must be odd")
    if w.size > x.size:
        raise DomainError(f"window of length {w.size} exceeds track of length {x.size}")
    if np.any(w <= 0):
        raise DomainError("weights must be positive")
    w = w / w.sum()
    half = w.size // 2
    out = np.empty_like(x)
    for i in range(x.size):
        lo = max(0, i - half)
        hi = min(x.size, i + half + 1)
        piece = w[lo - (i - half): hi - (i - half)]
        out[i] = (x[lo:hi] * piece).sum() / piece.sum()
    return out


@dataclass(frozen=True)
class SmootherSpec:
    """Which smoother to run. Every kind carries every field and reads only
    its own: butterworth ``order`` and ``cutoff``, moving_average ``weights``.
    The config key table holds these defaults and bounds the values."""

    kind: str = "butterworth"
    order: int = 2
    cutoff: float = 0.05
    weights: tuple[float, ...] = (1.0,) * 5

    def __post_init__(self):
        if self.kind not in SMOOTHERS:
            raise ConfigError(f"unknown smoother kind: {self.kind!r}")


def smooth_track(values: np.ndarray, spec: SmootherSpec, causal: bool = False) -> np.ndarray:
    """Smooth an [L] or [L, 2] track; columns are filtered independently.

    ``causal`` runs Butterworth as one forward pass; moving_average refuses it.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim not in (1, 2):
        raise DimensionError("tracks must be 1-D or 2-D")
    if spec.kind == "none":
        return values.copy()
    if spec.kind == "moving_average":
        if causal:
            raise ConfigError("moving_average is centred and has no causal form", key="causal")
        column = lambda x: weighted_moving_average(x, spec.weights)
    else:
        coeffs = butter_design(spec.order, spec.cutoff)
        if causal:
            # Single pass stays causal; starting at the steady state for the
            # first sample avoids the zero-state startup ramp.
            zi = steady_state(coeffs.b, coeffs.a)
            column = lambda x: lfilter(coeffs.b, coeffs.a, x, zi * x[0])
        else:
            column = lambda x: filtfilt(coeffs, x)
    return column(values) if values.ndim == 1 else np.column_stack([column(x) for x in values.T])
