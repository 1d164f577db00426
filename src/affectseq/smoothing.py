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
boundaries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import ConfigError, DimensionError, DomainError


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
        dc = b.sum() / a.sum()
        if abs(dc - 1.0) > 1e-9:
            raise DomainError(f"DC gain must be 1, got {dc}")
        poles = np.roots(a) if self.order >= 1 else np.array([])
        if poles.size and np.max(np.abs(poles)) >= 1.0:
            raise DomainError("unstable filter: poles on or outside the unit circle")


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
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = b.size - 1
    z = np.zeros(n) if zi is None else np.array(zi, dtype=np.float64)
    if z.shape != (n,):
        raise DimensionError(f"initial state must have length {n}")
    y = np.zeros_like(x)
    for i in range(x.size):
        xi = x[i]
        yi = z[0] + b[0] * xi if n else b[0] * xi
        for j in range(n - 1):
            z[j] = z[j + 1] + b[j + 1] * xi - a[j + 1] * yi
        if n:
            z[n - 1] = b[n] * xi - a[n] * yi
        y[i] = yi
    return y


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
    """Which smoother to run: butterworth, moving_average, or none."""

    kind: str = "butterworth"
    order: int | None = 2
    cutoff: float | None = 0.05
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "butterworth":
            if self.order is None or self.cutoff is None or self.weights is not None:
                raise ConfigError("butterworth smoother takes (order, cutoff) only")
        elif self.kind == "moving_average":
            if self.weights is None or self.order is not None or self.cutoff is not None:
                raise ConfigError("moving_average smoother takes weights only")
            if any(v <= 0 for v in self.weights):
                raise ConfigError("moving-average weights must be positive")
        elif self.kind == "none":
            if self.order is not None or self.cutoff is not None or self.weights is not None:
                raise ConfigError("smoother 'none' takes no parameters")
        else:
            raise ConfigError(f"unknown smoother kind: {self.kind!r}")

    @classmethod
    def butterworth(cls, order: int = 2, cutoff: float = 0.05) -> "SmootherSpec":
        return cls(kind="butterworth", order=order, cutoff=cutoff)

    @classmethod
    def moving_average(cls, weights) -> "SmootherSpec":
        return cls(kind="moving_average", order=None, cutoff=None,
                   weights=tuple(float(v) for v in weights))

    @classmethod
    def none(cls) -> "SmootherSpec":
        return cls(kind="none", order=None, cutoff=None, weights=None)


def smooth_track(values: np.ndarray, spec: SmootherSpec, causal: bool = False) -> np.ndarray:
    """Smooth an [L] or [L, 2] track; columns are filtered independently."""
    values = np.asarray(values, dtype=np.float64)
    if spec.kind == "none":
        return values.copy()
    if values.ndim == 1:
        return _smooth_column(values, spec, causal)
    if values.ndim != 2:
        raise DimensionError("tracks must be 1-D or 2-D")
    return np.column_stack([_smooth_column(values[:, j], spec, causal)
                            for j in range(values.shape[1])])


def _smooth_column(x: np.ndarray, spec: SmootherSpec, causal: bool) -> np.ndarray:
    if spec.kind == "moving_average":
        return weighted_moving_average(x, np.asarray(spec.weights, dtype=np.float64))
    coeffs = butter_design(spec.order, spec.cutoff)
    if causal:
        # Single pass stays causal; starting at the steady state for the
        # first sample avoids the zero-state startup ramp.
        return lfilter(coeffs.b, coeffs.a, x, steady_state(coeffs.b, coeffs.a) * x[0])
    return filtfilt(coeffs, x)
