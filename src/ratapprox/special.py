"""Benchmark oracle: complex-argument Bessel J0 and its reciprocal.

The target function of the shipped benchmark is H(s) = 1/J0(s) on the
rectangle [0, 10] x [-1, 1] of the complex plane.  Everything downstream
treats the oracle as an opaque vectorised callable (an array of points to
values of the same shape), so any other function can be fitted the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import EvaluationDomainError, PoleError

# First six real zeros of J0, 15 significant digits.
BESSEL_J0_ZEROS = (
    2.40482555769577,
    5.52007811028631,
    8.65372791291101,
    11.7915344390142,
    14.9309177084877,
    18.0710639679109,
)

#: Largest |s| accepted by :func:`bessel_j0`.  The ascending series converges
#: far beyond this, but cancellation erodes accuracy: against mpmath the
#: relative error on the real axis is 8e-14 at s = 15, 5e-12 at s = 20,
#: 1e-9 at s = 25 and 0.25 at s = 45.  The radius keeps all six tabulated
#: zeros (up to 18.07) in range.
SERIES_RADIUS = 20.0

#: |J0(s)| below this counts as "sampling exactly at a pole of 1/J0".  The
#: threshold admits zeros specified to 15 digits (where |J0| lands near
#: 2e-14) while sitting ten orders below |J0| at any benchmark grid point.
POLE_THRESHOLD = 1e-13

_MAX_TERMS = 100
_TERM_FLOOR = 1e-18

#: Points whose |s| lies within this relative distance of the batch's
#: largest |s| decide when :func:`_series` stops.  About 1e5 times the
#: rounding error of the computed term magnitudes (k u of long double, near
#: 1e-17), so no point outside this band can still be converging.
_SLOWEST_BAND = 1e-12


def _series(s: np.ndarray, size: np.ndarray) -> np.ndarray:
    # Ascending series sum_k (-1)^k (s/2)^{2k} / (k!)^2 with the term
    # recurrence t_{k+1} = -t_k (s/2)^2 / (k+1)^2, for the 1-D finite
    # points ``s`` of magnitudes ``size``.  Summation runs in extended
    # precision: near the larger zeros of J0 the leading terms reach ~1e6,
    # and plain double summation would leave ~1e-10 residue where the true
    # value vanishes.
    #
    # The series stops at the first k where every point has
    # |t_k| < _TERM_FLOOR max_{j<=k} |t_j|.  That ratio,
    # min_{j<=k} |q|^{k-j} (j!)^2 / (k!)^2, grows with |q| = |s|^2 / 4: once
    # the points of the largest |s| pass, all pass.  So only those are
    # tested, and the loop stops at the term a test of every point would.
    q = -(s * s) / 4
    term = np.ones_like(q)
    total = np.ones_like(q)
    slowest = np.flatnonzero(size >= (1 - _SLOWEST_BAND) * size.max(initial=0))
    max_term = np.ones(slowest.size, dtype=np.longdouble)
    for k in range(1, _MAX_TERMS + 1):
        np.multiply(term, q, out=term)
        np.divide(term, k * k, out=term)
        total += term
        mag = np.abs(term[slowest])
        np.maximum(max_term, mag, out=max_term)
        if (mag < _TERM_FLOOR * max_term).all():
            break
    return total


def bessel_j0(s):
    """Evaluate J0(s) for complex scalar or array ``s``.

    Real input yields output with imaginary part exactly zero, and the
    evaluation commutes with complex conjugation bit-for-bit (every series
    operation is componentwise symmetric).  A batch runs as many series
    terms as its largest |s| needs.

    Raises
    ------
    EvaluationDomainError
        If any ``s`` is not finite or any |s| exceeds ``SERIES_RADIUS``.
    """
    arr = np.asarray(s, dtype=np.clongdouble)
    flat = arr.ravel()
    size = np.abs(flat)
    if not np.all(size <= SERIES_RADIUS):  # NaN compares False
        points = np.asarray(s, dtype=complex).ravel()
        nonfinite = ~np.isfinite(points)
        if np.any(nonfinite):
            raise EvaluationDomainError(f"s = {points[np.argmax(nonfinite)]} is not finite")
        worst = points[np.argmax(np.abs(points))]
        raise EvaluationDomainError(
            f"|s| = {abs(worst):.3g} exceeds the series validity radius "
            f"{SERIES_RADIUS:g} (at s = {worst})"
        )
    out = _series(flat, size).astype(np.complex128)
    if np.isscalar(s) or np.ndim(s) == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def h_of_s(s):
    """Evaluate H(s) = 1/J0(s); the default benchmark oracle.

    Raises
    ------
    PoleError
        If |J0(s)| < ``POLE_THRESHOLD`` at any requested point, i.e. the
        caller is sampling exactly at a pole of H.
    """
    j = bessel_j0(s)
    mag = np.abs(j)
    if np.ndim(mag) == 0:
        if mag < POLE_THRESHOLD:
            raise PoleError(f"1/J0 has a pole at s = {complex(s)}", point=complex(s))
        return 1.0 / j
    if np.any(mag < POLE_THRESHOLD):
        flat = np.asarray(s, dtype=complex).ravel()
        bad = flat[np.argmin(np.abs(np.ravel(j)))]
        raise PoleError(f"1/J0 has a pole at s = {bad}", point=complex(bad))
    return 1.0 / j
