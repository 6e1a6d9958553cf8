"""Benchmark oracle: complex-argument Bessel J0 and its reciprocal.

The target function of the shipped benchmark is H(s) = 1/J0(s) on the
rectangle [0, 10] x [-1, 1] of the complex plane.  Everything downstream
treats the oracle as an opaque callable ``s -> complex``, so any other
function can be fitted the same way.
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


def _series(s: np.ndarray) -> np.ndarray:
    # Ascending series sum_k (-1)^k (s/2)^{2k} / (k!)^2 with the term
    # recurrence t_{k+1} = -t_k (s/2)^2 / (k+1)^2.  Summation runs in
    # extended precision: near the larger zeros of J0 the leading terms
    # reach ~1e6, and plain double summation would leave ~1e-10 residue
    # where the true value vanishes.
    q = -(s * s) / 4
    term = np.ones_like(q)
    total = np.ones_like(q)
    max_term = np.ones(s.shape, dtype=np.longdouble)
    for k in range(1, _MAX_TERMS + 1):
        term = term * q / (k * k)
        total += term
        mag = np.abs(term)
        np.maximum(max_term, mag, out=max_term)
        if np.all(mag < _TERM_FLOOR * max_term):
            break
    return total


def bessel_j0(s):
    """Evaluate J0(s) for complex scalar or array ``s``.

    Real input yields output with imaginary part exactly zero, and the
    evaluation commutes with complex conjugation bit-for-bit (every series
    operation is componentwise symmetric).

    Raises
    ------
    EvaluationDomainError
        If any |s| exceeds ``SERIES_RADIUS``.
    """
    arr = np.asarray(s, dtype=np.clongdouble)
    if arr.size and np.max(np.abs(arr)) > SERIES_RADIUS:
        bad = np.asarray(s, dtype=complex).ravel()
        worst = bad[np.argmax(np.abs(bad))]
        raise EvaluationDomainError(
            f"|s| = {abs(worst):.3g} exceeds the series validity radius "
            f"{SERIES_RADIUS:g} (at s = {worst})"
        )
    out = _series(arr).astype(np.complex128)
    if np.isscalar(s) or np.ndim(s) == 0:
        return complex(out)
    return out


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
