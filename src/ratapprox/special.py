"""Benchmark oracle: complex-argument Bessel J0 and its reciprocal.

The target function of the shipped benchmark is H(s) = 1/J0(s) on the
rectangle [0, 10] x [-1, 1] of the complex plane.  Everything downstream
treats the oracle as an opaque vectorised callable (an array of points to
values of the same shape), so any other function can be fitted the same way.
An oracle may also offer a grid method as its ``on_grid`` attribute, which
``analysis.oracle_grid`` uses for dense tensor grids: ``h_of_s.on_grid`` is
:func:`h_on_grid`.
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


def _series(q: np.ndarray, size: np.ndarray, rows: int) -> np.ndarray:
    # Rows k < rows of the ascending series sum_m q^m k! / (m! (m + k)!),
    # with the term recurrence t_m = t_{m-1} q / (m (m + k)), for the 1-D
    # long-double q = -z^2/4 (J_k(z) = (z/2)^k / k! times row k) or
    # q = z^2/4 (I_k(z) alike) of points z of magnitudes ``size``.  Row 0
    # of q = -s^2/4 is J0(s).  Summation runs in extended precision: near
    # the larger zeros of J0 the leading terms reach ~1e6, and plain double
    # summation would leave ~1e-10 residue where the true value vanishes.
    #
    # The series stops at the first m where every point has
    # |t_m| < _TERM_FLOOR max_{j<=m} |t_j| in every row.  That ratio,
    # min_{j<=m} |q|^{m-j} j! (j+k)! / (m! (m+k)!), grows with |q| = |z|^2 / 4
    # and is largest in row 0: once the points of the largest |z| pass in
    # row 0, all pass.  So only those are tested, and the loop stops at the
    # term a test of every point would.
    divisor = np.arange(rows, dtype=np.longdouble)[:, None]
    term = np.ones((rows, q.size), dtype=q.dtype)
    total = np.ones_like(term)
    slowest = np.flatnonzero(size >= (1 - _SLOWEST_BAND) * size.max(initial=0))
    max_term = np.ones(slowest.size, dtype=np.longdouble)
    for m in range(1, _MAX_TERMS + 1):
        np.multiply(term, q, out=term)
        np.divide(term, m * (m + divisor), out=term)
        total += term
        mag = np.abs(term[0, slowest])
        np.maximum(max_term, mag, out=max_term)
        if (mag < _TERM_FLOOR * max_term).all():
            break
    return total


def _require_in_disc(points: np.ndarray, size: np.ndarray) -> None:
    # EvaluationDomainError unless every point is finite with |s| <= SERIES_RADIUS
    if not np.all(size <= SERIES_RADIUS):  # NaN compares False
        points = points.astype(complex)
        nonfinite = ~np.isfinite(points)
        if np.any(nonfinite):
            raise EvaluationDomainError(f"s = {points[np.argmax(nonfinite)]} is not finite")
        worst = points[np.argmax(np.abs(points))]
        raise EvaluationDomainError(
            f"|s| = {abs(worst):.3g} exceeds the series validity radius "
            f"{SERIES_RADIUS:g} (at s = {worst})"
        )


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
    _require_in_disc(flat, size)
    out = _series(-(flat * flat) / 4, size, 1)[0].astype(np.complex128)
    if np.isscalar(s) or np.ndim(s) == 0:
        return complex(out[0])
    return out.reshape(arr.shape)


def _neumann_terms(x_max: float, y_max: float) -> int:
    # Terms K of the addition theorem for |x| <= x_max and |y| <= y_max.  As
    # |J_k(x)| <= (|x|/2)^k / k! for real x (DLMF 10.14.4) and, from the
    # series, I_k(y) <= (|y|/2)^k I_0(y) / k!, term k is at most
    # 2 I_0(y_max) t_k with t_k = (x_max y_max / 4)^k / (k!)^2.  The sum stops
    # at the first k with t_k < _TERM_FLOOR max_{j<k} t_j, the rule of _series.
    q = x_max * y_max / 4
    t = peak = 1.0
    for k in range(1, _MAX_TERMS + 1):
        t *= q / (k * k)
        if t < _TERM_FLOOR * peak:
            return k
        peak = max(peak, t)
    return _MAX_TERMS + 1


def h_on_grid(xs, ys) -> np.ndarray:
    """H(s) = 1/J0(s) at s = x + iy for x in ``xs`` and y in ``ys``, of shape (len(ys), len(xs)).

    The grid method of :func:`h_of_s` (its ``on_grid`` attribute).  By
    Neumann's addition theorem (DLMF 10.23.2, with J_k(iy) = i^k I_k(y)),

        J0(x + iy) = J0(x) I0(y) + 2 sum_{k>=1} (-i)^k J_k(x) I_k(y),

    so the surface is one product of real float64 matrices of J_k(xs) and
    I_k(ys).  The factors come from the long-double ascending series, all k
    at once, and the number of terms K follows the grid's largest |x| and
    |y|.  The values agree with :func:`h_of_s` to about 1e-14 relative in
    J0.  A point where |J0| < ``POLE_THRESHOLD`` is NaN instead of raising
    ``PoleError``.  An empty axis gives an empty surface.

    Raises
    ------
    EvaluationDomainError
        If any grid point is not finite or lies beyond ``SERIES_RADIUS``,
        as :func:`bessel_j0` would raise for it.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size == 0 or ys.size == 0:
        return np.empty((ys.size, xs.size), dtype=complex)
    corner = np.array([complex(xs[np.argmax(np.abs(xs))], ys[np.argmax(np.abs(ys))])], dtype=np.clongdouble)
    _require_in_disc(corner, np.abs(corner))
    terms = _neumann_terms(abs(corner[0].real), abs(corner[0].imag))
    z = np.concatenate([xs, ys]).astype(np.longdouble)
    q = z * z / 4
    q[: xs.size] *= -1
    lead = np.ones((terms, z.size), dtype=np.longdouble)  # (z/2)^k / k!
    np.cumprod(z / 2 / np.arange(1, terms, dtype=np.longdouble)[:, None], axis=0, out=lead[1:])
    factors = (lead * _series(q, np.abs(z), terms)).astype(float)
    jx = factors[:, : xs.size]
    # the weight 2 (-i)^k (1 at k = 0) on I_k: real for even k, imaginary for odd k
    k = np.arange(terms)
    weights = np.array([1.0, -1.0, -1.0, 1.0])[k % 4] * np.where(k > 0, 2.0, 1.0)
    iy = factors[:, xs.size :] * weights[:, None]
    # numpy's own product loop: a threaded BLAS product changes its last
    # bits with the CPU count
    j0 = np.empty((ys.size, xs.size), dtype=complex)
    np.einsum("ki,kj->ij", iy[0::2], jx[0::2], out=j0.real)
    np.einsum("ki,kj->ij", iy[1::2], jx[1::2], out=j0.imag)
    pole = np.abs(j0) < POLE_THRESHOLD
    np.divide(1.0, j0, out=j0, where=~pole)
    j0[pole] = np.nan
    return j0


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
    if np.any(mag < POLE_THRESHOLD):
        bad = complex(np.ravel(s)[np.argmin(mag)])
        raise PoleError(f"1/J0 has a pole at s = {bad}", point=bad)
    return 1.0 / j


h_of_s.on_grid = h_on_grid
