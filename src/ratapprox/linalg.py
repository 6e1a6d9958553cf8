"""Dense complex linear-algebra contracts used by every fitting method.

Thin wrappers over LAPACK (via scipy) that pin down the conventions the
rest of the toolkit relies on: V holds right singular vectors as columns,
least squares is the SVD pseudo-inverse with a fixed cutoff, and the
generalized eigensolver filters infinite and spurious eigenvalues.  The
conjugate-pair functions solve for conjugate-symmetric coefficients over
real parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ComputationError, PencilError

#: Relative singular-value cutoff of the least-squares pseudo-inverse.
LSTSQ_CUTOFF = 1e-13

#: Generalized eigenvalues larger than this are treated as infinite.
INFINITY_CUTOFF = 1e8

#: Finite eigenvalue candidates with a larger backward residual are discarded.
RESIDUAL_TOL = 1e-6

#: Points per batch in :func:`eval_chunked`.  A state-space batch holds
#: chunk * r * r complex numbers per work array (about 4 MB at r = 11).
_EVAL_CHUNK = 2048


@dataclass
class SvdResult:
    """Thin SVD ``A = U @ diag(singular_values) @ V.conj().T``.

    Columns of U and V are orthonormal; singular values are non-negative
    and non-increasing.
    """

    U: np.ndarray
    singular_values: np.ndarray
    V: np.ndarray


def svd(a) -> SvdResult:
    a = np.asarray(a)
    if a.size == 0:
        raise ValueError("cannot decompose an empty matrix")
    try:
        u, s, vh = scipy.linalg.svd(a, full_matrices=False)
    except scipy.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but sturdier
        try:
            u, s, vh = scipy.linalg.svd(a, full_matrices=False, lapack_driver="gesvd")
        except scipy.linalg.LinAlgError as exc:
            raise ComputationError("SVD did not converge") from exc
    return SvdResult(U=u, singular_values=s, V=vh.conj().T)


#: Power (subspace) iterations of the randomized range finder in
#: :func:`leading_svd`; each sharpens the sketch's spectral gap by another
#: factor sigma_{w+1}/sigma_j squared.
_POWER_STEPS = 2


def leading_svd(a, width: int, rng: np.random.Generator) -> SvdResult:
    """The leading ``width`` singular triplets of ``a`` by randomized subspace iteration.

    The range finder with power iterations of Halko, Martinsson and Tropp
    (SIAM Review 53, 2011, Alg. 4.4): a complex Gaussian sketch of ``width``
    columns drawn from ``rng``, re-orthonormalised after every product with
    ``a`` or its adjoint, then the exact SVD of the projected ``width x n``
    matrix.  ``U`` holds the leading left and ``V`` the leading right
    singular vectors.  The trailing triplets of the sketch are the least
    accurate, so callers oversample beyond the triplets they use.

    Where :func:`takes_full_svd` holds, the sketch would cost about as much
    as the full decomposition, so the full thin SVD is returned instead (all
    ``min(m, n)`` triplets) and ``rng`` is not touched.
    """
    if width < 1:
        raise ValueError(f"sketch width must be positive, got {width}")
    a = np.asarray(a)
    if takes_full_svd(a.shape, width):
        return svd(a)
    n = a.shape[1]
    omega = rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))
    q, _ = np.linalg.qr(a @ omega)
    for _ in range(_POWER_STEPS):
        # a^H q as (q^H a)^H: no conjugated copy of the large matrix
        z, _ = np.linalg.qr((q.conj().T @ a).conj().T)
        q, _ = np.linalg.qr(a @ z)
    small = svd(q.conj().T @ a)
    return SvdResult(U=q @ small.U, singular_values=small.singular_values, V=small.V)


def takes_full_svd(shape: tuple[int, int], width: int) -> bool:
    """Whether :func:`leading_svd` of ``width`` takes the full SVD of a matrix of ``shape``.

    It does when ``width >= min(m, n) // 2``.
    """
    return width >= min(shape) // 2


def eval_chunked(kernel, s):
    """Evaluate ``kernel`` at the points ``s`` in batches of ``_EVAL_CHUNK``.

    ``kernel`` maps a 0-d or 1-D complex array of points to values of its
    shape.  Scalar ``s`` goes to ``kernel`` as a 0-d array, with no
    batching, and gives a Python complex.  Array ``s`` gives a complex array
    of its shape: its points are raveled and passed to ``kernel`` one batch
    at a time, in order, on the calling thread.  Each value depends only on
    its own batch, and an exception propagates from the first failing batch.
    Empty ``s`` calls no kernel.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim == 0:
        return complex(kernel(s))
    pts = s.ravel()
    out = np.empty(pts.size, dtype=complex)
    for lo in range(0, pts.size, _EVAL_CHUNK):
        out[lo : lo + _EVAL_CHUNK] = kernel(pts[lo : lo + _EVAL_CHUNK])
    return out.reshape(s.shape)


def cauchy_sum(diff: np.ndarray, residues) -> np.ndarray:
    """``sum_j residues[..., j] / diff[..., j]``, the Cauchy sum over the last axis.

    ``diff`` holds the differences ``points[..., None] - poles`` the caller
    has already formed, and ``residues`` broadcasts against it: shape
    ``(r,)`` gives one sum per point, and ``diff[..., None, :]`` against a
    stack of shape ``(k, r)`` gives ``k`` sums per point, in the last axis,
    from one set of divisions.  Each sum is an elementwise product reduced
    along its row, never a matrix product, so a point's value does not
    depend on the other points evaluated with it, nor on whether it comes
    alone, as ``diff`` of shape ``(r,)``.  A zero difference or a sum that
    overflows gives the IEEE infinity or nan of its arithmetic, without a
    warning.
    """
    # residues get the axes of diff: numpy multiplies a (1, 1) array by a (1,) one
    # in another loop, with other last bits, than it does every other shape
    residues = residues.reshape((1,) * (diff.ndim - residues.ndim) + residues.shape)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return ((1.0 / diff) * residues).sum(axis=-1)


def least_squares(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm least-squares solution of ``a @ x = b`` and the singular values of ``a``.

    Singular values below ``LSTSQ_CUTOFF * sigma_max`` are treated as zero,
    so rank-deficient systems return the minimum-norm minimiser.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[0] < a.shape[1]:
        raise ValueError(f"system is underdetermined: shape {a.shape}")
    res = svd(a)
    s = res.singular_values
    keep = s > LSTSQ_CUTOFF * s[0] if s[0] > 0 else np.zeros_like(s, dtype=bool)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return res.V @ (inv * (res.U.conj().T @ b)), s


def smallest_singular_vector(a) -> np.ndarray:
    """Right singular vector of the smallest singular value, unit 2-norm."""
    a = np.asarray(a)
    if a.shape[0] < a.shape[1] or a.shape[1] < 1:
        raise ValueError(f"need rows >= cols >= 1, got shape {a.shape}")
    return svd(a).V[:, -1]


def pair_starts(real) -> np.ndarray:
    """First index of each adjacent (z, conj z) pair, from the mask ``real`` of the real entries."""
    paired = np.flatnonzero(~np.asarray(real, dtype=bool))
    starts = paired[::2]
    if paired.size % 2 or np.any(paired[1::2] != starts + 1):
        raise ValueError("non-real entries must come in adjacent pairs")
    return starts


def real_pair_columns(cols, starts) -> np.ndarray:
    """``cols`` over the real parameters p of a conjugate-pair coefficient vector.

    A pair's columns m, m + 1 become ``c_m + c_{m+1}`` and ``1j * (c_m - c_{m+1})``,
    so that ``real_pair_columns(cols, starts) @ p == cols @ pair_coefficients(p, starts)``.
    """
    out = np.array(cols, dtype=complex)
    first, second = out[:, starts], out[:, starts + 1]
    out[:, starts] = first + second
    out[:, starts + 1] = 1j * (first - second)
    return out


def pair_coefficients(params, starts) -> np.ndarray:
    """The coefficients of the real parameters ``params``: ``p_m +- 1j * p_{m+1}`` on each pair."""
    out = np.array(params, dtype=complex)
    first, second = out[starts].real, out[starts + 1].real
    out[starts] = first + 1j * second
    out[starts + 1] = first - 1j * second
    return out


def finite_generalized_eigenvalues(m, n) -> np.ndarray:
    """All finite eigenvalues of the pencil (m, n): det(m - lam * n) = 0.

    Eigenvalues at infinity (vanishing beta in the QZ output, as produced by
    a singular ``n``) are discarded, as are candidates whose magnitude
    exceeds ``INFINITY_CUTOFF`` or whose backward residual
    ``|(m - lam n) x| / ((|m| + |lam| |n|) |x|)`` exceeds ``RESIDUAL_TOL``.

    Raises
    ------
    PencilError
        If the pencil is identically singular (an indeterminate 0/0
        eigenvalue shows up in the QZ output).
    """
    m = np.asarray(m, dtype=complex)
    n = np.asarray(n, dtype=complex)
    if m.shape != n.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("pencil matrices must be square and of equal shape")
    try:
        ab, vr = scipy.linalg.eig(m, n, right=True, homogeneous_eigvals=True)
    except scipy.linalg.LinAlgError as exc:
        raise ComputationError("QZ iteration did not converge") from exc
    alpha, beta = ab
    norm_m = np.linalg.norm(m)
    norm_n = np.linalg.norm(n)
    dim = m.shape[0]
    tiny = dim * np.finfo(float).eps
    indeterminate = (np.abs(alpha) <= tiny * max(norm_m, 1.0)) & (
        np.abs(beta) <= tiny * max(norm_n, 1.0)
    )
    if np.any(indeterminate) and _identically_singular(m, n):
        raise PencilError("pencil is identically singular: det(m - lam n) == 0 for all lam")
    finite = []
    for i in range(dim):
        if indeterminate[i] or np.abs(beta[i]) == 0.0:
            continue
        lam = alpha[i] / beta[i]
        if np.abs(lam) > INFINITY_CUTOFF:
            continue
        x = vr[:, i]
        resid = np.linalg.norm(m @ x - lam * (n @ x))
        scale = (norm_m + np.abs(lam) * norm_n) * np.linalg.norm(x)
        if scale > 0 and resid / scale > RESIDUAL_TOL:
            continue
        finite.append(lam)
    return np.asarray(finite, dtype=complex)


def descriptor_zeros(a, e, b, c, d) -> np.ndarray:
    """Finite zeros of the transfer function ``c (s e - a)^{-1} b + d``.

    They are the finite eigenvalues of the bordered pencil
    ``([a, b; c, d], [e, 0; 0, 0])``, whose zero border forces at least one
    eigenvalue to infinity.
    """
    r = len(b)
    m = np.zeros((r + 1, r + 1), dtype=complex)
    n = np.zeros((r + 1, r + 1), dtype=complex)
    m[:r, :r] = a
    m[:r, r] = b
    m[r, :r] = c
    m[r, r] = d
    n[:r, :r] = e
    return finite_generalized_eigenvalues(m, n)


def _identically_singular(m, n) -> bool:
    # det(m - z n) sampled at three generic shifts; all zero (relative to a
    # Hadamard-type scale) means the pencil is singular as a polynomial.
    rng = np.random.default_rng(1234)
    for _ in range(3):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        pencil = m - z * n
        sign, logdet = np.linalg.slogdet(pencil)
        row_norms = np.linalg.norm(pencil, axis=1)
        if np.any(row_norms == 0.0):
            continue
        if sign != 0 and logdet - np.sum(np.log(row_norms)) > np.log(1e-12):
            return False
    return True
