"""Dense complex linear-algebra contracts used by every fitting method.

Thin wrappers over LAPACK (via scipy) that pin down the conventions the
rest of the toolkit relies on: V holds right singular vectors as columns,
least squares is the SVD pseudo-inverse with a fixed cutoff, and the
generalized eigensolver filters infinite and spurious eigenvalues.  The
conjugate-pair functions solve for conjugate-symmetric coefficients over
real parameters.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
#: chunk * r * r complex numbers per work array (about 4 MB at r = 11), and
#: every evaluating thread holds one batch.
_EVAL_CHUNK = 2048

#: Helper threads of :func:`eval_chunked`, created on first use.
_pool = None
_pool_lock = threading.Lock()


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
    matrix.  The trailing triplets of the sketch are the least accurate, so
    callers oversample beyond the triplets they use.

    When ``width >= min(m, n) // 2`` the sketch would cost about as much as
    the full decomposition, so the full thin SVD is returned instead (all
    ``min(m, n)`` triplets) and ``rng`` is not touched.

    It is :func:`draw_sketch` followed by :func:`sketch_svd`; callers that
    run several sketches at once draw all their test matrices first, so
    each gets the numbers it would get in a serial run.
    """
    a = np.asarray(a)
    return sketch_svd(a, draw_sketch(a.shape, width, rng))


def draw_sketch(shape: tuple[int, int], width: int, rng: np.random.Generator) -> np.ndarray | None:
    """The Gaussian test matrix :func:`leading_svd` draws for a matrix of ``shape``.

    None where ``width`` calls for the full SVD; then ``rng`` is not touched.
    """
    if width < 1:
        raise ValueError(f"sketch width must be positive, got {width}")
    m, n = shape
    if width >= min(m, n) // 2:
        return None
    return rng.standard_normal((n, width)) + 1j * rng.standard_normal((n, width))


def sketch_svd(a, omega: np.ndarray | None) -> SvdResult:
    """The leading singular triplets of ``a`` from the test matrix ``omega`` of :func:`draw_sketch`.

    ``omega`` None gives the full thin SVD.
    """
    a = np.asarray(a)
    if omega is None:
        return svd(a)
    q, _ = np.linalg.qr(a @ omega)
    for _ in range(_POWER_STEPS):
        # a^H q as (q^H a)^H: no conjugated copy of the large matrix
        z, _ = np.linalg.qr((q.conj().T @ a).conj().T)
        q, _ = np.linalg.qr(a @ z)
    small = svd(q.conj().T @ a)
    return SvdResult(U=q @ small.U, singular_values=small.singular_values, V=small.V)


def eval_chunked(kernel, s):
    """Evaluate ``kernel`` at the points ``s`` in batches of ``_EVAL_CHUNK``.

    ``kernel`` maps a 1-D complex array of points to their values.  Scalar
    ``s`` gives a complex scalar, array ``s`` a complex array of its shape.
    Batches are spread over the calling thread and one helper thread per
    further CPU in this process's affinity mask (``taskset -c 0`` gives no
    helper); each value depends only on its own batch, so the result does
    not depend on the number of threads.  When batches raise, the exception
    of the first failing batch is raised, as in a serial loop.
    Points that fit in one batch go to ``kernel`` at once on the calling
    thread, so the nested single-batch calls made by kernels never touch
    the pool.
    """
    pts = np.atleast_1d(np.asarray(s, dtype=complex)).ravel()
    starts = range(0, pts.size, _EVAL_CHUNK)
    if len(starts) == 1:
        out = np.asarray(kernel(pts), dtype=complex)
    else:
        out = np.empty(pts.size, dtype=complex)

        def run(lo):
            out[lo : lo + _EVAL_CHUNK] = kernel(pts[lo : lo + _EVAL_CHUNK])

        _share(run, starts)
    if np.ndim(s) == 0:
        return complex(out[0])
    return out.reshape(np.shape(s))


def pole_residue_sum(points: np.ndarray, poles: np.ndarray, residues: np.ndarray) -> np.ndarray:
    """``sum_j residues[..., j] / (points - poles[j])`` at each of the 1-D ``points``.

    ``residues`` of shape ``(r,)`` gives one sum per point; a stack of shape
    ``(k, r)`` gives ``k`` sums per point, as an array of shape ``(k, n)``,
    from one set of divisions.  Each sum is an elementwise product reduced
    along its row, never a matrix product, so a point's value does not
    depend on the other points evaluated with it.  A sum that overflows is
    the IEEE infinity or nan that its arithmetic gives, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cauchy = 1.0 / (points[:, None] - poles[None, :])
        return (cauchy * np.asarray(residues)[..., None, :]).sum(axis=-1)


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _helper_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cpu_count() - 1), thread_name_prefix="ratapprox-eval")
        return _pool


def _share(run, starts: range) -> None:
    """Call ``run(lo)`` for every ``lo`` in ``starts`` on this thread and helper threads.

    This thread takes the first start before any helper is asked, then all
    threads take starts from one iterator in order; after a failure no
    thread takes a new start.  Every start before a failing one has been
    taken, so once the started calls have returned, the exception of the
    smallest failing start is the one a serial loop would raise.
    """
    helpers = min(_cpu_count(), len(starts)) - 1
    if helpers <= 0:
        for lo in starts:
            run(lo)
        return
    todo = iter(starts)
    lock = threading.Lock()
    stop = threading.Event()
    failed = {}

    def take():
        with lock:
            return None if stop.is_set() else next(todo, None)

    def work(lo):
        while lo is not None:
            try:
                run(lo)
            except Exception as exc:  # noqa: BLE001 - re-raised below, in start order
                failed[lo] = exc
                stop.set()
            lo = take()

    first = take()
    pool = _helper_pool()
    # each helper runs in a copy of the caller's context, which holds numpy's errstate
    futures = [pool.submit(contextvars.copy_context().run, lambda: work(take())) for _ in range(helpers)]
    try:
        work(first)
    finally:
        stop.set()
        for future in futures:
            # a helper that never started (pool busy, e.g. with the caller's
            # own outer evaluation) is not waited for: its starts are all taken
            if not future.cancel():
                future.result()
    if failed:
        raise failed[min(failed)]


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
