"""Adaptive barycentric rational fitting (greedy support-point selection).

The approximant is kept in barycentric form

    r(s) = n(s) / d(s) = sum_j w_j f_j / (s - s_j)  /  sum_j w_j / (s - s_j)

where the support points s_j are samples promoted one per iteration (the
current worst-approximated sample) and the weights minimise the linearized
residual f(s) d(s) - n(s) over all remaining samples.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import greedy, linalg
from .errors import (InsufficientDataError, SampleError, SettingError, StagnationError, SymmetryError, check_count,
                     check_shapes)
from .sampling import SampleSet, conjugate_mates, group_members

#: The AAA fit's settings and their defaults, its row of ``analysis.FIT_DEFAULTS``.
#: order is the cap; seed=None starts at the sample farthest from the mean, a seed at random.
DEFAULTS = {"order": 30, "tol": 1e-13, "real_mode": False, "seed": None, "cleanup": False}

#: :func:`cleanup` calls a pole spurious when a zero lies within this relative
#: distance of it, or when its residue is this small against the median residue.
CLEANUP_TOL = 1e-9


@dataclass
class BarycentricModel:
    """Barycentric triple (support points, support values, weights).

    r(s_j) = f_j exactly wherever w_j != 0; the weight vector has unit
    2-norm.  Repeated points, zero weights, or fields not shaped like the points raise ``SampleError``.
    """

    support_points: np.ndarray
    support_values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.support_points = np.asarray(self.support_points, dtype=complex)
        self.support_values = np.asarray(self.support_values, dtype=complex)
        self.weights = np.asarray(self.weights, dtype=complex)
        check_shapes("barycentric model", vars(self), [(self.support_points.size,)] * 3)
        if len(np.unique(self.support_points)) != self.support_points.size:
            raise SampleError("support points must be distinct")
        if not np.any(self.weights):
            raise SampleError("weights are identically zero")

    @property
    def order(self) -> int:
        return self.support_points.size

    @functools.cached_property
    def quotient_weights(self) -> np.ndarray:
        """The rows ``[w f; w]`` of the numerator and denominator sums, computed once per model."""
        return np.stack([self.weights * self.support_values, self.weights])

    def eval(self, s):
        return eval_barycentric(self, s)

    def __call__(self, s):
        return self.eval(s)

    def poles_zeros(self) -> tuple[np.ndarray, np.ndarray]:
        """Poles and zeros by :func:`barycentric_poles_zeros`."""
        return barycentric_poles_zeros(self)


@dataclass
class AaaStep:
    order: int
    max_error: float


def eval_barycentric(model: BarycentricModel, s):
    """Evaluate the barycentric quotient.

    At a support point the removable singularity is resolved to the stored
    value.  Where the denominator vanishes exactly away from support points
    the result is complex infinity.  Elsewhere the value is the IEEE result
    of the quotient, without a warning; a NaN point gives NaN.
    """
    zj = model.support_points
    stacked = model.quotient_weights

    def quotient(chunk):
        diff = chunk[..., None] - zj
        num_den = linalg.cauchy_sum(diff[..., None, :], stacked)
        num, den = num_den[..., 0], num_den[..., 1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(num / den)  # a scalar point's quotient as a writable 0-d array
        vals[den == 0] = np.inf
        at = diff == 0  # for finite points the same test as chunk == zj
        if np.count_nonzero(at):  # rather than any(): on a scalar's 0-d chunk it costs a third as much
            support = at.any(axis=-1)  # support points are distinct: one hit at most
            vals[support] = model.support_values[np.argmax(at[support], axis=-1)]
        return vals

    return linalg.eval_chunked(quotient, s)


def _solve_weights(row_points, row_values, support_points, support_values, real_mode):
    """Unit-norm weights minimising the linearized residual over the given rows.

    Rows must not contain any support point (divided differences would blow
    up); callers pass the non-support samples.
    """
    cauchy = 1.0 / (row_points[:, None] - support_points[None, :])
    loewner_rows = (row_values[:, None] - support_values[None, :]) * cauchy
    if not real_mode:
        return linalg.smallest_singular_vector(loewner_rows)

    # Constrain w(conj s_j) = conj(w_j) over real parameters, one per real
    # support point and two per pair; fit_aaa promotes each non-real support
    # point together with its conjugate, so pairs are adjacent.
    starts = linalg.pair_starts(support_points.imag == 0.0)
    block = linalg.real_pair_columns(loewner_rows, starts)
    params = linalg.smallest_singular_vector(np.vstack([block.real, block.imag]))
    weights = linalg.pair_coefficients(params, starts)
    return weights / np.linalg.norm(weights)


def fit_aaa(
    samples: SampleSet,
    tol: float = DEFAULTS["tol"],
    max_order: int = DEFAULTS["order"],
    real_mode: bool = DEFAULTS["real_mode"],
    seed: int | None = DEFAULTS["seed"],
) -> tuple[BarycentricModel, list[AaaStep]]:
    """Greedy barycentric fit until ``max |r - f| <= tol * max |f|``.

    The first support point is the sample farthest from the mean value
    (deterministic); passing ``seed`` instead starts from a random sample.
    Each step measures the residual at the remaining samples with
    :func:`eval_barycentric`, records its maximum in the history and stops
    at the tolerance; otherwise it promotes what :func:`ratapprox.greedy.rank`
    picks, with its band ``greedy.RANK_BAND``, NaN residuals ignored.  The order never
    exceeds ``max_order``: a promotion that would pass it returns the
    current model instead.  With ``real_mode`` support points are promoted
    together with their conjugates (lower index first after the start) and
    the weights are constrained to conjugate pairs, which yields a
    real-symmetric approximant at the price of a higher order and possible
    spurious pole/zero pairs (see :func:`cleanup`).

    Returns the model and the greedy error history.

    Raises
    ------
    SettingError
        If ``tol`` is not positive (NaN included), ``max_order`` is not an
        integer of at least 1 or ``seed`` (when given) not an integer of at
        least 0, or in ``real_mode`` if ``max_order`` is 1 and the first
        support point is not real.
    InsufficientDataError
        If there are fewer than 2 samples.
    SymmetryError
        If ``real_mode`` is set and the samples are not conjugate-closed;
        this is checked before the first step.
    StagnationError
        If the residual matrix runs out of rows (more support points than
        remaining samples) before the tolerance is met.
    """
    if len(samples) < 2:
        raise InsufficientDataError("need at least 2 samples")
    if not tol > 0:
        raise SettingError("tol must be positive")
    check_count("order", max_order, 1)
    if seed is not None:
        check_count("seed", seed, 0)
    points = samples.points
    values = samples.values
    scale = float(np.max(np.abs(values)))

    if seed is None:
        start = int(np.argmax(np.abs(values - values.mean())))
    else:
        start = int(np.random.default_rng(seed).integers(0, points.size))
    mates = conjugate_mates(points) if real_mode else np.arange(points.size)

    support_idx: list[int] = []
    unused = np.ones(points.size, dtype=bool)
    picks = [start]
    history: list[AaaStep] = []
    while True:
        if len(support_idx) + group_members(mates, picks).size > max_order:
            if not support_idx:
                raise SettingError(f"order cap {max_order} is below the first conjugate pair")
            return model, history
        greedy.promote([support_idx], unused, mates, picks)
        zs = points[support_idx]
        fs = values[support_idx]
        rows = np.flatnonzero(unused)
        if rows.size < len(support_idx):
            raise StagnationError(
                f"residual matrix has {rows.size} rows for {len(support_idx)} "
                f"columns; tolerance {tol:g} unreachable on this data"
            )
        weights = _solve_weights(points[rows], values[rows], zs, fs, real_mode)
        model = BarycentricModel(support_points=zs, support_values=fs, weights=weights)
        resid = np.abs(eval_barycentric(model, points[rows]) - values[rows])
        picks, max_error = greedy.rank(resid, rows, mates, count=1)
        history.append(AaaStep(order=model.order, max_error=max_error))
        if max_error <= tol * scale:
            return model, history


def barycentric_poles_zeros(model: BarycentricModel) -> tuple[np.ndarray, np.ndarray]:
    """Poles and zeros via the (m+1) arrowhead pencils.

    Poles are the finite generalized eigenvalues of the pencil built from
    the weights, zeros of the one built from weight * value products; the
    quotient form has at most m - 1 of each.
    """
    m = model.order
    n = np.eye(m + 1, dtype=complex)
    n[0, 0] = 0.0

    def arrowhead(first_row):
        pencil = np.zeros((m + 1, m + 1), dtype=complex)
        pencil[0, 1:] = first_row
        pencil[1:, 0] = 1.0
        pencil[1:, 1:] = np.diag(model.support_points)
        return pencil

    poles = linalg.finite_generalized_eigenvalues(arrowhead(model.weights), n)
    zeros = linalg.finite_generalized_eigenvalues(
        arrowhead(model.weights * model.support_values), n
    )
    return poles, zeros


def residues(model: BarycentricModel, poles: np.ndarray) -> np.ndarray:
    """Residues at the poles, by n(a) / d'(a) of the barycentric quotient."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cauchy = 1.0 / (poles[:, None] - model.support_points[None, :])
        num = cauchy @ (model.weights * model.support_values)
        dden = -(cauchy**2) @ model.weights
    return num / dden


def _real_mates(model: BarycentricModel) -> np.ndarray | None:
    """Conjugate mates of a real-symmetric model's support points, else None.

    A model is real-symmetric, as ``fit_aaa(real_mode=True)`` builds it, when its
    support set is conjugate-closed and each mate's weight is exactly the conjugate weight.
    """
    try:
        mates = conjugate_mates(model.support_points)
    except SymmetryError:
        return None
    return mates if np.array_equal(model.weights[mates], model.weights.conj()) else None


def cleanup(model: BarycentricModel, samples: SampleSet) -> BarycentricModel:
    """Remove spurious pole/zero doublets and re-solve the weights once.

    A pole is spurious when a zero sits within ``CLEANUP_TOL * (1 + |pole|)``
    of it, or when its residue magnitude is below ``CLEANUP_TOL`` times the
    median residue magnitude.  Each spurious pole marks its nearest support
    point.  Support points go by conjugate group: in a real-symmetric model
    (see :func:`_real_mates`) a conjugate pair goes only when both its points
    are marked, and otherwise a point goes when it is marked.  The weights are
    then recomputed by one least-squares solve over all non-support samples,
    in real mode for a real-symmetric model, so that it stays real.  A clean
    model, or one that would keep no support point, is returned as is.
    """
    poles, zeros = barycentric_poles_zeros(model)
    if poles.size == 0:
        return model
    res = residues(model, poles)
    res_scale = np.median(np.abs(res)) if res.size else 0.0
    marked = np.zeros(model.order, dtype=bool)
    for i, p in enumerate(poles):
        gap = np.min(np.abs(zeros - p)) if zeros.size else np.inf
        if gap <= CLEANUP_TOL * (1.0 + abs(p)) or abs(res[i]) <= CLEANUP_TOL * res_scale:
            marked[np.argmin(np.abs(model.support_points - p))] = True
    mates = _real_mates(model)
    keep = ~(marked & marked[mates]) if mates is not None else ~marked
    if keep.all() or not keep.any():
        return model
    zs = model.support_points[keep]
    fs = model.support_values[keep]
    rows = ~np.isin(samples.points, zs)
    weights = _solve_weights(samples.points[rows], samples.values[rows], zs, fs, real_mode=mates is not None)
    return BarycentricModel(support_points=zs, support_values=fs, weights=weights)
