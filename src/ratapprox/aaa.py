"""Adaptive barycentric rational fitting (greedy support-point selection).

The approximant is kept in barycentric form

    r(s) = n(s) / d(s) = sum_j w_j f_j / (s - s_j)  /  sum_j w_j / (s - s_j)

where the support points s_j are samples promoted one per iteration (the
current worst-approximated sample) and the weights minimise the linearized
residual f(s) d(s) - n(s) over all remaining samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import StagnationError
from .sampling import SampleSet


@dataclass
class BarycentricModel:
    """Barycentric triple (support points, support values, weights).

    r(s_j) = f_j exactly wherever w_j != 0; the weight vector has unit
    2-norm.
    """

    support_points: np.ndarray
    support_values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.support_points = np.asarray(self.support_points, dtype=complex)
        self.support_values = np.asarray(self.support_values, dtype=complex)
        self.weights = np.asarray(self.weights, dtype=complex)
        if len(np.unique(self.support_points)) != self.support_points.size:
            raise ValueError("support points must be distinct")
        if not np.any(self.weights):
            raise ValueError("weights are identically zero")

    @property
    def order(self) -> int:
        return self.support_points.size

    def eval(self, s):
        return eval_barycentric(self, s)

    __call__ = eval

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
    the result is complex infinity.
    """
    zj = model.support_points
    wf = model.weights * model.support_values

    def quotient(chunk):
        with np.errstate(divide="ignore", invalid="ignore"):
            cauchy = 1.0 / (chunk[:, None] - zj[None, :])
            vals = (cauchy @ wf) / (cauchy @ model.weights)
        for j, z in enumerate(zj):
            hit = chunk == z
            if np.any(hit):
                vals[hit] = model.support_values[j]
        vals[np.isnan(vals)] = np.inf
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

    # Constrain w(conj s_j) = conj(w_j): one complex free weight per
    # conjugate pair, one real weight per real support point.  Assemble a
    # real matrix over the real parameters and take its smallest singular
    # vector.
    m = support_points.size
    handled = np.zeros(m, dtype=bool)
    param_cols = []
    recipe = []  # (kind, j, jconj)
    for j in range(m):
        if handled[j]:
            continue
        sj = support_points[j]
        if sj.imag == 0.0:
            param_cols.append(loewner_rows[:, j][:, None])
            recipe.append(("real", j, None))
            handled[j] = True
        else:
            jc = int(np.nonzero(support_points == sj.conjugate())[0][0])
            col_re = loewner_rows[:, j] + loewner_rows[:, jc]
            col_im = 1j * (loewner_rows[:, j] - loewner_rows[:, jc])
            param_cols.append(np.stack([col_re, col_im], axis=1))
            recipe.append(("pair", j, jc))
            handled[j] = True
            handled[jc] = True
    block = np.hstack(param_cols)
    stacked = np.vstack([block.real, block.imag])
    params = linalg.smallest_singular_vector(stacked)
    weights = np.zeros(m, dtype=complex)
    pos = 0
    for kind, j, jc in recipe:
        if kind == "real":
            weights[j] = params[pos]
            pos += 1
        else:
            weights[j] = params[pos] + 1j * params[pos + 1]
            weights[jc] = params[pos] - 1j * params[pos + 1]
            pos += 2
    norm = np.linalg.norm(weights)
    if norm > 0:
        weights = weights / norm
    return weights


def fit_aaa(
    samples: SampleSet,
    tol: float = 1e-13,
    max_order: int = 100,
    real_mode: bool = False,
    seed: int | None = None,
) -> tuple[BarycentricModel, list[AaaStep]]:
    """Greedy barycentric fit until ``max |r - f| <= tol * max |f|``.

    The first support point is the sample farthest from the mean value
    (deterministic); passing ``seed`` instead starts from a random sample.
    With ``real_mode`` support points are promoted together with their
    conjugates and the weights are constrained to conjugate pairs, which
    yields a real-symmetric approximant at the price of a higher order and
    possible spurious pole/zero pairs (see :func:`cleanup`).

    Returns the model and the greedy error history.

    Raises
    ------
    StagnationError
        If the residual matrix runs out of rows (more support points than
        remaining samples) before the tolerance is met.
    """
    if samples.values is None:
        raise ValueError("samples carry no values; run sample_oracle first")
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    if tol <= 0:
        raise ValueError("tol must be positive")
    points = samples.points
    values = samples.values
    scale = float(np.max(np.abs(values)))

    if seed is None:
        start = int(np.argmax(np.abs(values - values.mean())))
    else:
        start = int(np.random.default_rng(seed).integers(0, points.size))
    support_idx = [start]
    if real_mode and points[start].imag != 0.0:
        support_idx.append(_conjugate_index(points, start))

    history: list[AaaStep] = []
    while True:
        zs = points[support_idx]
        fs = values[support_idx]
        mask = np.ones(points.size, dtype=bool)
        mask[support_idx] = False
        if mask.sum() < len(support_idx):
            raise StagnationError(
                f"residual matrix has {int(mask.sum())} rows for {len(support_idx)} "
                f"columns; tolerance {tol:g} unreachable on this data"
            )
        weights = _solve_weights(points[mask], values[mask], zs, fs, real_mode)
        model = BarycentricModel(support_points=zs, support_values=fs, weights=weights)
        resid = np.abs(eval_barycentric(model, points[mask]) - values[mask])
        worst = int(np.argmax(resid))
        max_error = float(resid[worst])
        history.append(AaaStep(order=model.order, max_error=max_error))
        if max_error <= tol * scale or model.order >= max_order:
            return model, history
        new_idx = int(np.nonzero(mask)[0][worst])
        support_idx.append(new_idx)
        if real_mode and points[new_idx].imag != 0.0:
            support_idx.append(_conjugate_index(points, new_idx))


def _conjugate_index(points: np.ndarray, idx: int) -> int:
    target = points[idx].conjugate()
    hits = np.nonzero(points == target)[0]
    if hits.size == 0:
        raise ValueError(f"real_mode needs conjugate-closed samples; no mate for {points[idx]}")
    return int(hits[0])


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


def residues(model: BarycentricModel, poles: np.ndarray | None = None) -> np.ndarray:
    """Residues at the poles, by n(a) / d'(a) of the barycentric quotient."""
    if poles is None:
        poles, _ = barycentric_poles_zeros(model)
    with np.errstate(divide="ignore", invalid="ignore"):
        cauchy = 1.0 / (poles[:, None] - model.support_points[None, :])
        num = cauchy @ (model.weights * model.support_values)
        dden = -(cauchy**2) @ model.weights
    return num / dden


def cleanup(
    model: BarycentricModel,
    samples: SampleSet,
    pair_tol: float = 1e-9,
) -> BarycentricModel:
    """Remove spurious pole/zero doublets and re-solve the weights once.

    A pole is spurious when a zero sits within ``pair_tol * (1 + |pole|)``
    of it, or when its residue magnitude is below ``pair_tol`` times the
    median residue magnitude.  For each spurious pole the nearest support
    point is dropped; the weights are then recomputed by one least-squares
    solve over all non-support samples.  A clean model is returned as is.
    """
    poles, zeros = barycentric_poles_zeros(model)
    if poles.size == 0:
        return model
    res = residues(model, poles)
    res_scale = np.median(np.abs(res)) if res.size else 0.0
    spurious = []
    for i, p in enumerate(poles):
        gap = np.min(np.abs(zeros - p)) if zeros.size else np.inf
        if gap <= pair_tol * (1.0 + abs(p)) or abs(res[i]) <= pair_tol * res_scale:
            spurious.append(p)
    if not spurious:
        return model
    drop = set()
    for p in spurious:
        order_near = np.argsort(np.abs(model.support_points - p))
        for j in order_near:
            if int(j) not in drop:
                drop.add(int(j))
                break
    keep = [j for j in range(model.order) if j not in drop]
    if not keep:
        return model
    zs = model.support_points[keep]
    fs = model.support_values[keep]
    rows = ~np.isin(samples.points, zs)
    weights = _solve_weights(samples.points[rows], samples.values[rows], zs, fs, real_mode=False)
    return BarycentricModel(support_points=zs, support_values=fs, weights=weights)
