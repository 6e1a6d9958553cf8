"""Vector Fitting: pole relocation for the pole-residue ansatz.

The model is f(s) = sum_n c_n / (s - a_n) + d + s h with real d, h and
poles/residues that are real or come in conjugate pairs.  Each iteration
linearises the fit around the current poles,

    (sum_n cb_n / (s - a_n) + 1) f(s)  =  sum_n c_n / (s - a_n) + d + s h,

solves the stacked real least-squares system for {c, d, h, cb}, and moves
the poles to the zeros of the weight function on the left, read off as the
eigenvalues of a real companion-form matrix.  Unstable poles are kept: the
benchmark's true poles lie in the right half plane, so the classic
stability flip would destroy the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (DivergenceError, InsufficientDataError, PoleError, SettingError, SymmetryError,
                     check_count, check_shapes)

#: Iteration stops early once the largest relative pole movement drops below this.
MOVE_TOL = 1e-10

#: Any pole magnitude beyond this aborts the iteration as divergent.
DIVERGENCE_RADIUS = 1e6

#: Iterations whose system condition exceeds this are flagged in the history.
ILL_CONDITION = 1e13

_PAIR_TOL = 1e-9

#: The Vector Fitting settings and their defaults, its row of
#: ``analysis.FIT_DEFAULTS``.
DEFAULTS = {"order": 12, "iters": 20}


@dataclass
class PoleResidueModel:
    """Pole-residue form sum c_n/(s - a_n) + d + s h; residues not shaped like the poles raise ``SampleError``."""

    poles: np.ndarray
    residues: np.ndarray
    d: float
    h: float

    def __post_init__(self):
        self.poles = np.asarray(self.poles, dtype=complex)
        self.residues = np.asarray(self.residues, dtype=complex)
        check_shapes("pole-residue model", dict(poles=self.poles, residues=self.residues), [(self.poles.size,)] * 2)
        self.d = float(self.d)
        self.h = float(self.h)

    @property
    def order(self) -> int:
        return self.poles.size

    def eval(self, s):
        return eval_pole_residue(self, s)

    def __call__(self, s):
        return self.eval(s)

    def poles_zeros(self) -> tuple[np.ndarray, np.ndarray]:
        """Poles and zeros by :func:`pr_poles_zeros`."""
        return pr_poles_zeros(self)


@dataclass
class VfIterate:
    iteration: int
    max_pole_move: float
    linearized_residual: float
    condition: float
    ill_conditioned: bool


def _is_real(p: complex) -> bool:
    return abs(p.imag) <= _PAIR_TOL * (1.0 + abs(p))


def order_conjugate_pairs(poles) -> np.ndarray:
    """Canonical pole order: real poles ascending, then pairs (upper, lower).

    Real poles are put on the real axis and each lower pole is replaced by
    the exact conjugate of its upper mate.  Raises ``SymmetryError`` if
    some complex pole lacks a conjugate mate.
    """
    poles = np.asarray(poles, dtype=complex)
    real = sorted(p.real for p in poles if _is_real(p))
    uppers = sorted((p for p in poles if not _is_real(p) and p.imag > 0), key=lambda p: (p.real, p.imag))
    lowers = [p for p in poles if not _is_real(p) and p.imag < 0]
    out: list[complex] = [complex(x) for x in real]
    for u in uppers:
        if not lowers:
            raise SymmetryError(f"pole {u} has no conjugate mate")
        gaps = [abs(lo - u.conjugate()) for lo in lowers]
        k = int(np.argmin(gaps))
        if gaps[k] > 1e-8 * (1.0 + abs(u)):
            raise SymmetryError(f"pole {u} has no conjugate mate (closest gap {gaps[k]:.2e})")
        lowers.pop(k)
        out += [complex(u), complex(u).conjugate()]
    if lowers:
        raise SymmetryError(f"unmatched lower-half poles remain: {lowers}")
    return np.asarray(out, dtype=complex)


def _basis(points: np.ndarray, poles: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """A fit step's basis over real parameters: [pair columns of 1/(s - a_n), 1, s]."""
    cols = linalg.real_pair_columns(1.0 / (points[:, None] - poles), starts)
    return np.column_stack([cols, np.ones(points.size), points])


def _real_stacked_lstsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Column-equilibrated real least squares; returns (x, residual, condition).

    Unit-norm column scaling keeps the pole-relocation step well conditioned
    when basis columns differ by orders of magnitude.
    """
    stacked = np.vstack([a.real, a.imag])
    rhs = np.concatenate([b.real, b.imag])
    col_scale = np.linalg.norm(stacked, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    x, sigma = linalg.least_squares(stacked / col_scale, rhs)
    x = x / col_scale
    cond = float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else np.inf
    resid = float(np.linalg.norm(stacked @ x - rhs))
    return x, resid, cond


def initial_poles_auto(points: np.ndarray, order: int) -> np.ndarray:
    """Default starting poles: weakly damped conjugate pairs.

    Imaginary parts are spread linearly over [0.5, 1.2] times the real-axis
    span of the samples, with real part -beta/100; an odd order adds one
    real pole at the midpoint scale.
    """
    span = float(points.real.max() - points.real.min())
    if span == 0.0:
        span = max(1.0, float(np.abs(points).max()))
    n_pairs = order // 2
    poles: list[complex] = []
    betas = np.linspace(0.5 * span, 1.2 * span, max(n_pairs, 1))[:n_pairs]
    for beta in betas:
        poles.append(complex(-beta / 100.0, beta))
        poles.append(complex(-beta / 100.0, -beta))
    if order % 2:
        poles.append(complex(-0.85 * span / 100.0, 0.0))
    return order_conjugate_pairs(np.asarray(poles))


def fit_vf(
    samples: SampleSet,
    order: int = DEFAULTS["order"],
    n_iter: int = DEFAULTS["iters"],
    initial_poles: np.ndarray | None = None,
) -> tuple[PoleResidueModel, list[VfIterate]]:
    """Vector Fitting of the given order.

    Runs up to ``n_iter`` pole-relocation steps (stopping early when the
    largest relative pole movement falls below ``MOVE_TOL``), then solves a
    final least-squares pass for the residues, d and h with the poles held
    fixed.

    Raises
    ------
    SettingError
        If ``order`` is not an integer of at least 1, ``n_iter`` (the
        ``iters`` setting) not an integer of at least 0, or
        ``initial_poles`` not ``order`` finite poles.
    DivergenceError
        If any pole magnitude exceeds ``DIVERGENCE_RADIUS``.
    InsufficientDataError
        If fewer than 2 (order + 2) samples are supplied.
    """
    check_count("order", order, 1)
    check_count("iters", n_iter, 0)
    if len(samples) < 2 * (order + 2):
        raise InsufficientDataError(
            f"{len(samples)} samples cannot determine order {order}; "
            f"need at least {2 * (order + 2)}"
        )
    points = samples.points
    values = samples.values

    if initial_poles is None:
        poles = initial_poles_auto(points, order)
    else:
        given = np.asarray(initial_poles, dtype=complex)
        if given.size != order:
            raise SettingError(f"got {given.size} initial poles for order {order}")
        if not np.all(np.isfinite(given)):
            raise SettingError("initial poles must be finite")
        poles = order_conjugate_pairs(given)

    history: list[VfIterate] = []
    for iteration in range(1, n_iter + 1):
        real = poles.imag == 0.0
        starts = linalg.pair_starts(real)
        basis = _basis(points, poles, starts)
        system = np.hstack([basis, -basis[:, :order] * values[:, None]])
        solution, resid, cond = _real_stacked_lstsq(system, values)

        # zeros of sigma(s) = sum cb_n/(s - a_n) + 1, via the real companion
        # form: eigenvalues of diag-block(poles) - b cb^T stay exactly
        # conjugate-closed
        companion = np.diag(poles.real)
        companion[starts, starts + 1] = poles[starts].imag
        companion[starts + 1, starts] = poles[starts + 1].imag
        bcol = real.astype(float)
        bcol[starts] = 2.0
        new_poles = order_conjugate_pairs(np.linalg.eigvals(companion - np.outer(bcol, solution[order + 2 :])))
        move = max(
            float(np.min(np.abs(new_poles - p)) / (1.0 + abs(p))) for p in poles
        )
        poles = new_poles
        history.append(
            VfIterate(
                iteration=iteration,
                max_pole_move=move,
                linearized_residual=resid,
                condition=cond,
                ill_conditioned=cond > ILL_CONDITION,
            )
        )
        worst = float(np.max(np.abs(poles)))
        if worst > DIVERGENCE_RADIUS:
            raise DivergenceError(f"pole magnitude {worst:.3e} exceeds {DIVERGENCE_RADIUS:g}")
        if move < MOVE_TOL:
            break

    # residue identification with the final poles held fixed
    starts = linalg.pair_starts(poles.imag == 0.0)
    solution, _, _ = _real_stacked_lstsq(_basis(points, poles, starts), values)
    model = PoleResidueModel(
        poles=poles,
        residues=linalg.pair_coefficients(solution[:order], starts),
        d=float(solution[order]),
        h=float(solution[order + 1]),
    )
    return model, history


def eval_pole_residue(model: PoleResidueModel, s):
    """Direct summation of the pole-residue form.

    Raises ``PoleError`` at a point that is exactly a pole.  Elsewhere the
    value is the IEEE result of the sum, without a warning: a NaN point
    gives NaN, and so does ``s h`` at an infinite point with ``h = 0``.
    """

    def summed(chunk):
        diff = chunk[..., None] - model.poles
        at_pole = diff == 0.0
        if at_pole.any():
            bad = complex(chunk[at_pole.any(axis=-1)][0])
            raise PoleError(f"evaluation exactly at pole s = {bad}", point=bad)
        sums = linalg.cauchy_sum(diff, model.residues)
        with np.errstate(over="ignore", invalid="ignore"):
            return sums + model.d + chunk * model.h

    return linalg.eval_chunked(summed, s)


def pr_poles_zeros(model: PoleResidueModel) -> tuple[np.ndarray, np.ndarray]:
    """Poles (stored) and zeros of the pole-residue model.

    Zeros are those of an equivalent descriptor realization, by
    :func:`linalg.descriptor_zeros`; a nonzero h term is realized with two
    extra descriptor states so the polynomial part is represented exactly.
    """
    r = model.order
    n_states = r + 2 if model.h != 0.0 else r
    a = np.zeros((n_states, n_states), dtype=complex)
    e = np.zeros((n_states, n_states), dtype=complex)
    b = np.zeros(n_states, dtype=complex)
    c = np.zeros(n_states, dtype=complex)
    a[:r, :r] = np.diag(model.poles)
    e[:r, :r] = np.eye(r)
    b[:r] = 1.0
    c[:r] = model.residues
    if model.h != 0.0:
        # two-state block realizing s*h: C_h (s E_h - A_h)^{-1} B_h
        a[r, r] = -1.0
        a[r + 1, r + 1] = -1.0
        e[r, r + 1] = 1.0
        b[r + 1] = -model.h
        c[r] = 1.0
    zeros = linalg.descriptor_zeros(a, e, b, c, model.d)
    return model.poles.copy(), zeros
