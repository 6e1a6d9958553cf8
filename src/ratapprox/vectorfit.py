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
from .errors import DivergenceError, InsufficientDataError, PoleError, SymmetryError

#: Iteration stops early once the largest relative pole movement drops below this.
MOVE_TOL = 1e-10

#: Any pole magnitude beyond this aborts the iteration as divergent.
DIVERGENCE_RADIUS = 1e6

#: Iterations whose system condition exceeds this are flagged in the history.
ILL_CONDITION = 1e13

_PAIR_TOL = 1e-9


@dataclass
class PoleResidueModel:
    """Pole-residue form sum c_n/(s - a_n) + d + s h."""

    poles: np.ndarray
    residues: np.ndarray
    d: float
    h: float

    def __post_init__(self):
        self.poles = np.asarray(self.poles, dtype=complex)
        self.residues = np.asarray(self.residues, dtype=complex)
        self.d = float(self.d)
        self.h = float(self.h)

    @property
    def order(self) -> int:
        return self.poles.size

    def eval(self, s):
        return eval_pole_residue(self, s)

    __call__ = eval

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

    Raises ``SymmetryError`` if some complex pole lacks a conjugate mate.
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
        out.append(complex(u))
        out.append(complex(lowers.pop(k)))
    if lowers:
        raise SymmetryError(f"unmatched lower-half poles remain: {lowers}")
    return np.asarray(out, dtype=complex)


def _classify(poles: np.ndarray) -> np.ndarray:
    # 0 real, 1 first of a conjugate pair, 2 second
    kinds = np.zeros(poles.size, dtype=int)
    m = 0
    while m < poles.size:
        if _is_real(poles[m]):
            m += 1
        else:
            kinds[m] = 1
            kinds[m + 1] = 2
            m += 2
    return kinds


def _partial_fraction_columns(points: np.ndarray, poles: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    # Real-coefficient basis: real pole -> 1/(s-a); conjugate pair ->
    # 1/(s-a) + 1/(s-abar) and i/(s-a) - i/(s-abar).
    cols = np.zeros((points.size, poles.size), dtype=complex)
    for m, pole in enumerate(poles):
        if kinds[m] == 0:
            cols[:, m] = 1.0 / (points - pole)
        elif kinds[m] == 1:
            plus = 1.0 / (points - pole)
            minus = 1.0 / (points - pole.conjugate())
            cols[:, m] = plus + minus
            cols[:, m + 1] = 1j * plus - 1j * minus
    return cols


def _real_stacked_lstsq(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Column-equilibrated real least squares; returns (x, residual, condition).

    Unit-norm column scaling keeps the pole-relocation step well conditioned
    when basis columns differ by orders of magnitude.
    """
    stacked = np.vstack([a.real, a.imag])
    rhs = np.concatenate([b.real, b.imag])
    col_scale = np.linalg.norm(stacked, axis=0)
    col_scale[col_scale == 0.0] = 1.0
    scaled = stacked / col_scale
    x = linalg.least_squares(scaled, rhs) / col_scale
    sigma = linalg.svd(scaled).singular_values
    cond = float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else np.inf
    resid = float(np.linalg.norm(stacked @ x - rhs))
    return x, resid, cond


def _unpack_complex(params: np.ndarray, kinds: np.ndarray) -> np.ndarray:
    out = np.zeros(kinds.size, dtype=complex)
    for m in range(kinds.size):
        if kinds[m] == 0:
            out[m] = params[m]
        elif kinds[m] == 1:
            out[m] = params[m] + 1j * params[m + 1]
            out[m + 1] = params[m] - 1j * params[m + 1]
    return out


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
    order: int,
    n_iter: int = 20,
    initial_poles: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> tuple[PoleResidueModel, list[VfIterate]]:
    """Vector Fitting of the given order.

    Runs up to ``n_iter`` pole-relocation steps (stopping early when the
    largest relative pole movement falls below ``MOVE_TOL``), then solves a
    final least-squares pass for the residues, d and h with the poles held
    fixed.  ``weights`` optionally scales each sample row of every solve.

    Raises
    ------
    DivergenceError
        If any pole magnitude exceeds ``DIVERGENCE_RADIUS``.
    InsufficientDataError
        If fewer than 2 (order + 2) samples are supplied.
    """
    if samples.values is None:
        raise InsufficientDataError("samples carry no values; run sample_oracle first")
    if order < 1:
        raise ValueError("order must be at least 1")
    if len(samples) < 2 * (order + 2):
        raise InsufficientDataError(
            f"{len(samples)} samples cannot determine order {order}; "
            f"need at least {2 * (order + 2)}"
        )
    points = samples.points
    values = samples.values
    if weights is None:
        weights = np.ones(points.size)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != points.shape:
            raise ValueError("weights shape differs from samples")

    if initial_poles is None:
        poles = initial_poles_auto(points, order)
    else:
        poles = order_conjugate_pairs(initial_poles)
        if poles.size != order:
            raise ValueError(f"got {poles.size} initial poles for order {order}")

    history: list[VfIterate] = []
    for iteration in range(1, n_iter + 1):
        kinds = _classify(poles)
        cols = _partial_fraction_columns(points, poles, kinds)
        system = np.zeros((points.size, 2 * order + 2), dtype=complex)
        system[:, :order] = cols
        system[:, order] = 1.0
        system[:, order + 1] = points
        system[:, order + 2 :] = -cols * values[:, None]
        solution, resid, cond = _real_stacked_lstsq(
            system * weights[:, None], values * weights
        )
        sigma_params = solution[order + 2 :]

        # zeros of sigma(s) = sum cb_n/(s - a_n) + 1, via the real companion
        # form: eigenvalues of diag-block(poles) - b cb^T stay exactly
        # conjugate-closed
        companion = np.zeros((order, order))
        bcol = np.zeros(order)
        for m in range(order):
            if kinds[m] == 0:
                companion[m, m] = poles[m].real
                bcol[m] = 1.0
            elif kinds[m] == 1:
                re, im = poles[m].real, poles[m].imag
                companion[m : m + 2, m : m + 2] = [[re, im], [-im, re]]
                bcol[m] = 2.0
        new_poles = order_conjugate_pairs(np.linalg.eigvals(companion - np.outer(bcol, sigma_params)))
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
    kinds = _classify(poles)
    cols = _partial_fraction_columns(points, poles, kinds)
    system = np.zeros((points.size, order + 2), dtype=complex)
    system[:, :order] = cols
    system[:, order] = 1.0
    system[:, order + 1] = points
    solution, _, _ = _real_stacked_lstsq(system * weights[:, None], values * weights)
    model = PoleResidueModel(
        poles=poles,
        residues=_unpack_complex(solution[:order], kinds),
        d=float(solution[order]),
        h=float(solution[order + 1]),
    )
    return model, history


def eval_pole_residue(model: PoleResidueModel, s):
    """Direct summation of the pole-residue form."""

    def summed(chunk):
        diff = chunk[:, None] - model.poles[None, :]
        if np.any(diff == 0.0):
            bad = chunk[np.nonzero(np.any(diff == 0.0, axis=1))[0][0]]
            raise PoleError(f"evaluation exactly at pole s = {bad}", point=complex(bad))
        return (1.0 / diff) @ model.residues + model.d + chunk * model.h

    return linalg.eval_chunked(summed, s)


def pr_poles_zeros(model: PoleResidueModel) -> tuple[np.ndarray, np.ndarray]:
    """Poles (stored) and zeros of the pole-residue model.

    Zeros come from the bordered pencil of an equivalent descriptor
    realization; a nonzero h term is realized with two extra descriptor
    states so the polynomial part is represented exactly.
    """
    r = model.order
    if model.h != 0.0:
        n_states = r + 2
        m = np.zeros((n_states + 1, n_states + 1), dtype=complex)
        n = np.zeros((n_states + 1, n_states + 1), dtype=complex)
        m[:r, :r] = np.diag(model.poles)
        n[:r, :r] = np.eye(r)
        # two-state block realizing s*h: C_h (s E_h - A_h)^{-1} B_h
        m[r, r] = -1.0
        m[r + 1, r + 1] = -1.0
        n[r, r + 1] = 1.0
        m[:r, n_states] = 1.0
        m[r + 1, n_states] = -model.h
        m[n_states, :r] = model.residues
        m[n_states, r] = 1.0
        m[n_states, n_states] = model.d
    else:
        m = np.zeros((r + 1, r + 1), dtype=complex)
        n = np.zeros((r + 1, r + 1), dtype=complex)
        m[:r, :r] = np.diag(model.poles)
        n[:r, :r] = np.eye(r)
        m[:r, r] = 1.0
        m[r, :r] = model.residues
        m[r, r] = model.d
    zeros = linalg.finite_generalized_eigenvalues(m, n)
    return model.poles.copy(), zeros
