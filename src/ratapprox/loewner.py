"""Loewner framework: divided-difference pencils and reduced state-space models.

Given samples (s_k, phi_k) split into left data (mu_j, v_j) and right data
(lam_i, w_i), the Loewner and shifted Loewner matrices

    L[j, i]  = (v_j - w_i) / (mu_j - lam_i)
    Ls[j, i] = (mu_j v_j - lam_i w_i) / (mu_j - lam_i)

carry the complete interpolation data.  A rank-revealing SVD compresses the
pencil to a descriptor realization (E, A, B, C) of order r whose transfer
function C (sE - A)^{-1} B approximately interpolates all samples.  The
module also exposes the projected interpolation points: the generalized
eigenvalues of the compressed pencils, which act as the r effective support
points that survive the compression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import PartitionError, PencilError, PoleError, RankError, SymmetryError
from .sampling import Domain, SampleSet, conjugate_groups

PARTITION_SCHEMES = ("alternating", "half_split", "epsilon_paired")

#: truncate() refuses orders whose last retained singular direction falls
#: below this relative level: such directions carry noise, not data, and
#: produce garbage poles.
RANK_GUARD = 1e-13

#: truncate() sketches this many singular directions beyond the ones it
#: keeps, so the kept ones are accurate (see linalg.leading_svd), and seeds
#: every sketch afresh from a fixed seed, so outputs are a pure function of
#: the pencil.
_OVERSAMPLE = 20
_SKETCH_SEED = 0


@dataclass
class DataPartition:
    """Disjoint left (mu, v) and right (lam, w) interpolation data."""

    mu: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=complex)
        self.v = np.asarray(self.v, dtype=complex)
        self.lam = np.asarray(self.lam, dtype=complex)
        self.w = np.asarray(self.w, dtype=complex)
        if self.mu.shape != self.v.shape or self.lam.shape != self.w.shape:
            raise ValueError("point and value arrays must match in shape")
        if self.mu.size == 0 or self.lam.size == 0:
            raise PartitionError("both sides of a partition must be non-empty")


@dataclass
class LoewnerPencil:
    """The pencil (L, Ls) with its defining data.

    Direction vectors are all ones in the scalar (SISO) setting; they appear
    explicitly only in the Sylvester identities below.
    """

    L: np.ndarray
    Ls: np.ndarray
    V: np.ndarray
    W: np.ndarray
    mu: np.ndarray
    lam: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.L.shape

    @property
    def left_directions(self) -> np.ndarray:
        return np.ones(self.mu.size)

    @property
    def right_directions(self) -> np.ndarray:
        return np.ones(self.lam.size)


@dataclass
class StateSpaceModel:
    """Descriptor realization; transfer function ``C (sE - A)^{-1} B``.

    The explicit feedthrough term is identically zero.  E need not be
    invertible: data with a constant part yields a singular E whose
    infinite pencil eigenvalue carries that part.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=complex)
        self.A = np.asarray(self.A, dtype=complex)
        self.B = np.asarray(self.B, dtype=complex).ravel()
        self.C = np.asarray(self.C, dtype=complex).ravel()

    @property
    def order(self) -> int:
        return self.E.shape[0]

    def eval(self, s):
        """Evaluate the transfer function by solving (sE - A) x = B.

        Never forms an explicit inverse; array input is solved in batches.
        Raises ``PoleError`` when sE - A is singular at some requested point.
        """
        b = self.B[:, None]

        def solve(chunk):
            mats = np.multiply.outer(chunk, self.E)  # one r x r x chunk array, no temporary
            mats -= self.A
            try:
                xs = np.linalg.solve(mats, np.broadcast_to(b, (chunk.size, self.order, 1)))
            except np.linalg.LinAlgError:
                bad = _first_singular_point(self, chunk)
                raise PoleError(f"sE - A is singular at s = {bad}", point=bad) from None
            return (self.C[None, None, :] @ xs)[:, 0, 0]

        return linalg.eval_chunked(solve, s)

    __call__ = eval

    def poles_zeros(self) -> tuple[np.ndarray, np.ndarray]:
        """Poles and zeros by :func:`poles` and :func:`zeros`."""
        return poles(self), zeros(self)


def _first_singular_point(model: StateSpaceModel, chunk: np.ndarray) -> complex:
    for s in chunk:
        try:
            np.linalg.solve(s * model.E - model.A, model.B)
        except np.linalg.LinAlgError:
            return complex(s)
    return complex(chunk[0])


@dataclass
class ProjectedPoints:
    """Projected interpolation points of a reduction: r right and r left."""

    lambda_hat: np.ndarray
    mu_hat: np.ndarray

    @property
    def order(self) -> int:
        return self.lambda_hat.size


@dataclass
class LoewnerReduction:
    """Everything produced by :func:`truncate`.

    ``singular_values`` belong to the row concatenation [L, Ls] used for
    order selection; ``singular_values_stacked`` to the column stack.  Both
    hold only the leading values that truncation computed, the width of
    its sketch (``order + 20`` of them with ``order=``), or all of them
    when the pencil is small enough for a full SVD.
    Y and X are the retained left/right singular-vector blocks, kept so
    projected interpolation points can be formed later.  ``e_condition``
    reports cond(E); it is legitimately huge when the data carries a
    constant or polynomial part (the feedthrough lives in E's null space).
    """

    model: StateSpaceModel
    singular_values: np.ndarray
    singular_values_stacked: np.ndarray
    Y: np.ndarray
    X: np.ndarray
    e_condition: float = np.nan


def partition(samples: SampleSet, scheme: str = "epsilon_paired") -> DataPartition:
    """Split samples into disjoint left/right sets, preserving conjugate closure.

    Conjugate pairs always land on one side together.  Schemes:

    - ``alternating``: conjugate groups alternate sides in input order.
    - ``half_split``: first half of the groups left, rest right.
    - ``epsilon_paired`` (default): groups are sorted lexicographically by
      (Re, Im) of their upper representative and adjacent groups go to
      opposite sides, so every left point has a right point at grid
      distance.  The first group of each adjacent pair becomes a right
      (column) point.
    """
    if scheme not in PARTITION_SCHEMES:
        raise ValueError(f"unknown partition scheme {scheme!r}; pick one of {PARTITION_SCHEMES}")
    if samples.values is None:
        raise PartitionError("samples carry no values; run sample_oracle first")
    if len(samples) < 2:
        raise PartitionError("need at least 2 samples to partition")
    pts = samples.points
    try:
        groups = conjugate_groups(pts)
    except SymmetryError as exc:
        raise PartitionError(f"cannot preserve conjugate closure: {exc}") from exc
    if len(groups) < 2:
        raise PartitionError(
            "only one conjugate group present; it cannot be split across sides"
        )

    if scheme == "epsilon_paired":
        def key(group):
            rep = max((pts[i] for i in group), key=lambda p: p.imag)
            return (rep.real, rep.imag)

        groups = sorted(groups, key=key)
        # first of each adjacent pair -> right, second -> left
        left_sides = [gi % 2 == 1 for gi in range(len(groups))]
    elif scheme == "alternating":
        left_sides = [gi % 2 == 0 for gi in range(len(groups))]
    else:
        half = (len(groups) + 1) // 2
        left_sides = [gi < half for gi in range(len(groups))]

    left = [i for gi, g in enumerate(groups) if left_sides[gi] for i in g]
    right = [i for gi, g in enumerate(groups) if not left_sides[gi] for i in g]
    vals = samples.values
    return DataPartition(mu=pts[left], v=vals[left], lam=pts[right], w=vals[right])


def build_pencil(part: DataPartition) -> LoewnerPencil:
    """Assemble the Loewner pencil from a partition by the divided-difference formulas."""
    diff = part.mu[:, None] - part.lam[None, :]
    if np.any(diff == 0.0):
        j, i = np.argwhere(diff == 0.0)[0]
        raise PencilError(f"coincident points: mu[{j}] == lam[{i}] == {part.mu[j]}")
    L = (part.v[:, None] - part.w[None, :]) / diff
    Ls = (part.mu[:, None] * part.v[:, None] - part.lam[None, :] * part.w[None, :]) / diff
    return LoewnerPencil(L=L, Ls=Ls, V=part.v.copy(), W=part.w.copy(), mu=part.mu.copy(), lam=part.lam.copy())


def sylvester_residual(pencil: LoewnerPencil) -> tuple[float, float]:
    """Residuals of the two Sylvester identities the pencil satisfies by construction.

    Returns Frobenius norms of ``M L - L Lam - (V R - L_dir W)`` and
    ``M Ls - Ls Lam - (M V R - L_dir W Lam)``, each normalized by |Ls|.
    Values far above roundoff indicate a corrupted pencil.
    """
    M = pencil.mu[:, None]
    Lam = pencil.lam[None, :]
    VR = np.outer(pencil.V, pencil.right_directions)
    LW = np.outer(pencil.left_directions, pencil.W)
    scale = np.linalg.norm(pencil.Ls)
    r1 = np.linalg.norm(M * pencil.L - pencil.L * Lam - (VR - LW))
    r2 = np.linalg.norm(M * pencil.Ls - pencil.Ls * Lam - (M * VR - LW * Lam))
    return r1 / scale, r2 / scale


def truncate(
    pencil: LoewnerPencil,
    order: int | None = None,
    tol: float | None = None,
) -> LoewnerReduction:
    """SVD-truncate the pencil to a state-space model.

    Exactly one of ``order`` (reduce to fixed order r) and ``tol`` (smallest
    r with ``sigma_{r+1}/sigma_1 <= tol``, sigma taken from the row
    concatenation [L, Ls]) must be given.

    The projectors are Y, the leading left singular vectors of [L, Ls], and
    X, the leading right singular vectors of [L; Ls]; the realization is
    E = -Y* L X, A = -Y* Ls X, B = Y* V, C = W X.

    Only the leading singular subspaces are computed, by randomized
    subspace iteration (:func:`linalg.leading_svd`) seeded afresh on every
    call, so equal pencils give equal bytes.  With ``order=`` both sketches
    are ``order + 20`` wide.  With ``tol=`` the [L, Ls] sketch starts 21
    wide and doubles until its last singular value has dropped to ``tol``
    (or the full SVD is taken); the [L; Ls] sketch is then ``order + 20``
    wide.
    """
    if (order is None) == (tol is None):
        raise ValueError("specify exactly one of order= and tol=")
    q, k = pencil.shape
    if tol is not None and not 0.0 < tol < 1.0:
        raise ValueError("tol must lie in (0, 1)")
    if order is not None and not 1 <= order <= min(q, k):
        raise RankError(f"order {order} not in [1, min(q, k) = {min(q, k)}]")
    rng = np.random.default_rng(_SKETCH_SEED)
    row_concat = np.hstack([pencil.L, pencil.Ls])
    width = (order if tol is None else 1) + _OVERSAMPLE
    while True:
        svd_rows = linalg.leading_svd(row_concat, width, rng)
        sigma = svd_rows.singular_values
        if tol is None or sigma[-1] <= tol * sigma[0] or sigma.size == min(row_concat.shape):
            break
        width *= 2
    if sigma[0] == 0.0:
        raise RankError("pencil has rank zero: all samples identical?")
    if tol is not None:
        below = np.nonzero(sigma / sigma[0] <= tol)[0]
        order = int(below[0]) if below.size else min(q, k)
        order = max(1, min(order, min(q, k)))
    if sigma[order - 1] / sigma[0] < RANK_GUARD:
        numerical_rank = int(np.sum(sigma / sigma[0] >= RANK_GUARD))
        raise RankError(
            f"order {order} exceeds the numerical rank {numerical_rank} of the "
            f"data (sigma_{order}/sigma_1 = {sigma[order - 1] / sigma[0]:.2e}); "
            "reduce the order"
        )
    # right vectors of [L; Ls] are the left vectors of its adjoint [L*, Ls*]
    col_adjoint = np.hstack([pencil.L.conj().T, pencil.Ls.conj().T])
    svd_cols = linalg.leading_svd(col_adjoint, order + _OVERSAMPLE, rng)
    Y = svd_rows.U[:, :order]
    X = svd_cols.U[:, :order]
    E = -Y.conj().T @ pencil.L @ X
    A = -Y.conj().T @ pencil.Ls @ X
    B = Y.conj().T @ pencil.V
    C = pencil.W @ X
    model = StateSpaceModel(E=E, A=A, B=B, C=C)
    return LoewnerReduction(
        model=model,
        singular_values=sigma,
        singular_values_stacked=svd_cols.singular_values,
        Y=Y,
        X=X,
        e_condition=float(np.linalg.cond(E)),
    )


def poles(model: StateSpaceModel) -> np.ndarray:
    """Poles of the model: finite generalized eigenvalues of (A, E)."""
    return linalg.finite_generalized_eigenvalues(model.A, model.E)


def zeros(model: StateSpaceModel) -> np.ndarray:
    """Zeros of the model: finite eigenvalues of the bordered pencil.

    The pencil is ([A, B; C, 0], [E, 0; 0, 0]); its zero feedthrough block
    forces at least two eigenvalues to infinity, so a strictly proper model
    of order r has at most r - 1 finite zeros.
    """
    r = model.order
    m = np.zeros((r + 1, r + 1), dtype=complex)
    n = np.zeros((r + 1, r + 1), dtype=complex)
    m[:r, :r] = model.A
    m[:r, r] = model.B
    m[r, :r] = model.C
    n[:r, :r] = model.E
    return linalg.finite_generalized_eigenvalues(m, n)


def projected_points(
    pencil: LoewnerPencil,
    Y: np.ndarray,
    X: np.ndarray,
    residual_tol: float = 1e-8,
) -> ProjectedPoints:
    """Projected interpolation points of a reduction.

    With hatted quantities Lh = Y* L X, Lsh = Y* Ls X, Vh = Y* V,
    Ldh = Y* 1, Wh = W X, Rh = 1* X, the reduced data matrices satisfy

        Lsh - Lh LamHat = Vh Rh        Lsh - MuHat Lh = Ldh Wh

    and the projected points are the spectra of LamHat and MuHat, i.e. the
    finite generalized eigenvalues of (Lsh - Vh Rh, Lh) and
    (Lsh - Ldh Wh, Lh).  Both identities are verified to ``residual_tol``
    before eigenvalues are returned.
    """
    Lh = Y.conj().T @ pencil.L @ X
    Lsh = Y.conj().T @ pencil.Ls @ X
    Vh = Y.conj().T @ pencil.V
    Ldh = Y.conj().T @ pencil.left_directions.astype(complex)
    Wh = pencil.W @ X
    Rh = pencil.right_directions.astype(complex) @ X
    rhs_r = Lsh - np.outer(Vh, Rh)
    rhs_l = Lsh - np.outer(Ldh, Wh)
    scale = np.linalg.norm(Lsh)
    try:
        lam_mat = np.linalg.solve(Lh, rhs_r)
        mu_mat = np.linalg.solve(Lh.conj().T, rhs_l.conj().T).conj().T
    except np.linalg.LinAlgError:
        raise RankError("reduced Loewner factor is singular; truncation order too high") from None
    res_r = np.linalg.norm(Lsh - Lh @ lam_mat - np.outer(Vh, Rh)) / scale
    res_l = np.linalg.norm(Lsh - mu_mat @ Lh - np.outer(Ldh, Wh)) / scale
    if max(res_r, res_l) > residual_tol:
        raise RankError(
            f"projected Sylvester identities violated (residuals {res_r:.2e}, "
            f"{res_l:.2e}); truncation order too high for this data"
        )
    lam_hat = linalg.finite_generalized_eigenvalues(rhs_r, Lh)
    mu_hat = linalg.finite_generalized_eigenvalues(rhs_l, Lh)
    return ProjectedPoints(lambda_hat=lam_hat, mu_hat=mu_hat)


@dataclass
class TrajectoryStep:
    """One densification step of the projected-point trajectory study."""

    nx: int
    ny: int
    n_points: int
    projected: ProjectedPoints


def trajectory_study(
    oracle,
    domain: Domain,
    a: int = 10,
    n_steps: int = 5,
    order: int = 11,
    scheme: str = "epsilon_paired",
) -> list[TrajectoryStep]:
    """Track projected interpolation points under grid densification.

    Step i samples an (i*a) x (i*a) structured grid (the ordinate count is
    bumped to the next odd integer so the real axis stays a grid row), fits
    at fixed ``order`` and records the projected points.
    """
    from .sampling import sample_oracle, structured_grid

    if a < 3:
        raise ValueError("need a >= 3 for a usable coarsest grid")
    steps: list[TrajectoryStep] = []
    for i in range(1, n_steps + 1):
        nx = i * a
        ny = i * a
        if domain.y_symmetric and ny % 2 == 0:
            ny += 1
        samples = sample_oracle(structured_grid(domain, nx, ny), oracle)
        pencil = build_pencil(partition(samples, scheme))
        reduction = truncate(pencil, order=order)
        proj = projected_points(pencil, reduction.Y, reduction.X)
        steps.append(TrajectoryStep(nx=nx, ny=ny, n_points=len(samples), projected=proj))
    return steps
