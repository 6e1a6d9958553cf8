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

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linalg, sampling
from .errors import (PartitionError, PencilError, PoleError, RankError, SampleError, SettingError,
                     SymmetryError, check_count, check_shapes)
from .sampling import Domain, SampleSet, conjugate_mates, group_members

PARTITION_SCHEMES = ("alternating", "half_split", "epsilon_paired")

#: The Loewner fit's settings and their defaults, its row of
#: ``analysis.FIT_DEFAULTS``; order is used only when tol is not given.
DEFAULTS = {"order": 11, "tol": None, "scheme": "epsilon_paired"}

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

#: projected_points() refuses reductions whose projected Sylvester
#: identities have a larger relative residual.
PROJECTION_RESIDUAL_TOL = 1e-8

#: Rows per block in which build_pencil() fills L and Ls and truncate()
#: writes x L - Ls over Ls; a block's work arrays hold this many rows of
#: the pencil, not all of them.
_PENCIL_ROWS = 32


@dataclass
class DataPartition:
    """Disjoint left (mu, v) and right (lam, w) interpolation data.

    Points and values of different shapes, or a point or value that is not
    finite, raise ``SampleError``; an empty side raises ``PartitionError``.
    """

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
            raise SampleError("point and value arrays must match in shape")
        if self.mu.size == 0 or self.lam.size == 0:
            raise PartitionError("both sides of a partition must be non-empty")
        for name in ("mu", "v", "lam", "w"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise SampleError(f"partition {name} holds a value that is not finite")


@dataclass
class LoewnerPencil:
    """The pencil (L, Ls) with its defining data.

    Direction vectors are all ones in the scalar (SISO) setting; they appear
    only in the Sylvester identities of :func:`sylvester_residual` and
    :func:`projected_points`.
    """

    L: np.ndarray
    Ls: np.ndarray
    V: np.ndarray
    W: np.ndarray
    mu: np.ndarray
    lam: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.mu.size, self.lam.size


@dataclass
class StateSpaceModel:
    """Descriptor realization; transfer function ``C (sE - A)^{-1} B``.

    The explicit feedthrough term is identically zero.  E need not be
    invertible: data with a constant part yields a singular E whose
    infinite pencil eigenvalue carries that part.

    Evaluation uses the modal (pole-residue) form of the model where it
    may (see :meth:`eval`).  That form is computed from E, A, B and C on
    the first evaluation and kept; it is never serialized.  E and A not
    r x r, or B and C (raveled) not of length r, raise ``SampleError``.
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
        r = self.B.size
        check_shapes("state-space model", vars(self), [(r, r), (r, r), (r,), (r,)])

    @property
    def order(self) -> int:
        return self.E.shape[0]

    @functools.cached_property
    def modal(self) -> ModalForm | None:
        """The modal form by :func:`modal_form`, computed once per model."""
        return modal_form(self)

    def eval(self, s):
        """Evaluate the transfer function.

        A point farther than ``radii[i]`` from every pole ``poles[i]`` of the
        :class:`ModalForm` gets ``sum_i residues[i] / (s - poles[i])``, O(r)
        per point.  Every other point, and every point of a model without a
        modal form, solves (sE - A) x = B by LU, O(r^3) per point, in
        batches and without an explicit inverse.  A point's value does not
        depend on the other points evaluated with it.  A non-finite point
        takes the LU solve too, so s = inf gives NaN on every path, with or
        without a modal form: 0, the modal sum's value there, is the wrong
        limit for a model whose singular E carries a constant part.

        Raises ``PoleError`` when sE - A is singular at some requested point.
        """
        modal = self.modal
        if modal is None:
            return self.solve(s)

        def hybrid(chunk):
            diff = chunk[..., None] - modal.poles
            in_disc = np.abs(diff) <= modal.radii
            finite = np.isfinite(chunk)
            # count_nonzero rather than any/all: on a scalar's 0-d chunk it costs a third as much
            if not np.count_nonzero(in_disc) and np.count_nonzero(finite) == finite.size:
                return linalg.cauchy_sum(diff, modal.residues)
            near = in_disc.any(axis=-1) | ~finite
            out = np.empty(chunk.shape, dtype=complex)
            out[~near] = linalg.cauchy_sum(diff[~near], modal.residues)
            out[near] = _solve(self, chunk[near])  # a 0-d chunk in a disc: a batch of one
            return out

        return linalg.eval_chunked(hybrid, s)

    def __call__(self, s):
        return self.eval(s)

    def solve(self, s):
        """Evaluate the transfer function by the LU solve at every point, as :meth:`eval` near poles.

        Accurate to a few units of roundoff away from the poles, where the
        modal sum of :meth:`eval` may be off by u cond(V).
        """
        return linalg.eval_chunked(lambda chunk: _solve(self, chunk.reshape(-1)).reshape(chunk.shape), s)

    def poles_zeros(self) -> tuple[np.ndarray, np.ndarray]:
        """Poles and zeros by :func:`poles` and :func:`zeros`."""
        return poles(self), zeros(self)


def _solve(model: StateSpaceModel, chunk: np.ndarray) -> np.ndarray:
    """C (sE - A)^{-1} B at each point of the 1-D ``chunk`` by one batched LU solve.

    A non-finite point, or a solve that overflows, gets the IEEE result of the arithmetic, without a warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if model.order == 1:
            # numpy's batched solve rounds a 1 x 1 system differently in a batch of one
            pencil = chunk * model.E[0, 0] - model.A[0, 0]
            if np.any(pencil == 0):
                bad = complex(chunk[np.argmax(pencil == 0)])
                raise PoleError(f"sE - A is singular at s = {bad}", point=bad)
            return model.C[0] * (model.B[0] / pencil)
        mats = np.multiply.outer(chunk, model.E)  # one r x r x chunk array, no temporary
        mats -= model.A
        try:
            xs = np.linalg.solve(mats, np.broadcast_to(model.B[:, None], (chunk.size, model.order, 1)))
        except np.linalg.LinAlgError:
            bad = _first_singular_point(model, chunk)
            raise PoleError(f"sE - A is singular at s = {bad}", point=bad) from None
        return (model.C[None, None, :] @ xs)[:, 0, 0]


def _first_singular_point(model: StateSpaceModel, chunk: np.ndarray) -> complex:
    for s in chunk:
        try:
            np.linalg.solve(s * model.E - model.A, model.B)
        except np.linalg.LinAlgError:
            return complex(s)
    return complex(chunk[0])


#: Unit roundoff of double precision.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass
class ModalForm:
    """Pole-residue form ``H(s) = sum_i residues[i] / (s - poles[i])`` of a state-space model.

    ``radii[i]`` bounds the disc around ``poles[i]`` where
    :meth:`StateSpaceModel.eval` keeps the LU solve.
    """

    poles: np.ndarray
    residues: np.ndarray
    radii: np.ndarray


def modal_form(model: StateSpaceModel) -> ModalForm | None:
    """The modal form of ``model``, or None where the LU solve must serve every point.

    With the left and right eigenvectors w_i, v_i of the pencil (A, E),

        poles[i] = lambda_i,   residues[i] = (C v_i)(w_i^H B) / (w_i^H E v_i)

    (Antoulas, Lefteriu and Ionita, *A tutorial introduction to the Loewner
    framework*, 2017).  The QZ algorithm returns the exact eigenvalues of a
    pencil perturbed by about ``r u |A|_F`` and ``r u |E|_F`` (u the unit
    roundoff), so each pole is known to within the first-order bound
    ``delta_i = r u kappa_i (|A|_F + |lambda_i| |E|_F)``, with kappa_i the
    eigenvalue condition number.  There is no modal form (None) when:

    - an eigenvalue is infinite or near-infinite:
      ``sqrt(u) |lambda_i| |E|_F >= |A|_F``, where its term is constant to
      half of the working digits across the pencil's own scale.  A singular
      E carries a constant part that way, which the LU solve represents and
      a pole-residue sum does not;
    - the pencil is nearly defective: two poles lie within
      ``delta_i + delta_j`` of each other, so their eigenvectors are not
      determined;
    - the eigenvector matrices are badly conditioned: ``u cond(V)`` or
      ``u cond(W)`` exceeds ``sqrt(u)``, where the residues would keep
      fewer than half of the working digits;
    - no disc radii make the sum match the LU solve (below).

    Each pole keeps the LU solve within ``radii[i]`` of it.  The radius
    starts at ``|residues[i]| / sum_{j != i} |residues[j]| / |poles[i] - poles[j]|``,
    the distance within which pole i's own term outweighs the bound on
    the rest of the sum at that pole.  Inside it |H| grows like
    1/|s - poles[i]|, and so does the absolute error of the modal sum,
    whose relative error does not shrink near a pole: on the 1/J0
    benchmark it is about 1e-12 (u cond(V)), where the LU solve gives
    1e-16 to 1e-14.  The radii are then checked against the LU solve at
    the four points ``poles[i] + radii[i] * {1, i, -1, -i}`` of every
    circle that lie outside the other discs.  Where the sum misses the
    solve by more than ``sqrt(u)`` times the sum of its terms' magnitudes
    (fewer than half of the working digits kept; the sum of magnitudes
    rather than |H|, because far from the data H may be small by
    cancellation only), the disc doubles of the pole whose term carries
    the largest first-order error there, ``|residues[j]| delta_j / |s -
    poles[j]|^2``, and the check repeats.  So poles with a large eigenvalue
    condition number get the larger discs: the sum's error near them
    decays only away from them.  A disc that would have to grow past the
    span of the poles, or a zero disc (a pole without residue) that would
    have to grow, means there is no usable modal form.

    The checked discs are wider than accuracy needs.  The sum's miss
    |sum - solve| keeps the level it has far from every pole until close
    to a pole, and grows like 1/|s - poles[i]|^2 only there (within about
    0.05 of the poles on the 1/J0 benchmark's fits; farther out it stays
    below their dense maxima).  So each finite, nonzero radius then
    halves for as long as the sum's largest miss at the eight probes
    ``poles[i] + radius * exp(2 pi i k / 8)`` of the halved circle that lie
    outside the other discs stays within twice its largest miss at those
    probes of the checked circle.  The LU solve keeps only the region
    where the sum is less accurate than at the checked disc's edge: on
    order-11 fits of the 1/J0 benchmark, radii of 0.008 to 0.44 around
    the poles in the rectangle, against 0.5 to 0.9 checked.  A disc stops shrinking
    when no probe of its halved circle lies outside the other discs, when
    its halved radius would not exceed ``delta_i``, or when a probe hits a
    singular sE - A.
    """
    r = model.order
    u = _UNIT_ROUNDOFF
    with np.errstate(all="ignore"):  # infinite eigenvalues are handled below
        try:
            lam, left, right = scipy.linalg.eig(model.A, model.E, left=True, right=True)
        except (scipy.linalg.LinAlgError, ValueError):  # no convergence, or non-finite entries
            return None
        scale = np.einsum("ij,ik,kj->j", left.conj(), model.E, right)  # w_i^H E v_i
        kappa = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0) / np.abs(scale)
        norm_a, norm_e = np.linalg.norm(model.A), np.linalg.norm(model.E)
        delta = r * u * kappa * (norm_a + np.abs(lam) * norm_e)
        if not (np.all(np.isfinite(lam)) and np.all(np.sqrt(u) * np.abs(lam) * norm_e < norm_a)):
            return None
        gaps = np.abs(lam[:, None] - lam[None, :])
        np.fill_diagonal(gaps, np.inf)
        if np.any(gaps <= delta[:, None] + delta[None, :]):
            return None
        if u * max(np.linalg.cond(right), np.linalg.cond(left)) > np.sqrt(u):
            return None
        residues = (model.C @ right) * (left.conj().T @ model.B) / scale
        rest = np.sum(np.abs(residues)[None, :] / gaps, axis=1)
        # a lone pole (r = 1) outweighs an empty rest everywhere
        radii = _checked_radii(model, lam, residues, delta,
                               np.nan_to_num(np.abs(residues) / rest, nan=np.inf, posinf=np.inf))
        if radii is None:
            return None
        radii = _shrunk_radii(model, lam, residues, delta, radii)
    return ModalForm(poles=lam, residues=residues, radii=radii)


#: Unit-circle offsets of the check's four probes and of the shrink step's eight on each circle.
_CHECK_PROBES = np.array([1, 1j, -1, -1j])
_SHRINK_PROBES = np.exp(2j * np.pi * np.arange(8) / 8)


def _circle_misses(model, poles, residues, radii, which, offsets):
    """Distances to every pole from the probes ``poles[which] + radii[which] * offsets``, and the misses.

    A miss is |sum - solve| at a probe that counts (finite, outside the other discs), -inf at the others.
    """
    probes = poles[which, None] + radii[which, None] * offsets
    diff = probes[..., None] - poles
    dist = np.abs(diff)
    inside = dist < radii
    inside &= np.arange(poles.size) != which[:, None, None]  # on its own circle
    keep = np.isfinite(probes) & ~np.any(inside, axis=-1)
    miss = np.full(probes.shape, -np.inf)
    miss[keep] = np.abs(linalg.cauchy_sum(diff[keep], residues) - _solve(model, probes[keep]))
    return dist, miss


def _checked_radii(model, poles, residues, delta, radii):
    """Grow ``radii`` until the modal sum matches the LU solve to sqrt(u) on every circle."""
    span = np.max(np.abs(poles[:, None] - poles[None, :]))
    while True:
        # a pole without a residue has a zero radius and no circle to probe
        try:
            dist, miss = _circle_misses(model, poles, residues, radii, np.flatnonzero(radii > 0), _CHECK_PROBES)
        except PoleError:
            return None
        keep = ~np.isneginf(miss)
        missed = ~(miss[keep] <= np.sqrt(_UNIT_ROUNDOFF) * np.sum(np.abs(residues) / dist[keep], axis=1))
        if not np.any(missed):
            return radii
        # blame the term with the largest first-order error from its pole's uncertainty
        blame = np.abs(residues) * delta / dist[keep][missed] ** 2
        grow = np.unique(np.argmax(np.nan_to_num(blame, nan=np.inf), axis=1))
        radii[grow] *= 2.0
        if not np.all((radii[grow] > 0) & (radii[grow] <= span)):
            return None


def _shrunk_radii(model, poles, residues, delta, radii):
    """Halve the finite, nonzero ``radii`` by the rule and with the stops given in :func:`modal_form`.

    Every round halves the discs still shrinking at once; the other discs
    a probe must lie outside are taken at their radii of that round.
    """
    shrinking = np.flatnonzero(np.isfinite(radii) & (radii > 0))

    def misses(trial, which):
        # the largest miss on each circle of `which`, and whether any of its probes counts
        miss = _circle_misses(model, poles, residues, trial, which, _SHRINK_PROBES)[1]
        return np.max(miss, axis=1), np.any(~np.isneginf(miss), axis=1)

    try:
        checked, counted = misses(radii, shrinking)
        bound = np.full(poles.size, np.nan)
        bound[shrinking] = 2.0 * checked
        shrinking = shrinking[counted & np.isfinite(checked)]
        while True:
            shrinking = shrinking[radii[shrinking] / 2.0 > delta[shrinking]]
            if not shrinking.size:
                return radii
            trial = radii.copy()
            trial[shrinking] /= 2.0
            miss, counted = misses(trial, shrinking)
            shrinking = shrinking[counted & (miss <= bound[shrinking])]
            radii[shrinking] = trial[shrinking]
    except PoleError:
        return radii


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

    ``shift`` is the real x of the one matrix x L - Ls that a sketched
    pencil is projected with, and ``singular_values`` are its leading
    singular values, used for order selection: the width of the sketch
    (``order + 20`` of them with ``order=``), or all ``min(q, k)`` where
    that matrix is small enough for a full SVD.  ``shift`` is None for a
    pencil small enough for the full SVD of the row concatenation [L, Ls];
    then ``singular_values`` are all of that matrix's.
    Y and X are the retained left/right projection blocks, kept so
    projected interpolation points can be formed later.
    """

    model: StateSpaceModel
    singular_values: np.ndarray
    Y: np.ndarray
    X: np.ndarray
    shift: float | None = None


def partition(samples: SampleSet, scheme: str = DEFAULTS["scheme"]) -> DataPartition:
    """Split samples into disjoint left/right sets, preserving conjugate closure.

    Conjugate pairs always land on one side together.  Schemes:

    - ``alternating``: conjugate groups alternate sides in input order.
    - ``half_split``: first half of the groups left, rest right.
    - ``epsilon_paired`` (default): groups are sorted lexicographically by
      (Re, Im) of their upper representative and adjacent groups go to
      opposite sides, so every left point has a right point at grid
      distance.  The first group of each adjacent pair becomes a right
      (column) point.

    Another scheme raises ``SettingError``; :func:`conjugate_groups` raises ``PartitionError``.
    """
    _check_scheme(scheme)
    pts = samples.points
    mates, leads = conjugate_groups(pts)

    position = np.arange(leads.size)
    if scheme == "epsilon_paired":
        leads = leads[np.lexsort((np.abs(pts[leads].imag), pts[leads].real))]
        # first of each adjacent pair -> right, second -> left
        left_sides = position % 2 == 1
    elif scheme == "alternating":
        left_sides = position % 2 == 0
    else:
        left_sides = position < (leads.size + 1) // 2

    left = group_members(mates, leads[left_sides])
    right = group_members(mates, leads[~left_sides])
    vals = samples.values
    return DataPartition(mu=pts[left], v=vals[left], lam=pts[right], w=vals[right])


def conjugate_groups(points) -> tuple[np.ndarray, np.ndarray]:
    """Each point's mate (:func:`conjugate_mates`) and the lowest index of each conjugate group, in order.

    ``PartitionError`` where the points are not conjugate-closed or form one group: neither splits in two.
    """
    try:
        mates = conjugate_mates(points)
    except SymmetryError as exc:
        raise PartitionError(f"cannot preserve conjugate closure: {exc}") from exc
    leads = np.flatnonzero(mates >= np.arange(mates.size))
    if leads.size < 2:
        raise PartitionError(f"{leads.size} conjugate group(s) cannot be split across two sides")
    return mates, leads


def _check_scheme(scheme) -> None:
    if scheme not in PARTITION_SCHEMES:
        raise SettingError(f"unknown partition scheme {scheme!r}; pick one of {PARTITION_SCHEMES}")


def build_pencil(part: DataPartition) -> LoewnerPencil:
    """Assemble the Loewner pencil from a partition by the divided-difference formulas.

    L and Ls are filled in blocks of rows, so the only pencil-sized arrays
    are L and Ls themselves.  :func:`truncate` uses the pencil's ``Ls`` as
    its work buffer and rebuilds it from ``(mu, V, lam, W)`` before it
    returns, so ``Ls`` must be the divided differences of the pencil's data,
    as this function makes it.  A point of ``mu`` equal to one of ``lam``
    raises ``PencilError`` naming the first such pair.
    """
    # mu[j] - lam[i] is 0 exactly where mu[j] == lam[i]
    coincident = np.isin(part.mu, part.lam)
    if coincident.any():
        j = int(np.argmax(coincident))
        i = int(np.argmax(part.lam == part.mu[j]))
        raise PencilError(f"coincident points: mu[{j}] == lam[{i}] == {part.mu[j]}")
    q, k = part.mu.size, part.lam.size
    L = np.empty((q, k), dtype=complex)
    Ls = np.empty((q, k), dtype=complex)
    _divided_differences(part.mu, part.v, part.lam, part.w, Ls, L)
    return LoewnerPencil(L=L, Ls=Ls, V=part.v.copy(), W=part.w.copy(), mu=part.mu.copy(),
                         lam=part.lam.copy())


def _divided_differences(mu, v, lam, w, Ls: np.ndarray, L: np.ndarray | None = None) -> None:
    """Write (mu v - lam w) / (mu - lam) into ``Ls`` and, if given, (v - w) / (mu - lam) into ``L``.

    One block of ``_PENCIL_ROWS`` rows at a time, each with its own
    differences mu - lam; every entry gets the bits of the formulas taken
    on whole matrices.  No point of ``mu`` may equal one of ``lam``.
    """
    top_mu, top_lam = mu * v, lam * w
    for lo in range(0, mu.size, _PENCIL_ROWS):
        rows = slice(lo, lo + _PENCIL_ROWS)
        diff = np.subtract.outer(mu[rows], lam)
        if L is not None:
            np.subtract.outer(v[rows], w, out=L[rows])
            L[rows] /= diff
        np.subtract.outer(top_mu[rows], top_lam, out=Ls[rows])
        Ls[rows] /= diff


def sylvester_residual(pencil: LoewnerPencil) -> tuple[float, float]:
    """Residuals of the two Sylvester identities the pencil satisfies by construction.

    Returns Frobenius norms of ``M L - L Lam - (V R - L_dir W)`` and
    ``M Ls - Ls Lam - (M V R - L_dir W Lam)``, each normalized by |Ls|.
    Values far above roundoff indicate a corrupted pencil.
    """
    M = pencil.mu[:, None]
    Lam = pencil.lam[None, :]
    # the direction vectors are all ones: V R = V[:, None] and L_dir W = W[None, :] by broadcasting
    scale = np.linalg.norm(pencil.Ls)
    r1 = np.linalg.norm(M * pencil.L - pencil.L * Lam - (pencil.V[:, None] - pencil.W[None, :]))
    r2 = np.linalg.norm(M * pencil.Ls - pencil.Ls * Lam
                        - ((pencil.mu * pencil.V)[:, None] - (pencil.W * pencil.lam)[None, :]))
    return r1 / scale, r2 / scale


def truncate(
    pencil: LoewnerPencil,
    order: int | None = None,
    tol: float | None = None,
) -> LoewnerReduction:
    """SVD-truncate the pencil to a state-space model.

    Exactly one of ``order`` (reduce to fixed order r) and ``tol`` (smallest
    r with ``sigma_{r+1}/sigma_1 <= tol``, sigma taken from the matrix that
    gives the projection, below) must be given.  With projectors Y (q x r)
    and X (k x r) the realization is E = -Y* L X, A = -Y* Ls X, B = Y* V,
    C = W X.

    A pencil is sketched where :func:`linalg.leading_svd` of [L, Ls] would
    not take the full SVD at the sketch's first width (``order + 20`` with
    ``order=``, 21 with ``tol=``).  Then Y and X are the leading left and
    right singular vectors of one matrix, x L - Ls (Mayo and Antoulas, *A
    framework for the solution of the generalized realization problem*,
    Linear Algebra Appl. 425, 2007).  The shift x is the real part of the
    partition point (mu, then lam; the first on ties) of smallest |value|,
    which lies far from the poles of the data; it is real, so
    conjugate-closed data give a conjugate-closed model.  If the data are
    those of a rational function of order n, x L - Ls has rank n, like the
    pencil, except where x lies on a pole of the data (only a real pole can
    hold a real x): there it loses a direction, so its n-th
    singular value falls to roundoff, ``order=n`` raises ``RankError`` and
    ``tol=`` picks a lower order.  With ``order=`` the sketch is
    ``order + 20`` wide; with ``tol=`` it starts 21 wide and doubles until
    its last singular value has dropped to ``tol`` (or the full SVD is
    taken), and Y and X come from that last sketch.

    x L - Ls is written over the pencil's own ``Ls``, in blocks of rows, so
    the fit holds no third pencil-sized array.  ``Ls`` is rebuilt from
    ``(mu, V, lam, W)`` by the formulas of :func:`build_pencil` before this
    function returns or raises, which gives back its bytes only if ``Ls``
    holds the divided differences of the pencil's data, as
    :func:`build_pencil` makes it.  Do not truncate one pencil from two
    threads at once, nor read its ``Ls`` from another thread meanwhile.

    A smaller pencil keeps the two-sided projection: Y from the full SVD of
    the row concatenation [L, Ls], X from the leading right singular vectors
    of the column stack [L; Ls], by a sketch ``order + 20`` wide of its
    adjoint (or its full SVD).  The recursive Loewner fit's pencils are of
    this size; its greedy ranking follows the last bits of its models.

    Every sketch is seeded afresh from a fixed seed on every call, so equal
    pencils give equal bytes.

    An ``order`` that is not an integer of at least 1 raises
    ``SettingError``; one above min(q, k) or above the numerical rank of
    the data raises ``RankError``.
    """
    if (order is None) == (tol is None):
        raise SettingError("specify exactly one of order= and tol=")
    q, k = pencil.shape
    if tol is not None and not 0.0 < tol < 1.0:
        raise SettingError("tol must lie in (0, 1)")
    if order is not None:
        check_count("order", order, 1)
        if order > min(q, k):
            raise RankError(f"order {order} exceeds min(q, k) = {min(q, k)}")
    rng = np.random.default_rng(_SKETCH_SEED)
    width = (1 if order is None else order) + _OVERSAMPLE
    if linalg.takes_full_svd((q, 2 * k), width):
        shift = None
        rows = linalg.svd(np.hstack([pencil.L, pencil.Ls]))
        sigma = rows.singular_values
        order = _checked_order(sigma, order, tol, min(q, k))
        Y = rows.U[:, :order]
        adjoint = np.hstack([pencil.L.conj().T, pencil.Ls.conj().T])  # of [L; Ls]
        X = linalg.leading_svd(adjoint, order + _OVERSAMPLE, rng).U[:, :order]
    else:
        shift = _shift(pencil)
        try:
            shifted = _shifted_svd(pencil, shift, width, tol, rng)
            sigma = shifted.singular_values
            order = _checked_order(sigma, order, tol, min(q, k))
        finally:
            _divided_differences(pencil.mu, pencil.V, pencil.lam, pencil.W, pencil.Ls)
        Y, X = shifted.U[:, :order], shifted.V[:, :order]
    Lh, Lsh, Vh, Wh = _project(pencil, Y, X)
    # -(Y* L X), not (-Y*) L X: the two differ in the sign of exact zeros
    model = StateSpaceModel(E=-Lh, A=-Lsh, B=Vh, C=Wh)
    return LoewnerReduction(model=model, singular_values=sigma, Y=Y, X=X, shift=shift)


def _checked_order(sigma: np.ndarray, order: int | None, tol: float | None, largest: int) -> int:
    """``order``, or the order up to ``largest`` that ``tol`` picks from ``sigma``.

    ``RankError`` where that order exceeds the numerical rank.
    """
    if sigma[0] == 0.0:
        raise RankError("pencil has rank zero: all samples identical?")
    if tol is not None:
        below = np.nonzero(sigma / sigma[0] <= tol)[0]
        order = int(below[0]) if below.size else largest
        order = max(1, min(order, largest))
    if sigma[order - 1] / sigma[0] < RANK_GUARD:
        numerical_rank = int(np.sum(sigma / sigma[0] >= RANK_GUARD))
        raise RankError(
            f"order {order} exceeds the numerical rank {numerical_rank} of the "
            f"data (sigma_{order}/sigma_1 = {sigma[order - 1] / sigma[0]:.2e}); "
            "reduce the order",
            rank=numerical_rank,
        )
    return order


def _shift(pencil: LoewnerPencil) -> float:
    """The real part of the partition point (mu, then lam; the first on ties) of smallest |value|."""
    points = np.concatenate([pencil.mu, pencil.lam])
    values = np.concatenate([pencil.V, pencil.W])
    return float(points[np.argmin(np.abs(values))].real)


def _shifted_svd(pencil: LoewnerPencil, shift: float, width: int, tol: float | None,
                 rng: np.random.Generator) -> linalg.SvdResult:
    """The leading singular triplets of x L - Ls, written over ``pencil.Ls`` in blocks of rows.

    The caller rebuilds ``pencil.Ls``.  With ``tol`` the sketch doubles
    from ``width`` until its last singular value has dropped to ``tol`` or
    the full SVD is taken.
    """
    shifted = pencil.Ls
    for lo in range(0, shifted.shape[0], _PENCIL_ROWS):
        rows = slice(lo, lo + _PENCIL_ROWS)
        np.subtract(np.multiply(pencil.L[rows], shift), shifted[rows], out=shifted[rows])
    while True:
        res = linalg.leading_svd(shifted, width, rng)
        sigma = res.singular_values
        if tol is None or sigma[-1] <= tol * sigma[0] or sigma.size == min(shifted.shape):
            return res
        width *= 2


def poles(model: StateSpaceModel) -> np.ndarray:
    """Poles of the model: finite generalized eigenvalues of (A, E)."""
    return linalg.finite_generalized_eigenvalues(model.A, model.E)


def zeros(model: StateSpaceModel) -> np.ndarray:
    """Zeros of the model by :func:`linalg.descriptor_zeros`.

    The zero feedthrough forces at least two eigenvalues of the bordered
    pencil to infinity, so a strictly proper model of order r has at most
    r - 1 finite zeros.
    """
    return linalg.descriptor_zeros(model.A, model.E, model.B, model.C, 0.0, 0.0)


def _project(pencil: LoewnerPencil, Y: np.ndarray, X: np.ndarray):
    """The projected data Y* L X, Y* Ls X, Y* V and W X."""
    Yh = Y.conj().T
    return Yh @ pencil.L @ X, Yh @ pencil.Ls @ X, Yh @ pencil.V, pencil.W @ X


def projected_points(pencil: LoewnerPencil, Y: np.ndarray, X: np.ndarray) -> ProjectedPoints:
    """Projected interpolation points of a reduction.

    With hatted quantities Lh = Y* L X, Lsh = Y* Ls X, Vh = Y* V,
    Ldh = Y* 1, Wh = W X, Rh = 1* X, the reduced data matrices satisfy

        Lsh - Lh LamHat = Vh Rh        Lsh - MuHat Lh = Ldh Wh

    and the projected points are the spectra of LamHat and MuHat, i.e. the
    finite generalized eigenvalues of (Lsh - Vh Rh, Lh) and
    (Lsh - Ldh Wh, Lh).  Both identities are verified to
    ``PROJECTION_RESIDUAL_TOL`` before eigenvalues are returned.
    """
    Lh, Lsh, Vh, Wh = _project(pencil, Y, X)
    Ldh = Y.conj().T @ np.ones(pencil.mu.size, dtype=complex)
    Rh = np.ones(pencil.lam.size, dtype=complex) @ X
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
    if max(res_r, res_l) > PROJECTION_RESIDUAL_TOL:
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
    a: int,
    n_steps: int,
    order: int = DEFAULTS["order"],
    scheme: str = DEFAULTS["scheme"],
) -> list[TrajectoryStep]:
    """Track projected interpolation points under grid densification.

    Step i samples an (i*a) x (i*a) structured grid (the ordinate count is
    bumped to the next odd integer so the real axis stays a grid row), fits
    at fixed ``order`` and records the projected points.  An ``a`` that is
    not an integer of at least 3 (the coarsest usable grid), an
    ``n_steps`` or ``order`` that is not an integer of at least 1, or an
    unknown ``scheme`` raises ``SettingError`` before the oracle is called.
    """
    check_count("a", a, 3)
    check_count("n_steps", n_steps, 1)
    check_count("order", order, 1)
    _check_scheme(scheme)
    steps: list[TrajectoryStep] = []
    for i in range(1, n_steps + 1):
        nx = i * a
        ny = i * a
        if domain.y_symmetric and ny % 2 == 0:
            ny += 1
        samples = sampling.sample_oracle(sampling.structured_grid(domain, nx, ny), oracle)
        pencil = build_pencil(partition(samples, scheme))
        reduction = truncate(pencil, order=order)
        proj = projected_points(pencil, reduction.Y, reduction.X)
        steps.append(TrajectoryStep(nx=nx, ny=ny, n_points=len(samples), projected=proj))
    return steps
