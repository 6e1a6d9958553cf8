"""Recursive (greedy) Loewner fitting, and the ranking and promotion step it shares with AAA.

Starts from one left and one right measurement and repeatedly promotes the
worst-approximated remaining samples into the interpolation sets, rebuilding
the reduced model after every step.  Rebuilding from scratch keeps the code
simple and is cheap at benchmark sizes; incremental pencil updates would be
an optimization, not a behavioural change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, PartitionError, RankError, SymmetryError, check_count
from .loewner import DataPartition, StateSpaceModel, build_pencil, truncate
from .sampling import SampleSet, conjugate_mates

#: The recursive Loewner fit's settings and their defaults, its row of
#: ``analysis.FIT_DEFAULTS``.
DEFAULTS = {"order": 11, "seed": 0}

#: Stop once the selection error has failed to halve this many steps in a row
#: (only after the target order is reachable).
STALL_STEPS = 5
STALL_FACTOR = 0.5


@dataclass
class GreedyStep:
    step: int
    n_left: int
    n_right: int
    max_error: float
    chosen: tuple[complex, ...]


@dataclass
class GreedyResult:
    model: StateSpaceModel
    history: list[GreedyStep]
    left_points: np.ndarray
    right_points: np.ndarray


def fit_greedy(
    samples: SampleSet,
    order_target: int = DEFAULTS["order"],
    seed: int = DEFAULTS["seed"],
) -> GreedyResult:
    """Greedy Loewner fit of the given target order.

    Each step evaluates the current model at all unused samples (by its LU
    solve, :meth:`StateSpaceModel.solve`), moves the worst conjugate group
    to the left set and the second worst to the right set, as :func:`rank`
    orders them without a band, and refits.  Stops when every measurement
    is used or when the selection error stagnates after the target order is
    reached, and returns the model fitted to the final sets.  The procedure
    is a pure function of (samples, order_target, seed).

    An ``order_target`` that is not an integer of at least 1, or a ``seed``
    that is not an integer of at least 0, raises ``SettingError``.
    """
    check_count("order", order_target, 1)
    check_count("seed", seed, 0)
    if len(samples) < 2 * order_target:
        raise InsufficientDataError(
            f"{len(samples)} samples cannot support order {order_target}; "
            f"need at least {2 * order_target}"
        )
    pts = samples.points
    vals = samples.values
    try:
        mates = conjugate_mates(pts)
    except SymmetryError as exc:
        raise PartitionError(f"cannot preserve conjugate closure: {exc}") from exc
    leads = np.flatnonzero(mates >= np.arange(pts.size))
    if leads.size < 2:
        raise InsufficientDataError("need at least two conjugate groups")

    left, right = [], []
    unused = np.ones(pts.size, dtype=bool)
    rng = np.random.default_rng(seed)
    promote((left, right), unused, mates, leads[rng.choice(leads.size, size=2, replace=False)])

    history: list[GreedyStep] = []
    best_error = np.inf
    stall = 0
    while True:
        model, order = _fit_current(pts, vals, left, right, order_target)
        rows = np.flatnonzero(unused)
        if not rows.size or stall >= STALL_STEPS:
            return GreedyResult(model=model, history=history, left_points=pts[left], right_points=pts[right])
        # the ranking needs the LU solve's accuracy: late in the fit the errors
        # of different groups agree to more digits than the modal sum keeps
        picks, max_error = rank(np.abs(model.solve(pts[rows]) - vals[rows]), rows, mates, count=2)
        history.append(GreedyStep(step=len(history) + 1, n_left=len(left), n_right=len(right),
                                  max_error=max_error, chosen=tuple(pts[picks].tolist())))
        promote((left, right), unused, mates, picks)
        if order >= order_target:
            stall = stall + 1 if max_error > best_error * STALL_FACTOR else 0
            best_error = min(best_error, max_error)


def rank(errors, rows, mates, count, band=0.0):
    """Up to ``count`` conjugate groups to promote, worst first, and the largest error.

    ``errors[i]`` is the error at sample ``rows[i]`` and ``mates[i]`` sample i's
    mate.  A group is named by its lowest sample index and scored by its worst
    member, NaN ignored (a group of NaN scores 0).  Each pick is the lowest
    group whose score lies within ``band`` (relative) of the largest still unpicked.
    """
    groups, slot = np.unique(np.minimum(rows, mates[rows]), return_inverse=True)
    scores = np.zeros(groups.size)
    np.fmax.at(scores, slot, errors)
    largest = float(scores.max())
    picks = []
    for _ in range(min(count, groups.size)):
        at = int(np.argmax(scores >= (1.0 - band) * scores.max()))
        picks.append(int(groups[at]))
        scores[at] = -np.inf
    return picks, largest


def promote(sides, unused, mates, picks):
    """Append ``picks[k]`` and its mate to ``sides[k]`` and mark both as used in ``unused``."""
    for side, pick in zip(sides, picks):
        group = [int(pick)] if mates[pick] == pick else [int(pick), int(mates[pick])]
        side += group
        unused[group] = False


def _fit_current(pts, vals, left_idx, right_idx, order_target):
    part = DataPartition(mu=pts[left_idx], v=vals[left_idx], lam=pts[right_idx], w=vals[right_idx])
    pencil = build_pencil(part)
    order = min(order_target, len(left_idx), len(right_idx))
    try:
        return truncate(pencil, order=order).model, order
    except RankError as exc:
        if exc.rank is None:
            raise
        rank = exc.rank
    # cap the interim order at the numerical rank so E stays invertible
    return truncate(pencil, order=rank).model, rank
