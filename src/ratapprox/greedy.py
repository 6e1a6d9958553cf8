"""Recursive (greedy) Loewner fitting.

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
from .sampling import SampleSet, conjugate_mates, group_members

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
    solve, :meth:`StateSpaceModel.solve`), moves the
    worst conjugate group to the left set and the second worst to the right
    set (keeping closure), and refits.  Stops when every measurement is used
    or when the selection error stagnates after the target order is reached,
    and returns the model fitted to the final sets.
    Ties are broken towards the lowest sample index, so the procedure is a
    pure function of (samples, order_target, seed).

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
    n_groups = leads.size
    if n_groups < 2:
        raise InsufficientDataError("need at least two conjugate groups")
    group_of = np.empty(pts.size, dtype=int)
    group_of[leads] = group_of[mates[leads]] = np.arange(n_groups)

    rng = np.random.default_rng(seed)
    first, second = (int(g) for g in rng.choice(n_groups, size=2, replace=False))
    left_groups = [first]
    right_groups = [second]
    unused = np.setdiff1d(np.arange(n_groups), [first, second])

    history: list[GreedyStep] = []
    best_error = np.inf
    stall = 0
    while True:
        left_idx = group_members(mates, leads[left_groups])
        right_idx = group_members(mates, leads[right_groups])
        model, order = _fit_current(pts, vals, left_idx, right_idx, order_target)
        if not unused.size or stall >= STALL_STEPS:
            return GreedyResult(model=model, history=history,
                                left_points=pts[left_idx], right_points=pts[right_idx])
        unused_idx = group_members(mates, leads[unused])
        # the ranking below needs the LU solve's accuracy: late in the fit the
        # errors of different groups agree to more digits than the modal sum keeps
        pred = model.solve(pts[unused_idx])
        err = np.abs(pred - vals[unused_idx])
        # worst error of each group, NaN ignored; rank by error, ties to the lower group
        worst_of_group = np.zeros(n_groups)
        np.fmax.at(worst_of_group, group_of[unused_idx], err)
        ranked = unused[np.lexsort((unused, -worst_of_group[unused]))][:2]
        max_error = float(worst_of_group[ranked[0]])
        left_groups.append(int(ranked[0]))
        right_groups += ranked[1:].tolist()
        unused = np.setdiff1d(unused, ranked)
        history.append(
            GreedyStep(
                step=len(history) + 1,
                n_left=len(left_idx),
                n_right=len(right_idx),
                max_error=max_error,
                chosen=tuple(pts[leads[ranked]].tolist()),
            )
        )
        if order >= order_target:
            if max_error > best_error * STALL_FACTOR:
                stall += 1
            else:
                stall = 0
            best_error = min(best_error, max_error)


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
