"""Sampling grids over a rectangle of the complex plane.

Two schemes are provided: a structured Cartesian grid and a seeded uniform
random cloud.  Both return points, conjugate-closed by construction so that
all fitted models can be real-symmetric; :func:`sample_oracle` makes them a
:class:`SampleSet`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PoleError, SampleError, SettingError, SymmetryError, check_count

CSV_HEADER = "re_s,im_s,re_f,im_f"


def write_csv(path, meta: str | None, header: str, rows, comments=()) -> None:
    """Write a CSV file: ``# meta`` (if given), ``# comment`` lines, header, rows.

    ``rows`` are the data lines, already formatted, without newlines.
    """
    with open(path, "w") as fh:
        for line in ([meta] if meta else []) + list(comments):
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


@dataclass(frozen=True)
class Domain:
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max] in C.

    Bounds that are not finite or enclose no area raise ``SettingError``.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.x_min, self.x_max, self.y_min, self.y_max])):
            raise SettingError(f"domain bounds must be finite, got {self}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise SettingError(f"degenerate domain {self}")

    @property
    def y_symmetric(self) -> bool:
        return self.y_min == -self.y_max

    def contains(self, s, margin: float = 0.0):
        """Whether points lie inside the rectangle, at least ``margin`` from the edge."""
        s = np.asarray(s)
        return (
            (s.real >= self.x_min + margin)
            & (s.real <= self.x_max - margin)
            & (s.imag >= self.y_min + margin)
            & (s.imag <= self.y_max - margin)
        )


#: The benchmark rectangle.
OMEGA = Domain(0.0, 10.0, -1.0, 1.0)


@dataclass
class SampleSet:
    """Ordered sample points and their function values.

    Points that are not a 1-D array, an empty set, a repeated point,
    values of another shape than the points, or a point or value that is
    NaN or infinite raises ``SampleError``.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        if self.points.ndim != 1:
            raise SampleError(f"sample points must be a 1-D array, got shape {self.points.shape}")
        if self.points.size == 0:
            raise SampleError("sample set has no points")
        _require_finite(self.points, "point(s)")
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.points.shape:
            raise SampleError("values shape differs from points shape")
        _require_finite(self.values, "value(s)")
        if len(np.unique(self.points)) != self.points.size:
            raise SampleError("duplicate sample points")

    def __len__(self) -> int:
        return self.points.size

    def to_csv(self, path, meta: str | None = None) -> None:
        write_csv(path, meta, CSV_HEADER, (
            f"{p.real:.17g},{p.imag:.17g},{v.real:.17g},{v.imag:.17g}"
            for p, v in zip(self.points, self.values)
        ))

    @classmethod
    def from_csv(cls, path) -> "SampleSet":
        rows = []
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#") or line.lower().startswith("re_s"):
                    continue
                try:
                    row = [float(t) for t in line.split(",")]
                except ValueError:
                    row = []
                if len(row) != 4:
                    raise SampleError(f"{path}:{lineno}: expected four numbers {CSV_HEADER}, got {line!r}")
                rows.append(row)
        if not rows:
            raise SampleError(f"{path}: no sample rows")
        data = np.asarray(rows)
        points = data[:, 0] + 1j * data[:, 1]
        values = data[:, 2] + 1j * data[:, 3]
        return cls(points=points, values=values)


def _require_finite(arr: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise SampleError(
            f"{bad.size} sample {what} not finite, the first at index {bad[0]}: {arr[bad[0]]}"
        )


def conjugate_mates(points) -> np.ndarray:
    """Index of each point's exact conjugate in ``points``; a real point is its own mate.

    One stable sort and a binary search.  Raises ``SymmetryError`` when a
    point's conjugate is not in the set and ``SampleError`` when a point is
    repeated.
    """
    points = np.asarray(points, dtype=complex)
    order = np.argsort(points, kind="stable")
    ranked = points[order]
    if np.any(ranked[1:] == ranked[:-1]):
        raise SampleError("duplicate sample points")
    target = points.conj()
    mates = order[np.minimum(np.searchsorted(ranked, target), points.size - 1)]
    stray = np.flatnonzero(points[mates] != target)
    if stray.size:
        raise SymmetryError(f"point {points[stray[0]]} has no conjugate mate in the set")
    return mates


def group_members(mates: np.ndarray, leads) -> np.ndarray:
    """Sample indices of the conjugate groups led by ``leads``, group by group.

    Each lead is followed by its mate unless the lead is real.  The leads
    of all groups, in input order, are ``np.flatnonzero(mates >= np.arange(mates.size))``.
    """
    leads = np.asarray(leads, dtype=int)
    members = np.stack([leads, mates[leads]], axis=1)
    keep = np.stack([np.ones(leads.size, dtype=bool), members[:, 1] != leads], axis=1)
    return members[keep]


def _symmetric_linspace(lo: float, hi: float, n: int) -> np.ndarray:
    # For y-symmetric ranges build the negative half by negation so the grid
    # is conjugate-closed to the bit.
    if lo == -hi and n % 2 == 1:
        upper = np.linspace(0.0, hi, (n + 1) // 2)
        return np.concatenate([-upper[:0:-1], upper])
    return np.linspace(lo, hi, n)


def structured_grid(domain: Domain, nx: int, ny: int) -> np.ndarray:
    """Cartesian product of nx equispaced abscissae and ny ordinates, abscissa-major.

    For a y-symmetric domain ``ny`` must be odd so the real axis is a grid
    row and conjugate closure is exact; an even ``ny`` raises
    ``SymmetryError``, and an nx or ny that is not an integer of at least 2
    ``SettingError``.
    """
    check_count("nx", nx, 2)
    check_count("ny", ny, 2)
    if domain.y_symmetric and ny % 2 == 0:
        raise SymmetryError(
            f"ny = {ny} is even: the real axis would not be a grid row and "
            "conjugate pairing would be inexact; use odd ny"
        )
    xs = np.linspace(domain.x_min, domain.x_max, nx)
    ys = _symmetric_linspace(domain.y_min, domain.y_max, ny)
    return (xs[:, None] + 1j * ys[None, :]).ravel()


def uniform_random_grid(domain: Domain, n_pairs: int, seed: int) -> np.ndarray:
    """``n_pairs`` points uniform over the open upper half of the domain plus conjugates.

    Ordinates are drawn in (0, y_max], so no sample lands on the real axis
    and the result is exactly 2 * n_pairs points, interleaved as
    (p0, conj p0, p1, conj p1, ...).  Fully determined by ``seed``; an
    ``n_pairs`` that is not an integer of at least 1, or a seed that is not
    an integer of at least 0, raises ``SettingError``.
    """
    check_count("n_pairs", n_pairs, 1)
    check_count("seed", seed, 0)
    if not domain.y_symmetric:
        raise SymmetryError(
            "uniform_random_grid mirrors the upper half plane; the domain "
            "must satisfy y_min == -y_max"
        )
    rng = np.random.default_rng(seed)
    xs = rng.uniform(domain.x_min, domain.x_max, n_pairs)
    # 1 - U maps [0, 1) to (0, 1]; keeps every ordinate strictly positive
    ys = domain.y_max * (1.0 - rng.uniform(0.0, 1.0, n_pairs))
    upper = xs + 1j * ys
    points = np.empty(2 * n_pairs, dtype=complex)
    points[0::2] = upper
    points[1::2] = np.conj(upper)
    return points


def sample_oracle(points, oracle) -> SampleSet:
    """The sample set of ``oracle`` at ``points``, from one vectorised call.

    ``oracle`` maps the point array to values of the same shape; another
    shape raises ``SampleError``.  Conjugate pairs carry conjugate values
    whenever the oracle is conjugate-symmetric, as the Bessel oracle is
    exactly.  A non-finite point is a ``SampleError``, raised before the
    oracle is called; a non-finite value is a ``PoleError`` with the point
    attached.
    """
    points = np.asarray(points, dtype=complex)
    _require_finite(points, "point(s)")
    values = np.asarray(oracle(points), dtype=complex)
    nonfinite = ~np.isfinite(values)
    if values.shape == points.shape and nonfinite.any():
        bad = points[nonfinite][0]
        raise PoleError(f"oracle returned a non-finite value at s = {bad}", point=complex(bad))
    return SampleSet(points, values)
