"""Sampling grids over a rectangle of the complex plane.

Two schemes are provided: a structured Cartesian grid and a seeded uniform
random cloud.  Both enforce conjugate closure by construction so that all
fitted models can be real-symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import PoleError, SampleError, SymmetryError

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
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max] in C."""

    x_min: float = 0.0
    x_max: float = 10.0
    y_min: float = -1.0
    y_max: float = 1.0

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError(f"degenerate domain {self}")

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
    """Ordered sample points with optional function values.

    ``symmetric`` records that the point multiset is closed under complex
    conjugation; generators below guarantee it by construction.  An empty
    set, or a point or value that is NaN or infinite, raises ``SampleError``.
    """

    points: np.ndarray
    values: np.ndarray | None = None
    symmetric: bool = False
    seed: int | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=complex)
        if self.points.size == 0:
            raise SampleError("sample set has no points")
        _require_finite(self.points, "point(s)")
        if self.values is not None:
            self.values = np.asarray(self.values, dtype=complex)
            if self.values.shape != self.points.shape:
                raise ValueError("values shape differs from points shape")
            _require_finite(self.values, "value(s)")
        if len(np.unique(self.points)) != self.points.size:
            raise ValueError("duplicate sample points")

    def __len__(self) -> int:
        return self.points.size

    def with_values(self, values) -> "SampleSet":
        return replace(self, values=np.asarray(values, dtype=complex))

    def to_csv(self, path, meta: str | None = None) -> None:
        if self.values is None:
            raise ValueError("sample set has no values to write")
        write_csv(path, meta, CSV_HEADER, (
            f"{p.real:.17g},{p.imag:.17g},{v.real:.17g},{v.imag:.17g}"
            for p, v in zip(self.points, self.values)
        ))

    @classmethod
    def from_csv(cls, path) -> "SampleSet":
        rows = []
        seed = None
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    for tok in line[1:].split():
                        if tok.startswith("seed=") and tok != "seed=none":
                            seed = int(tok[5:])
                    continue
                if line.lower().startswith("re_s"):
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
        symmetric = _is_conjugate_closed(points)
        return cls(points=points, values=values, symmetric=symmetric, seed=seed)


def _require_finite(arr: np.ndarray, what: str) -> None:
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise SampleError(
            f"{bad.size} sample {what} not finite, the first at index {bad[0]}: {arr[bad[0]]}"
        )


def _is_conjugate_closed(points: np.ndarray) -> bool:
    keys = {(p.real, p.imag) for p in points}
    return all((p.real, -p.imag) in keys for p in points)


def conjugate_groups(points: np.ndarray, order=None) -> list[tuple[int, ...]]:
    """Group indices so each group is a real singleton or an exact conjugate pair.

    ``order`` optionally gives the index sequence in which groups are formed
    (default: input order).  Raises ``SymmetryError`` when a non-real point
    has no conjugate mate.
    """
    points = np.asarray(points, dtype=complex)
    mates: dict[tuple[float, float], list[int]] = {}
    for i, p in enumerate(points):
        mates.setdefault((p.real, p.imag), []).append(i)
    taken = np.zeros(points.size, dtype=bool)
    groups: list[tuple[int, ...]] = []
    for i in np.arange(points.size) if order is None else order:
        if taken[i]:
            continue
        p = points[i]
        taken[i] = True
        if p.imag == 0.0:
            groups.append((int(i),))
            continue
        candidates = [j for j in mates.get((p.real, -p.imag), ()) if not taken[j]]
        if not candidates:
            raise SymmetryError(f"point {p} has no conjugate mate in the set")
        j = candidates[0]
        taken[j] = True
        groups.append((int(i), int(j)))
    return groups


def _symmetric_linspace(lo: float, hi: float, n: int) -> np.ndarray:
    # For y-symmetric ranges build the negative half by negation so the grid
    # is conjugate-closed to the bit.
    if lo == -hi and n % 2 == 1:
        upper = np.linspace(0.0, hi, (n + 1) // 2)
        return np.concatenate([-upper[:0:-1], upper])
    return np.linspace(lo, hi, n)


def structured_grid(domain: Domain = OMEGA, nx: int = 101, ny: int = 21) -> SampleSet:
    """Cartesian product of nx equispaced abscissae and ny ordinates.

    For a y-symmetric domain ``ny`` must be odd so the real axis is a grid
    row and conjugate closure is exact; an even ``ny`` raises
    ``SymmetryError``.  Values are left unset.
    """
    if nx < 2 or ny < 2:
        raise ValueError("structured grid needs nx >= 2 and ny >= 2")
    symmetric = domain.y_symmetric
    if symmetric and ny % 2 == 0:
        raise SymmetryError(
            f"ny = {ny} is even: the real axis would not be a grid row and "
            "conjugate pairing would be inexact; use odd ny"
        )
    xs = np.linspace(domain.x_min, domain.x_max, nx)
    ys = _symmetric_linspace(domain.y_min, domain.y_max, ny)
    points = (xs[:, None] + 1j * ys[None, :]).ravel()
    return SampleSet(points=points, symmetric=symmetric)


def uniform_random_grid(domain: Domain = OMEGA, n_pairs: int = 1000, seed: int = 0) -> SampleSet:
    """``n_pairs`` points uniform over the open upper half of the domain plus conjugates.

    Ordinates are drawn in (0, y_max], so no sample lands on the real axis
    and the result is exactly 2 * n_pairs points, interleaved as
    (p0, conj p0, p1, conj p1, ...).  Fully determined by ``seed``.
    """
    if n_pairs < 1:
        raise ValueError("need n_pairs >= 1")
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
    return SampleSet(points=points, symmetric=True, seed=seed)


def sample_oracle(samples: SampleSet, oracle) -> SampleSet:
    """Fill ``samples.values`` with ``oracle(point)`` for every point.

    The oracle may be vectorised (preferred) or scalar-only.  Conjugate
    pairs carry conjugate values whenever the oracle itself is
    conjugate-symmetric, which holds for the shipped Bessel oracle exactly.
    A ``PoleError`` raised by the oracle propagates with the offending
    point attached.
    """
    try:
        values = np.asarray(oracle(samples.points), dtype=complex)
        if values.shape != samples.points.shape:
            raise TypeError
    except PoleError:
        raise
    except TypeError:
        values = np.array([oracle(p) for p in samples.points], dtype=complex)
    if not np.all(np.isfinite(values)):
        bad = samples.points[~np.isfinite(values)][0]
        raise PoleError(f"oracle returned a non-finite value at s = {bad}", point=complex(bad))
    return samples.with_values(values)
