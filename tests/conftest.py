"""Shared fixtures and synthetic-data helpers."""

from __future__ import annotations

import numpy as np
import pytest

from ratapprox import OMEGA, h_of_s, sample_oracle, structured_grid


def make_rational(degree: int, seed: int, with_offset: bool = False):
    """Random strictly-proper rational with conjugate-closed poles/residues.

    Poles are kept away from the benchmark rectangle so sampling there never
    hits one.  Returns (callable, poles, residues, offset).
    """
    rng = np.random.default_rng(seed)
    n_pairs = degree // 2
    poles = []

    def well_separated(candidate):
        return all(abs(candidate - q) >= 1.0 for q in poles)

    for _ in range(n_pairs):
        # just above the sampling window [0, 10] x [-1, 1]: close enough to
        # stay well observable, far enough to keep sample values moderate;
        # clustered poles are rejected because they make recovery ill
        # conditioned
        while True:
            p = complex(rng.uniform(1.0, 9.0), rng.uniform(1.6, 4.0))
            if well_separated(p):
                break
        poles.extend([p, p.conjugate()])
    if degree % 2:
        while True:
            p = complex(rng.uniform(-3.0, -1.0), 0.0)
            if well_separated(p):
                break
        poles.append(p)
    residues = []
    for p in poles:
        if p.imag > 0:
            c = complex(rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0))
            residues.append(c)
        elif p.imag < 0:
            residues.append(residues[-1].conjugate())
        else:
            residues.append(complex(rng.uniform(0.5, 2.0), 0.0))
    poles = np.array(poles)
    residues = np.array(residues)
    offset = float(rng.uniform(0.5, 1.5)) if with_offset else 0.0

    def f(s):
        s = np.asarray(s, dtype=complex)
        return (1.0 / (s[..., None] - poles)) @ residues + offset

    return f, poles, residues, offset


def conjugate_state_space(degree: int, seed: int):
    """A dense descriptor realization of :func:`make_rational`'s function, and that function.

    E = T1 T2 and A = T1 diag(poles) T2 with random factors of condition
    number at most 10, so the pencil is not diagonal but its eigenvectors
    are well conditioned.  Returns (model, callable, poles, residues).
    """
    from ratapprox.loewner import StateSpaceModel

    f, poles, residues, _ = make_rational(degree, seed)
    rng = np.random.default_rng(seed + 2)
    r = poles.size

    def factor():
        q, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
        return q * rng.uniform(1.0, 10.0, r)

    t1, t2 = factor(), factor()
    b = rng.uniform(0.5, 2.0, r) + 0j
    model = StateSpaceModel(E=t1 @ t2, A=t1 @ np.diag(poles) @ t2, B=t1 @ b,
                            C=(residues / b) @ t2)
    return model, f, poles, residues


def rational_samples(degree: int, seed: int, n_pairs: int = 24, with_offset: bool = False):
    """Conjugate-closed samples of a random rational, off the real axis."""
    f, poles, residues, offset = make_rational(degree, seed, with_offset)
    rng = np.random.default_rng(seed + 1)
    upper = rng.uniform(0.0, 10.0, n_pairs) + 1j * rng.uniform(0.05, 1.0, n_pairs)
    pts = np.empty(2 * n_pairs, dtype=complex)
    pts[0::2] = upper
    pts[1::2] = np.conj(upper)
    return sample_oracle(pts, f), f, poles, residues, offset


def conjugate_closed(points, tol=1e-8):
    """Every point's conjugate appears in the set, to a relative tolerance."""
    points = np.asarray(points, dtype=complex)
    if points.size == 0:
        return True
    return all(
        np.min(np.abs(points - p.conjugate())) <= tol * (1.0 + abs(p)) for p in points
    )


#: Orders and tolerances that the 21 x 5 grid below supports, as ``compare_methods`` settings.
SMALL_FIT_SETTINGS = {
    "loewner": {"order": 8},
    "rloewner": {"order": 7},
    "aaa": {"order": 12, "tol": 1e-11},
    "vf": {"order": 8, "iters": 10},
}


@pytest.fixture(scope="session")
def small_bessel_samples():
    """A 21 x 5 structured grid with oracle values; enough for order ~8 fits."""
    return sample_oracle(structured_grid(OMEGA, 21, 5), h_of_s)


@pytest.fixture(scope="session")
def medium_bessel_samples():
    """A 41 x 9 structured grid; supports order 11 fits at ~1e-9 accuracy."""
    return sample_oracle(structured_grid(OMEGA, 41, 9), h_of_s)
