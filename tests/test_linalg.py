import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratapprox
from ratapprox import OMEGA, PencilError, PoleError, aaa, linalg, loewner, vectorfit
from ratapprox.analysis import oracle_grid
from ratapprox.linalg import (
    finite_generalized_eigenvalues,
    leading_svd,
    least_squares,
    pair_coefficients,
    pair_starts,
    real_pair_columns,
    smallest_singular_vector,
    svd,
)


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


class TestSvd:
    def test_identity(self):
        res = svd(np.eye(3))
        assert np.allclose(res.singular_values, [1.0, 1.0, 1.0])

    def test_complex_diagonal(self):
        res = svd(np.diag([3.0, 2.0j]))
        assert np.allclose(res.singular_values, [3.0, 2.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_reconstruction_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 201))
        cols = int(rng.integers(1, 201))
        a = random_complex(rng, rows, cols)
        res = svd(a)
        approx = res.U @ np.diag(res.singular_values) @ res.V.conj().T
        assert np.linalg.norm(a - approx) <= 1e-12 * np.linalg.norm(a)
        k = res.U.shape[1]
        assert np.linalg.norm(res.U.conj().T @ res.U - np.eye(k)) <= 1e-12 * rows
        assert np.linalg.norm(res.V.conj().T @ res.V - np.eye(k)) <= 1e-12 * cols
        assert np.all(np.diff(res.singular_values) <= 0)

    def test_many_small_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            a = random_complex(rng, int(rng.integers(1, 30)), int(rng.integers(1, 30)))
            res = svd(a)
            approx = res.U @ np.diag(res.singular_values) @ res.V.conj().T
            assert np.linalg.norm(a - approx) <= 1e-12 * max(1.0, np.linalg.norm(a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            svd(np.zeros((0, 3)))


class TestLeadingSvd:
    @staticmethod
    def decaying(rng, rows, cols):
        """A matrix with singular values 2^0, 2^-1, ... and random singular vectors."""
        k = min(rows, cols)
        u, _ = np.linalg.qr(random_complex(rng, rows, k))
        v, _ = np.linalg.qr(random_complex(rng, cols, k))
        return (u * 2.0 ** -np.arange(k)) @ v.conj().T, u, v

    @pytest.mark.parametrize("shape", [(120, 300), (300, 120)])
    def test_leading_triplets_match_full_svd(self, shape):
        rng = np.random.default_rng(5)
        a, u, v = self.decaying(rng, *shape)
        res = leading_svd(a, 30, np.random.default_rng(0))
        assert res.U.shape == (shape[0], 30) and res.V.shape == (shape[1], 30)
        full = svd(a).singular_values
        assert np.abs(res.singular_values[:10] - full[:10]).max() <= 1e-14
        # leading singular vectors agree up to a unit phase
        assert np.allclose(np.abs(np.sum(res.U[:, :10].conj() * u[:, :10], axis=0)), 1.0, atol=1e-12)
        assert np.allclose(np.abs(np.sum(res.V[:, :10].conj() * v[:, :10], axis=0)), 1.0, atol=1e-12)
        k = res.U.shape[1]
        assert np.linalg.norm(res.U.conj().T @ res.U - np.eye(k)) <= 1e-12
        assert np.linalg.norm(res.V.conj().T @ res.V - np.eye(k)) <= 1e-12

    def test_wide_sketch_falls_back_to_full_svd(self):
        a = random_complex(np.random.default_rng(6), 40, 90)
        rng = np.random.default_rng(0)
        res = leading_svd(a, 20, rng)
        full = svd(a)
        assert np.array_equal(res.singular_values, full.singular_values)
        assert np.array_equal(res.U, full.U)
        # the fallback draws nothing
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValueError):
            leading_svd(np.eye(4), 0, np.random.default_rng(0))


class TestLeastSquares:
    def test_identity_returns_rhs(self):
        b = np.array([1.0 + 2.0j, -3.0j, 0.5])
        x, sigma = least_squares(np.eye(3), b)
        assert np.allclose(x, b)
        assert np.array_equal(sigma, svd(np.eye(3)).singular_values)

    def test_consistent_overdetermined_system(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 12, 5)
        x_true = random_complex(rng, 5, 1).ravel()
        b = a @ x_true
        x, sigma = least_squares(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)
        assert np.array_equal(sigma, svd(a).singular_values)

    def test_rank_deficient_returns_minimum_norm(self):
        rng = np.random.default_rng(1)
        basis = random_complex(rng, 8, 2)
        a = np.hstack([basis, basis @ np.array([[1.0], [2.0]])])  # third column dependent
        b = random_complex(rng, 8, 1).ravel()
        x, sigma = least_squares(a, b)
        assert np.array_equal(sigma, svd(a).singular_values)
        # oracle: solve the full-rank subproblem by normal equations, then
        # distribute over the dependent column for the minimum-norm answer
        sub = basis
        y = np.linalg.solve(sub.conj().T @ sub, sub.conj().T @ b)
        # any solution has the same residual; min-norm x must not exceed the oracle norm
        assert np.linalg.norm(a @ x - b) <= np.linalg.norm(sub @ y - b) + 1e-12
        full = np.concatenate([y, [0.0]])
        assert np.linalg.norm(x) <= np.linalg.norm(full) + 1e-12

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            least_squares(np.ones((2, 3)), np.ones(2))


class TestSmallestSingularVector:
    def test_unit_norm_null_vector(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 10, 4)
        a[:, 3] = a[:, 0] + a[:, 1]  # force a null direction
        a = np.ascontiguousarray(a)
        v = smallest_singular_vector(a)
        assert np.isclose(np.linalg.norm(v), 1.0)
        assert np.linalg.norm(a @ v) <= 1e-12 * np.linalg.norm(a)


def determinant_polynomial_roots(m, n):
    """Scalarize det(m - z n) by 7-point interpolation and take its roots."""
    dim = m.shape[0]
    nodes = np.exp(2j * np.pi * np.arange(dim + 1) / (dim + 1)) * 2.0
    dets = np.array([np.linalg.det(m - z * n) for z in nodes])
    vander = np.vander(nodes, dim + 1, increasing=True)
    coeffs = np.linalg.solve(vander, dets)  # c_0 + c_1 z + ... + c_dim z^dim
    return np.roots(coeffs[::-1])


def match_distance(a, b):
    """Max over a of the distance to the closest member of b."""
    if len(a) == 0:
        return 0.0
    return max(np.min(np.abs(np.asarray(b) - x)) for x in np.asarray(a))


class TestGeneralizedEigenvalues:
    def test_diagonal_pencil(self):
        vals = finite_generalized_eigenvalues(np.diag([2.0, 3.0]), np.eye(2))
        assert np.allclose(sorted(vals.real), [2.0, 3.0])
        assert np.allclose(vals.imag, 0.0)

    def test_infinite_eigenvalue_dropped(self):
        vals = finite_generalized_eigenvalues(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
        assert vals.shape == (1,)
        assert np.isclose(vals[0], 1.0)

    def test_identically_singular_pencil_raises(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(PencilError):
            finite_generalized_eigenvalues(m, m.copy())

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_determinant_polynomial_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(rng, 6, 6)
        n = random_complex(rng, 6, 6)
        got = finite_generalized_eigenvalues(m, n)
        expected = determinant_polynomial_roots(m, n)
        assert got.size == 6
        assert match_distance(got, expected) <= 1e-8
        assert match_distance(expected, got) <= 1e-8

    def test_agrees_with_standard_eigenvalues(self):
        rng = np.random.default_rng(42)
        a = random_complex(rng, 10, 10)
        got = finite_generalized_eigenvalues(a, np.eye(10))
        expected = np.linalg.eigvals(a)
        assert match_distance(got, expected) <= 1e-10 * max(1.0, np.abs(expected).max())

    def test_finite_plus_infinite_counts(self):
        rng = np.random.default_rng(3)
        dim, n_inf = 7, 3
        n = np.diag(np.concatenate([np.ones(dim - n_inf), np.zeros(n_inf)]))
        q = random_complex(rng, dim, dim)
        z = random_complex(rng, dim, dim)
        vals = finite_generalized_eigenvalues(q @ random_complex(rng, dim, dim) @ z, q @ n @ z)
        assert vals.size == dim - n_inf

    @pytest.mark.parametrize("h", [0.0, 0.5])
    def test_descriptor_zeros_are_the_roots_of_the_numerator(self, h):
        # c (s - diag(p))^{-1} 1 + d + s h has the numerator
        # (d + s h) prod_j (s - p_j) + sum_k c_k prod_{j != k} (s - p_j)
        rng = np.random.default_rng(5)
        p, c, d = random_complex(rng, 1, 4)[0], random_complex(rng, 1, 4)[0], 0.7
        numerator = np.polyadd(np.polymul([h, d], np.poly(p)),
                               sum(ck * np.poly(np.delete(p, k)) for k, ck in enumerate(c)))
        got = linalg.descriptor_zeros(np.diag(p), np.eye(4), np.ones(4), c, d, h)
        expected = np.roots(numerator)
        assert got.size == expected.size == (5 if h else 4)
        assert match_distance(got, expected) <= 1e-10
        assert match_distance(expected, got) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_svd_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, int(rng.integers(2, 25)), int(rng.integers(2, 25)))
    res = svd(a)
    approx = res.U @ np.diag(res.singular_values) @ res.V.conj().T
    assert np.linalg.norm(a - approx) <= 1e-12 * max(1.0, np.linalg.norm(a))


class TestConjugatePairs:
    @settings(max_examples=50, deadline=None)
    @given(layout=st.lists(st.booleans(), min_size=1, max_size=12), seed=st.integers(0, 10_000))
    def test_columns_and_coefficients_agree(self, layout, seed):
        # layout: True a real entry, False an adjacent (z, conj z) pair
        real = np.concatenate([[True] if r else [False, False] for r in layout])
        starts = pair_starts(real)
        assert np.array_equal(starts, np.flatnonzero(~real)[::2])
        rng = np.random.default_rng(seed)
        cols = random_complex(rng, 7, real.size)
        p = rng.standard_normal(real.size)
        coeffs = pair_coefficients(p, starts)
        assert np.abs(real_pair_columns(cols, starts) @ p - cols @ coeffs).max() <= (
            1e-13 * np.abs(cols).max() * np.abs(p).sum()
        )
        assert np.array_equal(coeffs[starts + 1], coeffs[starts].conj())
        assert np.array_equal(coeffs[real], p[real])

    def test_unpaired_layout_rejected(self):
        with pytest.raises(ValueError):
            pair_starts([False, True, False])
        with pytest.raises(ValueError):
            pair_starts([True, False])


@pytest.fixture
def batches_of_7(monkeypatch):
    """Batches of 7 points."""
    monkeypatch.setattr(linalg, "_EVAL_CHUNK", 7)


def serial(evaluate, pts):
    """The reference: one single-batch call per batch, joined."""
    return np.concatenate([evaluate(pts[lo : lo + 7]) for lo in range(0, pts.size, 7)])


def three_model_forms():
    rng = np.random.default_rng(5)
    r = 4
    return [
        loewner.StateSpaceModel(E=random_complex(rng, r, r), A=random_complex(rng, r, r),
                                B=random_complex(rng, r, 1), C=random_complex(rng, r, 1)),
        aaa.BarycentricModel(support_points=random_complex(rng, 5, 1).ravel(),
                             support_values=random_complex(rng, 5, 1).ravel(),
                             weights=random_complex(rng, 5, 1).ravel()),
        vectorfit.PoleResidueModel(poles=random_complex(rng, r, 1).ravel(),
                                   residues=random_complex(rng, r, 1).ravel(), d=0.5, h=0.25),
    ]


def spiky_oracle(poles):
    """1/(s - 50), raising PoleError for any batch that holds one of ``poles``."""

    def oracle(s):
        s = np.asarray(s, dtype=complex)
        hit = np.isin(s, poles)
        if np.any(hit):
            raise PoleError("pole", point=complex(s[hit][0]) if s.ndim else complex(s))
        return 1.0 / (s - 50.0)

    return oracle


def test_cauchy_sum_gives_ieee_values_without_a_warning():
    # at 0.25 the two terms are 4e308 and -4e308: each overflows, and their sum is nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = linalg.cauchy_sum(np.array([0.25 + 0j, 5.0 + 0j])[:, None] - np.array([0.0, 0.5 + 0j]),
                                np.array([1e308, 1e308 + 0j]))
    assert np.isnan(got[0].real)
    assert abs(got[1] - (1e308 / 5.0 + 1e308 / 4.5)) <= 1e-15 * abs(got[1])


def test_cauchy_sum_of_a_stack_and_of_one_point_equal_its_rows_bitwise():
    rng = np.random.default_rng(7)
    pts = random_complex(rng, 50, 1).ravel()
    diff = pts[:, None] - random_complex(rng, 9, 1).ravel()
    stack = random_complex(rng, 2, 9)
    both = linalg.cauchy_sum(diff[..., None, :], stack)
    assert both.shape == (50, 2)
    for k in range(2):
        assert both[:, k].tobytes() == linalg.cauchy_sum(diff, stack[k]).tobytes()
    alone = np.array([linalg.cauchy_sum(row, stack[0]) for row in diff])
    assert alone.tobytes() == both[:, 0].tobytes()


FORMS = ["state_space", "barycentric", "pole_residue"]


class TestBatchedEval:
    @pytest.mark.parametrize("model", three_model_forms(), ids=FORMS)
    def test_equals_serial_loop_bitwise(self, batches_of_7, model):
        pts = random_complex(np.random.default_rng(6), 100, 1).ravel()
        got = model.eval(pts.reshape(4, 25))
        assert got.shape == (4, 25)
        assert got.ravel().tobytes() == serial(model.eval, pts).tobytes()
        # one-batch calls that straddle two batches of the call above, or hold one point
        assert model.eval(pts[3:10]).tobytes() == got.ravel()[3:10].tobytes()
        assert model.eval(pts[12:14].reshape(2, 1)).tobytes() == got.ravel()[12:14].tobytes()
        assert model.eval(complex(pts[40])) == got.ravel()[40]

    def test_one_batch_is_one_kernel_call(self, batches_of_7):
        calls = []

        def kernel(chunk):
            calls.append(chunk.size)
            return chunk.real  # a real result comes back complex

        got = linalg.eval_chunked(kernel, np.arange(6.0).reshape(2, 3))
        assert calls == [6]
        assert got.dtype == complex and got.shape == (2, 3)
        assert np.array_equal(got, np.arange(6.0).reshape(2, 3))
        assert linalg.eval_chunked(kernel, np.array([], dtype=complex)).shape == (0,)
        assert calls == [6]  # an empty input calls no kernel

    def test_oracle_grid_marks_only_the_poles(self, batches_of_7):
        # 11 x 3 grid over [0, 10] x [-1, 1]: 2 - 1j is index 2 (batch 0),
        # 5 + 0j is index 16 (batch 2); both batches are evaluated point by point
        poles = np.array([2 - 1j, 5 + 0j])
        grid = oracle_grid(spiky_oracle(poles), OMEGA, 11, 3)
        assert np.flatnonzero(grid.excluded).tolist() == [2, 16]
        assert np.flatnonzero(np.isnan(grid.values)).tolist() == [2, 16]
        kept = ~grid.excluded
        assert grid.values[kept].tobytes() == (1.0 / (grid.points[kept] - 50.0)).tobytes()

    def test_earliest_failing_batch_raises(self, batches_of_7):
        pts = np.arange(40, dtype=complex)
        # batch 1 (points 7..13) and batch 4 (points 28..34) fail
        with pytest.raises(PoleError) as info:
            linalg.eval_chunked(spiky_oracle([30, 10]), pts)
        assert info.value.point == 10

    def test_model_eval_as_oracle_equals_serial_run(self, batches_of_7):
        model = three_model_forms()[0]
        grid = oracle_grid(model.eval, OMEGA, 13, 9)
        assert grid.values.tobytes() == serial(model.eval, grid.points).tobytes()
        assert not grid.excluded.any()

    def test_every_batch_evaluated_once_in_order(self, monkeypatch):
        monkeypatch.setattr(linalg, "_EVAL_CHUNK", 3)
        seen = []

        def kernel(chunk):
            seen.append(int(chunk[0].real))
            return chunk * 2 + 1

        pts = np.arange(3000, dtype=complex)
        got = linalg.eval_chunked(kernel, pts)
        assert seen == list(range(0, 3000, 3))
        assert np.array_equal(got, pts * 2 + 1)


class TestScalarEval:
    """A scalar point goes to the kernel of its model form alone, on the calling thread."""

    @pytest.mark.parametrize("model", three_model_forms(), ids=FORMS)
    def test_scalar_equals_array_bitwise(self, model):
        pts = random_complex(np.random.default_rng(8), 300, 1).ravel()
        arr = model.eval(pts)
        alone = np.array([model.eval(complex(z)) for z in pts])
        assert alone.tobytes() == arr.tobytes()

    @pytest.mark.parametrize("kind", [complex, np.complex128, np.float64, int, np.asarray])
    @pytest.mark.parametrize("model", three_model_forms(), ids=FORMS)
    def test_every_scalar_type_gives_a_python_complex(self, model, kind):
        got = model.eval(kind(3))
        assert type(got) is complex
        assert np.array([got]).tobytes() == model.eval(np.array([3.0 + 0j])).tobytes()

    @pytest.mark.parametrize("model", three_model_forms(), ids=FORMS)
    def test_arrays_keep_their_shape(self, model):
        pts = random_complex(np.random.default_rng(9), 4, 5)
        got = model.eval(pts)
        assert got.shape == (4, 5) and got.dtype == complex
        assert got.tobytes() == model.eval(pts.ravel()).tobytes()
        assert model.eval(np.empty((0, 3), dtype=complex)).shape == (0, 3)

    @pytest.mark.parametrize("model", three_model_forms(), ids=FORMS)
    def test_a_scalar_reaches_the_kernel_once_as_a_0d_array(self, batches_of_7, monkeypatch, model):
        shapes = []
        eval_chunked = linalg.eval_chunked

        def spy(kernel, s):
            return eval_chunked(lambda chunk: (shapes.append(chunk.shape), kernel(chunk))[1], s)

        monkeypatch.setattr(linalg, "eval_chunked", spy)
        model.eval(np.arange(20, dtype=complex))
        assert shapes == [(7,), (7,), (6,)]  # the spy sees the batches of an array
        for z in (0.5 + 0.25j, np.complex128(2.0), np.asarray(1.5j)):
            shapes.clear()
            model.eval(z)
            assert shapes == [()]


NON_FINITE = [complex(np.nan, 0.0), complex(np.nan, 1.0), complex(np.inf, 0.0)]


def non_finite_cases():
    """(evaluate, check of the value at s = inf) for every form and evaluation path."""
    state_space, barycentric, pole_residue = three_model_forms()
    order_1 = loewner.StateSpaceModel(E=np.eye(1), A=np.array([[2j]]), B=np.ones(1), C=np.ones(1))
    return [
        (state_space.eval, np.isnan),  # a non-finite point takes the LU solve, as below
        (state_space.solve, np.isnan),  # inf * E has 0 * inf entries
        (order_1.eval, np.isnan),  # a lone pole's disc is the whole plane: the LU solve
        (barycentric.eval, lambda v: v == np.inf),  # the denominator is exactly zero
        (pole_residue.eval, lambda v: v.real == np.inf and np.isnan(v.imag)),  # s h with h > 0
    ]


@pytest.mark.parametrize(("evaluate", "at_infinity"), non_finite_cases(),
                         ids=["modal", "solve", "order_1", "barycentric", "pole_residue"])
def test_non_finite_points_give_ieee_values_without_a_warning(evaluate, at_infinity):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = np.array([evaluate(z) for z in NON_FINITE])
        arr = evaluate(np.array(NON_FINITE + [0.5 + 0.25j]))
    assert np.isnan(alone[:2]).all() and np.isnan(arr[:2]).all()
    assert at_infinity(alone[2]) and at_infinity(arr[2])
    assert np.isfinite(arr[3])


_THREAD_PROBE = """
import hashlib, os, sys
if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})  # before numpy sizes its BLAS pool
import numpy as np
from ratapprox import linalg, loewner
tasks = lambda: len(os.listdir("/proc/self/task"))
model = loewner.StateSpaceModel(E=np.eye(3), A=np.diag([1j, 2j, 3j]), B=np.ones(3), C=np.ones(3))
pts = np.linspace(0, 10, 5 * linalg._EVAL_CHUNK) + 0.5j
before = tasks()
vals = model.eval(pts)
print(tasks() - before, len(os.sched_getaffinity(0)), hashlib.sha256(vals.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task to count threads")
def test_evaluation_starts_no_thread_pinned_or_not():
    src = str(Path(ratapprox.__file__).resolve().parents[1])

    def probe(*args):
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", _THREAD_PROBE, *args], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        started, cpus, digest = done.stdout.split()
        return int(started), int(cpus), digest

    started, cpus, pinned_digest = probe(str(min(os.sched_getaffinity(0))))
    assert (started, cpus) == (0, 1)
    started, cpus, digest = probe()
    assert (started, cpus) == (0, len(os.sched_getaffinity(0)))
    assert digest == pinned_digest
