import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratapprox import PencilError
from ratapprox.linalg import (
    finite_generalized_eigenvalues,
    leading_svd,
    least_squares,
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
        assert np.allclose(least_squares(np.eye(3), b), b)

    def test_consistent_overdetermined_system(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 12, 5)
        x_true = random_complex(rng, 5, 1).ravel()
        b = a @ x_true
        x = least_squares(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_rank_deficient_returns_minimum_norm(self):
        rng = np.random.default_rng(1)
        basis = random_complex(rng, 8, 2)
        a = np.hstack([basis, basis @ np.array([[1.0], [2.0]])])  # third column dependent
        b = random_complex(rng, 8, 1).ravel()
        x = least_squares(a, b)
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
        vals = finite_generalized_eigenvalues(
            np.diag([1.0, 1.0]), np.diag([1.0, 0.0]), infinity_cutoff=1e6
        )
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


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_svd_reconstruction_property(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, int(rng.integers(2, 25)), int(rng.integers(2, 25)))
    res = svd(a)
    approx = res.U @ np.diag(res.singular_values) @ res.V.conj().T
    assert np.linalg.norm(a - approx) <= 1e-12 * max(1.0, np.linalg.norm(a))
