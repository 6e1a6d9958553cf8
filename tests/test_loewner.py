import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugate_closed, conjugate_state_space, rational_samples
import ratapprox
from ratapprox import (
    OMEGA,
    ComputationError,
    PartitionError,
    PencilError,
    PoleError,
    RankError,
    SampleError,
    SampleSet,
    SettingError,
    build_pencil,
    h_of_s,
    partition,
    poles,
    projected_points,
    sample_oracle,
    structured_grid,
    sylvester_residual,
    trajectory_study,
    truncate,
    zeros,
)
from ratapprox import analysis, linalg, loewner
from ratapprox.loewner import DataPartition, StateSpaceModel, modal_form


def real_samples(values_fn, pts):
    pts = np.asarray(pts, dtype=complex)
    return SampleSet(pts, values_fn(pts))


def match_distance(a, b):
    if len(a) == 0:
        return 0.0
    return max(np.min(np.abs(np.asarray(b) - x)) for x in np.asarray(a))


class TestPartition:
    def test_alternating_on_real_points(self):
        samples = real_samples(lambda s: 1.0 / (s + 1.0), [1.0, 2.0, 3.0, 4.0])
        part = partition(samples, "alternating")
        assert sorted(part.mu.real) == [1.0, 3.0]
        assert sorted(part.lam.real) == [2.0, 4.0]

    def test_conjugate_pair_stays_together(self):
        pts = np.array([2.0 + 1.0j, 2.0 - 1.0j, 1.0 + 0j, 3.0 + 0j])
        samples = real_samples(lambda s: 1.0 / (s + 12.0), pts)
        for scheme in ("alternating", "half_split", "epsilon_paired"):
            part = partition(samples, scheme)
            for side in (part.mu, part.lam):
                nonreal = side[side.imag != 0]
                assert sorted(map(tuple, zip(nonreal.real, nonreal.imag))) == sorted(
                    map(tuple, zip(nonreal.real, -nonreal.imag))
                )

    def test_benchmark_grid_partition_covers_everything(self):
        samples = sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s)
        part = partition(samples, "alternating")
        assert part.mu.size + part.lam.size == 2121
        assert not set(part.mu) & set(part.lam)

    def test_unknown_scheme_is_a_setting_error(self):
        samples, *_ = rational_samples(2, 7, n_pairs=4)
        with pytest.raises(SettingError, match="unknown partition scheme 'bogus'") as info:
            partition(samples, "bogus")
        assert isinstance(info.value, ValueError)

    def test_unpaired_complex_point_impossible(self):
        samples = SampleSet(np.array([1.0 + 1.0j, 2.0 + 0j]), np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(PartitionError):
            partition(samples)

    def test_single_conjugate_pair_impossible(self):
        samples = SampleSet(np.array([1.0 + 1.0j, 1.0 - 1.0j]), np.array([1.0 + 0j, 1.0 + 0j]))
        with pytest.raises(PartitionError):
            partition(samples)

    def test_epsilon_paired_neighbours_on_opposite_sides(self):
        pts = np.arange(1.0, 9.0)  # 1..8 on the real axis
        samples = real_samples(lambda s: 1.0 / (s + 20.0), pts)
        part = partition(samples, "epsilon_paired")
        # adjacent sorted points pair across sides at distance exactly 1
        assert max(np.min(np.abs(part.lam - mu)) for mu in part.mu) == 1.0


class TestPencil:
    def test_single_entry_formulas(self):
        part = DataPartition(mu=[2.0], v=[3.0], lam=[0.0], w=[1.0])
        pencil = build_pencil(part)
        assert pencil.L[0, 0] == pytest.approx(1.0)
        assert pencil.Ls[0, 0] == pytest.approx(3.0)

    def test_entries_against_direct_formula_with_oracle(self):
        mu, lam = np.array([1.0 + 0j]), np.array([2.0 + 0j])
        v, w = h_of_s(mu), h_of_s(lam)
        pencil = build_pencil(DataPartition(mu=mu, v=v, lam=lam, w=w))
        assert pencil.L[0, 0] == (v[0] - w[0]) / (mu[0] - lam[0])
        assert pencil.Ls[0, 0] == (mu[0] * v[0] - lam[0] * w[0]) / (mu[0] - lam[0])

    @pytest.mark.parametrize("field, bad", [("v", np.nan), ("w", np.inf), ("mu", complex(np.nan, 1.0)),
                                            ("lam", -np.inf)])
    def test_non_finite_partition_rejected(self, field, bad):
        data = {"mu": [1.0, 2.0], "v": [1.0, 0.5], "lam": [3.0, 4.0], "w": [0.3, 0.2]}
        data[field] = [data[field][0], bad]
        with pytest.raises(SampleError, match=field):
            DataPartition(**data)

    def test_partition_shape_mismatch_is_a_sample_error(self):
        with pytest.raises(SampleError):
            DataPartition(mu=[1.0, 2.0], v=[1.0], lam=[3.0], w=[1.0])

    def test_coincident_points_rejected(self):
        part = DataPartition(mu=[1.0, 2.0], v=[1.0, 1.0], lam=[2.0], w=[1.0])
        with pytest.raises(PencilError):
            build_pencil(part)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cross_ratio_identities(self, seed):
        rng = np.random.default_rng(seed)
        q, k = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        mu = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        lam = 10.0 + rng.standard_normal(k) + 1j * rng.standard_normal(k)
        v = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        w = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        pencil = build_pencil(DataPartition(mu=mu, v=v, lam=lam, w=w))
        diff = mu[:, None] - lam[None, :]
        assert np.allclose(pencil.L * diff, v[:, None] - w[None, :], atol=1e-12)
        assert np.allclose(
            pencil.Ls * diff, mu[:, None] * v[:, None] - lam[None, :] * w[None, :], atol=1e-12
        )

    def test_sylvester_residual_keeps_the_outer_product_floats(self, structured_pencil):
        # the formulation with explicit direction vectors, np.outer(..., ones)
        p = structured_pencil
        M, Lam = p.mu[:, None], p.lam[None, :]
        VR = np.outer(p.V, np.ones(p.lam.size))
        LW = np.outer(np.ones(p.mu.size), p.W)
        scale = np.linalg.norm(p.Ls)
        r1 = np.linalg.norm(M * p.L - p.L * Lam - (VR - LW)) / scale
        r2 = np.linalg.norm(M * p.Ls - p.Ls * Lam - (M * VR - LW * Lam)) / scale
        assert sylvester_residual(p) == (r1, r2)

    def test_sylvester_residuals_tiny(self, small_bessel_samples):
        pencil = build_pencil(partition(small_bessel_samples))
        r1, r2 = sylvester_residual(pencil)
        assert r1 <= 1e-10
        assert r2 <= 1e-10


class TestTruncate:
    def test_degree_one_recovery(self):
        f = lambda s: 1.0 / (s + 1.0)
        samples = real_samples(f, [0.5, 1.5, 2.5, 3.5])
        red = truncate(build_pencil(partition(samples, "alternating")), order=1)
        fresh = np.linspace(0.2, 4.0, 17)
        err = np.abs(red.model.eval(fresh) - f(fresh))
        assert err.max() <= 1e-12

    @pytest.mark.parametrize("degree,seed", [(3, 0), (5, 1), (8, 2)])
    def test_exact_recovery_of_random_rationals(self, degree, seed):
        samples, f, true_poles, _, _ = rational_samples(degree, seed, n_pairs=3 * degree)
        red = truncate(build_pencil(partition(samples)), order=degree)
        rng = np.random.default_rng(seed + 100)
        fresh = rng.uniform(0, 10, 100) + 1j * rng.uniform(-1, 1, 100)
        rel = np.abs(red.model.eval(fresh) - f(fresh)) / np.abs(f(fresh))
        assert rel.max() <= 1e-9
        assert match_distance(true_poles, poles(red.model)) <= 1e-8

    def test_interpolation_at_partition_points(self):
        samples, f, *_ = rational_samples(4, 3, n_pairs=16)
        part = partition(samples)
        red = truncate(build_pencil(part), order=4)
        scale = np.abs(samples.values).max()
        assert np.abs(red.model.eval(part.lam) - part.w).max() <= 1e-8 * scale
        assert np.abs(red.model.eval(part.mu) - part.v).max() <= 1e-8 * scale

    def test_tolerance_mode_picks_minimal_order(self):
        samples, *_ = rational_samples(4, 5, n_pairs=16)
        red = truncate(build_pencil(partition(samples)), tol=1e-10)
        assert red.model.order == 4

    def test_order_larger_than_rank_refused(self):
        samples, *_ = rational_samples(2, 7, n_pairs=12)
        with pytest.raises(RankError) as info:
            truncate(build_pencil(partition(samples)), order=9)
        assert info.value.rank == 2

    @pytest.mark.parametrize("order", [0, -3, 2.5, 2.0, "2"])
    def test_order_below_one_or_not_an_integer_is_a_setting_error(self, order):
        samples, *_ = rational_samples(2, 7, n_pairs=12)
        with pytest.raises(SettingError, match="order"):
            truncate(build_pencil(partition(samples)), order=order)

    def test_numpy_integer_order_accepted(self):
        samples, *_ = rational_samples(2, 7, n_pairs=12)
        pencil = build_pencil(partition(samples))
        got = truncate(pencil, order=np.int64(2)).model
        assert got.E.tobytes() == truncate(pencil, order=2).model.E.tobytes()

    def test_order_above_the_pencil_size_refused(self):
        samples, *_ = rational_samples(2, 7, n_pairs=3)
        with pytest.raises(RankError):
            truncate(build_pencil(partition(samples)), order=4)

    def test_exactly_one_mode_required(self):
        samples, *_ = rational_samples(2, 8, n_pairs=8)
        pencil = build_pencil(partition(samples))
        with pytest.raises(ValueError):
            truncate(pencil)
        with pytest.raises(ValueError):
            truncate(pencil, order=2, tol=1e-8)

    def test_realness_of_model_values_and_spectrum(self, medium_bessel_samples):
        red = truncate(build_pencil(partition(medium_bessel_samples)), order=8)
        xs = np.linspace(0.3, 9.7, 21)
        vals = red.model.eval(xs)
        assert np.all(np.abs(vals.imag) <= 1e-8 * np.abs(vals))
        assert conjugate_closed(poles(red.model))
        assert conjugate_closed(zeros(red.model))


@pytest.fixture(scope="module")
def structured_pencil():
    return build_pencil(partition(sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s)))


@pytest.fixture(scope="module")
def structured_11(structured_pencil):
    return truncate(structured_pencil, order=11)


@pytest.fixture(scope="module")
def full_svds(structured_pencil):
    """The two full thin SVDs that truncation used to take: of [L, Ls] and [L; Ls]."""
    return (
        linalg.svd(np.hstack([structured_pencil.L, structured_pencil.Ls])),
        linalg.svd(np.vstack([structured_pencil.L, structured_pencil.Ls])),
    )


class TestSketchedTruncation:
    """truncate() computes only the leading singular subspaces (randomized sketch)."""

    def test_sketch_width_is_order_plus_oversampling(self, structured_pencil, structured_11):
        assert structured_pencil.shape == (1060, 1061)
        assert structured_11.singular_values.size == 31
        assert structured_11.singular_values_stacked.size == 31

    def test_leading_singular_values_match_full_svd(self, structured_11, full_svds):
        full_rows, full_cols = (res.singular_values for res in full_svds)
        rows = structured_11.singular_values
        cols = structured_11.singular_values_stacked
        assert np.abs(rows[:12] - full_rows[:12]).max() <= 1e-13 * full_rows[0]
        assert np.abs(cols[:12] - full_cols[:12]).max() <= 1e-13 * full_cols[0]

    def test_in_domain_poles_match_full_svd_model(self, structured_pencil, structured_11, full_svds):
        # the realization of truncate() with projectors from the full SVDs
        Y = full_svds[0].U[:, :11]
        X = full_svds[1].V[:, :11]
        reference = poles(StateSpaceModel(
            E=-Y.conj().T @ structured_pencil.L @ X,
            A=-Y.conj().T @ structured_pencil.Ls @ X,
            B=Y.conj().T @ structured_pencil.V,
            C=structured_pencil.W @ X,
        ))
        reference = reference[OMEGA.contains(reference)]
        got = poles(structured_11.model)
        got = got[OMEGA.contains(got)]
        assert got.size == reference.size == 3
        assert match_distance(got, reference) <= 1e-12
        assert match_distance(reference, got) <= 1e-12

    def test_repeated_calls_are_byte_identical(self, structured_pencil, structured_11):
        again = truncate(structured_pencil, order=11).model
        for name in ("E", "A", "B", "C"):
            assert getattr(again, name).tobytes() == getattr(structured_11.model, name).tobytes()

    def test_tolerance_mode_doubles_the_sketch_past_twenty(self):
        samples, *_ = rational_samples(26, 0, n_pairs=150)
        pencil = build_pencil(partition(samples))
        full = linalg.svd(np.hstack([pencil.L, pencil.Ls])).singular_values
        expected = int(np.nonzero(full / full[0] <= 1e-10)[0][0])
        red = truncate(pencil, tol=1e-10)
        assert red.model.order == expected > 20
        # one doubling (21 -> 42), short of the full 150 values
        assert red.singular_values.size == 42

    @staticmethod
    def stacked_truncation(pencil, order=None, tol=None):
        """truncate() as it was written with np.hstack copies of [L, Ls] and [L*, Ls*]."""
        rng = np.random.default_rng(loewner._SKETCH_SEED)
        rows = np.hstack([pencil.L, pencil.Ls])
        width = (order if tol is None else 1) + loewner._OVERSAMPLE
        while True:
            svd_rows = linalg.leading_svd(rows, width, rng)
            sigma = svd_rows.singular_values
            if tol is None or sigma[-1] <= tol * sigma[0] or sigma.size == min(rows.shape):
                break
            width *= 2
        if tol is not None:
            order = int(np.nonzero(sigma / sigma[0] <= tol)[0][0])
        svd_cols = linalg.leading_svd(np.hstack([pencil.L.conj().T, pencil.Ls.conj().T]),
                                      order + loewner._OVERSAMPLE, rng)
        Y, X = svd_rows.U[:, :order], svd_cols.U[:, :order]
        return (-Y.conj().T @ pencil.L @ X, -Y.conj().T @ pencil.Ls @ X, Y.conj().T @ pencil.V,
                pencil.W @ X, sigma, svd_cols.singular_values, Y, X)

    def assert_stacked_bytes(self, pencil, red, **setting):
        want = self.stacked_truncation(pencil, **setting)
        m = red.model
        got = (m.E, m.A, m.B, m.C, red.singular_values, red.singular_values_stacked, red.Y, red.X)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_order_mode_keeps_the_stacked_bytes(self, structured_pencil, structured_11):
        assert np.shares_memory(structured_pencil.L, structured_pencil.row_concat)
        assert np.shares_memory(structured_pencil.Ls, structured_pencil.row_concat)
        self.assert_stacked_bytes(structured_pencil, structured_11, order=11)

    def test_tolerance_mode_keeps_the_stacked_bytes(self):
        samples, *_ = rational_samples(26, 0, n_pairs=150)
        pencil = build_pencil(partition(samples))
        red = truncate(pencil, tol=1e-10)
        assert red.singular_values.size == 42  # the sketch doubled once
        self.assert_stacked_bytes(pencil, red, tol=1e-10)

    def test_global_random_state_untouched(self):
        samples, *_ = rational_samples(3, 4, n_pairs=60)
        pencil = build_pencil(partition(samples))
        np.random.seed(1)
        before = np.random.get_state()
        red = truncate(pencil, order=3)
        after = np.random.get_state()
        # the sketch path was taken: fewer values than the full SVD's 60
        assert red.singular_values.size == 23
        assert np.array_equal(before[1], after[1]) and before[2:] == after[2:]


@pytest.fixture
def two_cpus(monkeypatch):
    """A helper pool of this test's own, as on a host with two CPUs."""
    monkeypatch.setattr(linalg, "_cpu_count", lambda: 2)
    monkeypatch.setattr(linalg, "_pool", None)
    yield
    if linalg._pool is not None:
        linalg._pool.shutdown(wait=True)


class TestSharedSketches:
    """With order= the two sketches run at once; errors come out as from the serial run."""

    def test_error_in_the_column_sketch_on_the_helper_keeps_its_type(self, two_cpus, monkeypatch):
        samples, *_ = rational_samples(4, 3, n_pairs=120)
        pencil = build_pencil(partition(samples))
        column_started = threading.Event()
        threads = {}
        sketch_svd = linalg.sketch_svd

        def failing_columns(a, omega):
            if a is pencil.row_concat:
                # hold the rows until the column sketch has been taken by the other thread
                assert column_started.wait(timeout=30)
                threads["rows"] = threading.current_thread().name
                return sketch_svd(a, omega)
            threads["columns"] = threading.current_thread().name
            column_started.set()
            raise ComputationError("SVD did not converge")

        monkeypatch.setattr(linalg, "sketch_svd", failing_columns)
        with pytest.raises(ComputationError, match="^SVD did not converge$") as info:
            truncate(pencil, order=4)
        assert type(info.value) is ComputationError
        assert threads["rows"] == threading.current_thread().name
        assert threads["columns"].startswith("ratapprox-eval")

    def test_order_above_the_numerical_rank_is_the_serial_rank_error(self, two_cpus, monkeypatch):
        samples, *_ = rational_samples(2, 7, n_pairs=100)
        pencil = build_pencil(partition(samples))

        def rank_error():
            with pytest.raises(RankError) as info:
                truncate(pencil, order=5)  # sketched on both sides: 25 columns of 100 x 200
            return type(info.value), str(info.value), info.value.rank

        shared = rank_error()
        monkeypatch.setattr(linalg, "_cpu_count", lambda: 1)
        assert rank_error() == shared
        assert shared[0] is RankError and shared[2] == 2
        assert shared[1].startswith("order 5 exceeds the numerical rank 2 of the data (sigma_5/sigma_1 = ")


_SKETCH_PROBE = """
import hashlib, json, os, sys, threading
if len(sys.argv) > 1:
    os.sched_setaffinity(0, {int(sys.argv[1])})  # before numpy sizes its BLAS pool
from ratapprox import OMEGA, h_of_s, linalg, loewner, sample_oracle, structured_grid, uniform_random_grid
from ratapprox.analysis import FIT_DEFAULTS, fit
from ratapprox.serialize import model_to_dict

threads = set()
sketch_svd = linalg.sketch_svd

def spy(a, omega):
    threads.add(threading.current_thread().name)
    return sketch_svd(a, omega)

linalg.sketch_svd = spy
digest = hashlib.sha256()
for points in (structured_grid(OMEGA, 101, 21), uniform_random_grid(OMEGA, 300, 0)):
    samples = sample_oracle(points, h_of_s)
    pencil = loewner.build_pencil(loewner.partition(samples))
    for setting in ({"order": 11}, {"tol": 1e-11}):
        red = loewner.truncate(pencil, **setting)
        m = red.model
        for array in (m.E, m.A, m.B, m.C, red.singular_values, red.singular_values_stacked, red.Y, red.X):
            digest.update(array.tobytes())
    for method in FIT_DEFAULTS:
        digest.update(json.dumps(model_to_dict(fit(method, samples)[0])).encode())
helped = any(name.startswith("ratapprox-eval") for name in threads)
print(int(helped), linalg._cpu_count(), digest.hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
@pytest.mark.skipif(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs")
def test_shared_sketches_give_the_bytes_of_one_cpu():
    src = str(Path(ratapprox.__file__).resolve().parents[1])

    def probe(*args):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        done = subprocess.run([sys.executable, "-c", _SKETCH_PROBE, *args], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        helped, cpus, digest = done.stdout.split()
        return int(helped), int(cpus), digest

    helped, cpus, pinned_digest = probe(str(min(os.sched_getaffinity(0))))
    assert (helped, cpus) == (0, 1)
    helped, cpus, digest = probe()
    assert helped == 1 and cpus >= 2
    assert digest == pinned_digest


_MEMORY_PROBE = """
import resource
from ratapprox import OMEGA, build_pencil, h_of_s, partition, sample_oracle, structured_grid, truncate

def rss_kb():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmRSS:"))

part = partition(sample_oracle(structured_grid(OMEGA, 101, 41), h_of_s))
before = rss_kb()
pencil = build_pencil(part)
q, k = pencil.shape
truncate(pencil, order=11)
after_order = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
truncate(pencil, tol=1e-11)
after_tol = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(q, k, before, after_order, after_tol)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc for VmRSS")
def test_fit_holds_at_most_five_pencil_sized_arrays():
    # N = 4,141 samples: a 2070 x 2071 pencil, 65 MB per complex array.  The pencil
    # itself is two of them ([L, Ls]); the adjoint written for the column sketch two more.
    src = str(Path(ratapprox.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _MEMORY_PROBE], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300, check=True)
    q, k, before, after_order, after_tol = map(int, done.stdout.split())
    assert (q, k) == (2070, 2071)
    unit_kb = q * k * 16 / 1024  # ru_maxrss and VmRSS are in kB
    assert (after_order - before) / unit_kb <= 5
    assert (after_tol - before) / unit_kb <= 5


class TestPolesZeros:
    def test_poles_of_simple_lag(self):
        f = lambda s: 1.0 / (s + 1.0)
        samples = real_samples(f, [0.5, 1.5, 2.5, 3.5])
        red = truncate(build_pencil(partition(samples, "alternating")), order=1)
        got = poles(red.model)
        assert got.size == 1
        assert abs(got[0] - (-1.0)) <= 1e-10

    def test_zeros_of_lead_lag(self):
        f = lambda s: (s + 2.0) / (s + 1.0)
        samples = real_samples(f, [0.5, 1.5, 2.5, 3.5])
        red = truncate(build_pencil(partition(samples, "alternating")), order=2)
        got = zeros(red.model)
        assert got.size >= 1
        assert np.min(np.abs(got - (-2.0))) <= 1e-8

    def test_strictly_proper_model_has_fewer_zeros(self):
        samples, *_ = rational_samples(5, 11, n_pairs=20)
        red = truncate(build_pencil(partition(samples)), order=5)
        assert zeros(red.model).size <= 4  # two infinite eigenvalues forced by structure


class TestEval:
    def test_scalar_and_array_agree(self):
        samples, *_ = rational_samples(3, 13, n_pairs=12)
        model = truncate(build_pencil(partition(samples)), order=3).model
        pts = np.array([0.4 + 0.1j, 5.0, 9.0 - 0.8j])
        arr = model.eval(pts)
        assert all(arr[i] == model.eval(complex(p)) for i, p in enumerate(pts))

    def test_eval_at_model_pole_raises(self):
        f = lambda s: 1.0 / (s + 1.0)
        samples = real_samples(f, [0.5, 1.5, 2.5, 3.5])
        model = truncate(build_pencil(partition(samples, "alternating")), order=1).model
        pole = poles(model)[0]
        with pytest.raises(PoleError):
            model.eval(complex(pole))


def modal_and_lu_points(model, rng, n=60):
    """Random points around the model's poles: inside and outside their LU discs."""
    modal = model.modal
    centre = modal.poles[rng.integers(0, modal.poles.size, n)]
    scale = rng.uniform(0.0, 3.0, n) * np.min(np.where(np.isfinite(modal.radii), modal.radii, 1.0))
    pts = centre + scale * np.exp(2j * np.pi * rng.uniform(size=n))
    return np.concatenate([pts, rng.uniform(-2.0, 12.0, n) + 1j * rng.uniform(-5.0, 5.0, n)])


def inside_discs(model, pts):
    modal = model.modal
    return np.any(np.abs(pts[:, None] - modal.poles[None, :]) <= modal.radii, axis=1)


@pytest.fixture(scope="module")
def benchmark_surface():
    """The 101 x 21 benchmark samples and a 250 x 250 oracle surface over the rectangle."""
    samples = sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s)
    return samples, analysis.oracle_grid(h_of_s, OMEGA, 250, 250)


def with_checked_discs(model, monkeypatch):
    """A copy of ``model`` whose modal form keeps the discs of the probe check, before any shrinks."""
    with monkeypatch.context() as patch:
        patch.setattr(loewner, "_shrunk_radii", lambda model, poles, residues, delta, radii: radii)
        copy = StateSpaceModel(E=model.E, A=model.A, B=model.B, C=model.C)
        assert copy.modal is not None
    return copy


def exact_modal_sum(monkeypatch, poles, residues):
    """Make the LU solve return the modal sum, so that only geometry and floors stop the discs."""
    monkeypatch.setattr(loewner, "_solve", lambda model, pts: linalg.pole_residue_sum(pts, poles, residues))


class TestModalForm:
    @settings(max_examples=30, deadline=None)
    @given(degree=st.integers(2, 8), seed=st.integers(0, 10_000))
    def test_agrees_with_lu_outside_the_discs(self, degree, seed):
        model, f, true_poles, _ = conjugate_state_space(degree, seed)
        assert model.modal is not None
        assert match_distance(true_poles, model.modal.poles) < 1e-10
        assert match_distance(model.modal.poles, true_poles) < 1e-10
        pts = modal_and_lu_points(model, np.random.default_rng(seed))
        near = inside_discs(model, pts)
        assert near.any() and not near.all()
        got, want = model.eval(pts), model.solve(pts)
        assert np.all(np.abs(got[~near] - want[~near]) <= 1e-10 * np.abs(want[~near]))
        # inside the discs the LU solve itself, bit for bit
        assert got[near].tobytes() == want[near].tobytes()

    def test_batch_outside_the_discs_equals_a_batch_crossing_them(self):
        model, *_ = conjugate_state_space(5, 21)
        pts = modal_and_lu_points(model, np.random.default_rng(21))
        near = inside_discs(model, pts)
        assert near.any() and not near.all()
        crossing = model.eval(pts)
        assert model.eval(pts[~near]).tobytes() == crossing[~near].tobytes()
        alone = np.array([model.eval(complex(z)) for z in pts[~near]])
        assert alone.tobytes() == crossing[~near].tobytes()

    def test_ratapprox_fit_has_a_modal_form_that_keeps_the_dense_maximum(self, medium_bessel_samples):
        model = truncate(build_pencil(partition(medium_bessel_samples)), order=11).model
        assert model.modal is not None
        pts = structured_grid(OMEGA, 101, 41)
        vals = h_of_s(pts)
        assert np.max(np.abs(model.eval(pts) - vals)) == np.max(np.abs(model.solve(pts) - vals))

    @pytest.mark.parametrize("method", ["loewner", "rloewner"])
    def test_shrunk_discs_keep_the_dense_maximum_with_few_lu_points(self, method, benchmark_surface,
                                                                     monkeypatch):
        samples, truth = benchmark_surface
        model, _ = analysis.fit(method, samples)
        checked = with_checked_discs(model, monkeypatch)
        assert np.all(model.modal.radii <= checked.modal.radii)
        solve, solved = loewner._solve, []

        def spy(solved_model, chunk):
            solved.append(chunk.size)
            return solve(solved_model, chunk)

        with monkeypatch.context() as patch:
            patch.setattr(loewner, "_solve", spy)
            got = analysis.model_error(model, truth)
        # the checked discs hold about a quarter of the grid
        assert sum(solved) <= 0.02 * truth.points.size
        want = analysis.model_error(checked, truth)
        assert (got.max_error, got.argmax_point) == (want.max_error, want.argmax_point)

    def test_shrinking_keeps_zero_and_infinite_radii(self, monkeypatch):
        lone = StateSpaceModel(E=[[2.0]], A=[[-1.0 + 0.5j]], B=[1.5], C=[0.7])
        assert lone.modal.radii.tolist() == [np.inf]
        pts = np.linspace(-3, 3, 97) + 1j * np.linspace(-2, 2, 97)
        assert lone.eval(pts).tobytes() == lone.solve(pts).tobytes()
        with pytest.raises(PoleError):
            lone.eval(-0.5 + 0.25j)
        # the pole at 2j has no residue and a zero disc
        model = StateSpaceModel(E=np.eye(3), A=np.diag([1j, 2j, 3j]), B=np.array([1.0, 0.0, 1.0]),
                                C=np.ones(3))
        checked = with_checked_discs(model, monkeypatch)
        assert model.modal.radii[1] == checked.modal.radii[1] == 0.0
        assert np.all(model.modal.radii <= checked.modal.radii)
        pts = np.linspace(-4, 4, 97) + 1j * np.linspace(-4, 8, 97)[::-1]
        outside = ~inside_discs(checked, pts)
        assert outside.any()
        assert model.eval(pts[outside]).tobytes() == checked.eval(pts[outside]).tobytes()
        with pytest.raises(PoleError):
            model.eval(2j)

    @pytest.mark.parametrize("outer, shrunk", [(1.3, 0.4), (1.15, 0.2)])
    def test_disc_stops_where_its_halved_circle_lies_inside_another(self, monkeypatch, outer, shrunk):
        # poles 0 and 1; the disc of 0 is at its floor delta and keeps its radius
        poles, residues = np.array([0.0, 1.0 + 0j]), np.array([1.0, 0.5 + 0j])
        model = StateSpaceModel(E=np.eye(2), A=np.diag(poles), B=np.ones(2), C=residues)
        exact_modal_sum(monkeypatch, poles, residues)
        radii = loewner._shrunk_radii(model, poles, residues, np.array([outer, 0.0]), np.array([outer, 0.4]))
        assert radii.tolist() == [outer, shrunk]

    def test_discs_stop_above_the_pole_uncertainty(self, monkeypatch):
        poles, residues = np.array([0.0, 1.0 + 0j]), np.array([1.0, 0.5 + 0j])
        model = StateSpaceModel(E=np.eye(2), A=np.diag(poles), B=np.ones(2), C=residues)
        exact_modal_sum(monkeypatch, poles, residues)
        radii = loewner._shrunk_radii(model, poles, residues, np.array([1e-3, 1e-3]), np.array([0.4, 0.4]))
        assert radii.tolist() == [0.4 / 256] * 2

    @staticmethod
    def assert_lu_everywhere(model):
        assert model.modal is None
        pts = np.linspace(-3, 12, 97) + 1j * np.linspace(-2, 2, 97)[::-1]
        assert model.eval(pts).tobytes() == model.solve(pts).tobytes()
        assert complex(model.eval(1.5 + 0.5j)) == model.solve(np.array([1.5 + 0.5j]))[0]

    def test_defective_pencil_falls_back_to_lu(self):
        # a 2 x 2 Jordan block at 2 next to a simple pole at 5, hidden by a similarity
        rng = np.random.default_rng(0)
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        jordan = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        model = StateSpaceModel(E=np.eye(3), A=t @ jordan @ np.linalg.inv(t),
                                B=rng.standard_normal(3), C=rng.standard_normal(3))
        self.assert_lu_everywhere(model)

    def test_singular_e_falls_back_to_lu(self):
        # data with a constant part: 1/(s + 1) + 2 at order 2 puts the constant in E's null space
        f = lambda s: 1.0 / (s + 1.0) + 2.0
        samples = real_samples(f, np.linspace(0.5, 6.5, 8))
        model = truncate(build_pencil(partition(samples, "alternating")), order=2).model
        assert np.linalg.cond(model.E) > 1e12
        self.assert_lu_everywhere(model)
        assert abs(model.eval(3.0) - f(3.0)) < 1e-8

    def test_ill_conditioned_eigenvectors_fall_back_to_lu(self):
        # eigenvectors at an angle of 1e-9: cond(V) about 1e9
        v = np.array([[1.0, 1.0], [0.0, 1e-9]])
        model = StateSpaceModel(E=np.eye(2), A=v @ np.diag([1.0, 3.0]) @ np.linalg.inv(v),
                                B=np.array([1.0, 0.5]), C=np.array([0.3, 1.0]))
        assert np.linalg.cond(v) > 1e8
        self.assert_lu_everywhere(model)

    def test_pole_without_residue_keeps_pole_error(self):
        # the pole at 2j is uncontrollable: zero residue, zero disc
        model = StateSpaceModel(E=np.eye(3), A=np.diag([1j, 2j, 3j]), B=np.array([1.0, 0.0, 1.0]),
                                C=np.ones(3))
        assert model.modal is not None and model.modal.radii[1] == 0.0
        pts = np.array([0.5, 2j + 0.3, 5.0 - 1j])
        assert np.allclose(model.eval(pts), 1.0 / (pts - 1j) + 1.0 / (pts - 3j), rtol=1e-14)
        with pytest.raises(PoleError):
            model.eval(2j)

    def test_decomposition_computed_once_per_model(self, monkeypatch):
        import scipy.linalg

        calls = []
        eig = scipy.linalg.eig

        def spy(*args, **kwargs):
            calls.append(args)
            return eig(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eig", spy)
        model, *_ = conjugate_state_space(6, 3)
        pts = np.linspace(0, 10, 3 * linalg._EVAL_CHUNK + 5) + 0.5j
        for _ in range(3):
            model.eval(pts)
            model.eval(2.0 + 0.1j)
        assert len(calls) == 1
        assert modal_form(model) is not None and len(calls) == 2


class TestProjectedPoints:
    def test_sizes_and_conjugate_closure(self, medium_bessel_samples):
        pencil = build_pencil(partition(medium_bessel_samples))
        red = truncate(pencil, order=8)
        proj = projected_points(pencil, red.Y, red.X)
        assert proj.lambda_hat.size == 8
        assert proj.mu_hat.size == 8
        assert conjugate_closed(proj.lambda_hat, tol=1e-7)
        assert conjugate_closed(proj.mu_hat, tol=1e-7)

    def test_points_inside_domain(self, medium_bessel_samples):
        pencil = build_pencil(partition(medium_bessel_samples))
        red = truncate(pencil, order=8)
        proj = projected_points(pencil, red.Y, red.X)
        assert np.all(OMEGA.contains(proj.lambda_hat))
        assert np.all(OMEGA.contains(proj.mu_hat))

    @staticmethod
    def inlined_points(pencil, Y, X):
        """projected_points() as it was written, with its own projection and all-ones directions."""
        Lh = Y.conj().T @ pencil.L @ X
        Lsh = Y.conj().T @ pencil.Ls @ X
        Vh = Y.conj().T @ pencil.V
        Ldh = Y.conj().T @ np.ones(pencil.mu.size).astype(complex)
        Wh = pencil.W @ X
        Rh = np.ones(pencil.lam.size).astype(complex) @ X
        rhs_r = Lsh - np.outer(Vh, Rh)
        rhs_l = Lsh - np.outer(Ldh, Wh)
        return (linalg.finite_generalized_eigenvalues(rhs_r, Lh),
                linalg.finite_generalized_eigenvalues(rhs_l, Lh))

    def assert_inlined_bytes(self, pencil, red):
        proj = projected_points(pencil, red.Y, red.X)
        want = self.inlined_points(pencil, red.Y, red.X)
        assert proj.lambda_hat.tobytes() == want[0].tobytes()
        assert proj.mu_hat.tobytes() == want[1].tobytes()

    def test_keeps_the_inlined_bytes_at_order_11(self, structured_pencil, structured_11):
        self.assert_inlined_bytes(structured_pencil, structured_11)

    def test_keeps_the_inlined_bytes_past_a_doubled_sketch(self):
        samples, *_ = rational_samples(26, 0, n_pairs=150)
        pencil = build_pencil(partition(samples))
        red = truncate(pencil, tol=1e-10)
        assert red.model.order > 20
        self.assert_inlined_bytes(pencil, red)


class TestTrajectoryStudy:
    def test_unknown_scheme_raises_before_any_sample(self):
        # a bad order is checked as early: tests/test_count_settings.py
        points = []

        def oracle(s):
            points.append(np.size(s))
            return h_of_s(s)

        with pytest.raises(SettingError, match="unknown partition scheme"):
            trajectory_study(oracle, OMEGA, a=10, n_steps=2, scheme="bogus")
        assert sum(points) == 0

    def test_first_step_matches_direct_fit(self):
        steps = trajectory_study(h_of_s, OMEGA, a=6, n_steps=2, order=5)
        samples = sample_oracle(structured_grid(OMEGA, 6, 7), h_of_s)
        pencil = build_pencil(partition(samples))
        red = truncate(pencil, order=5)
        direct = projected_points(pencil, red.Y, red.X)
        assert np.allclose(
            np.sort_complex(steps[0].projected.lambda_hat),
            np.sort_complex(direct.lambda_hat),
        )
        assert steps[0].n_points == 42
        assert steps[1].nx == 12 and steps[1].ny == 13
