"""Acceptance suite: the benchmark-level criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Expensive artifacts (the 2121-point grid, the dense
evaluation grid, the order-11 reduction) are built once per session.
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import conjugate_closed, rational_samples
from ratapprox import (
    BESSEL_J0_ZEROS,
    OMEGA,
    barycentric_poles_zeros,
    bessel_j0,
    build_pencil,
    detect_cancellations,
    error_grid,
    eval_barycentric,
    fit_aaa,
    fit_greedy,
    fit_vf,
    h_of_s,
    oracle_grid,
    partition,
    poles,
    pr_poles_zeros,
    projected_points,
    sample_oracle,
    structured_grid,
    sylvester_residual,
    trajectory_study,
    truncate,
    uniform_random_grid,
)
from ratapprox.linalg import finite_generalized_eigenvalues

BOLD_ZEROS = BESSEL_J0_ZEROS[:3]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class DenseGrid:
    points: np.ndarray
    values: np.ndarray

    def max_error(self, model) -> float:
        evaluate = model.eval if hasattr(model, "eval") else model
        return float(np.abs(evaluate(self.points) - self.values).max())


@pytest.fixture(scope="module")
def dense():
    # the oracle surface repro compares against
    truth = oracle_grid(h_of_s, OMEGA, 500, 500)
    return DenseGrid(points=truth.points, values=truth.values)


@pytest.fixture(scope="module")
def structured_samples():
    return sample_oracle(structured_grid(OMEGA, 101, 21), h_of_s)


@pytest.fixture(scope="module")
def structured_pencil(structured_samples):
    return build_pencil(partition(structured_samples))


@pytest.fixture(scope="module")
def loewner_11(structured_pencil):
    return truncate(structured_pencil, order=11)


def test_criterion_1_bessel_oracle():
    started = time.perf_counter()
    residuals = [abs(bessel_j0(z)) for z in BESSEL_J0_ZEROS]
    at_origin = bessel_j0(0.0)
    elapsed = time.perf_counter() - started
    ok = max(residuals) <= 1e-12 and at_origin == 1.0 + 0.0j and elapsed < 1.0
    report(
        "1 (Bessel oracle)",
        ok,
        f"max |J0| at the six tabulated zeros = {max(residuals):.2e} (<= 1e-12), "
        f"J0(0) = {at_origin}, runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_loewner_structured(structured_samples, loewner_11, dense):
    started = time.perf_counter()
    sigma = loewner_11.singular_values
    ratio = sigma[11] / sigma[0]
    surface = error_grid(loewner_11.model, h_of_s, OMEGA, 500, 500, method_tag="loewner")
    elapsed = time.perf_counter() - started
    # the cached dense grid must agree with the full error_grid path
    assert abs(surface.max_error - dense.max_error(loewner_11.model)) <= 1e-12
    ok = ratio <= 1e-11 and surface.max_error <= 1e-9 and elapsed < 60.0
    report(
        "2 (Loewner, structured grid)",
        ok,
        f"sigma_12/sigma_1 = {ratio:.2e} (<= 1e-11), dense max error = "
        f"{surface.max_error:.2e} (<= 1e-9), runtime {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_pole_recovery(loewner_11):
    model_poles = poles(loewner_11.model)
    bold = [float(np.min(np.abs(model_poles - z))) for z in BOLD_ZEROS]
    fourth = float(np.min(np.abs(model_poles - BESSEL_J0_ZEROS[3])))
    ok = max(bold) <= 1e-9 and fourth <= 1e-3
    report(
        "3 (pole recovery)",
        ok,
        f"bold-zero distances {['%.1e' % d for d in bold]} (<= 1e-9 each), "
        f"4th zero distance {fourth:.1e} (<= 1e-3)",
    )


def test_criterion_4_projected_points(structured_samples, structured_pencil, loewner_11, capsys, tmp_path):
    proj = projected_points(structured_pencil, loewner_11.Y, loewner_11.X)
    inside = np.all(OMEGA.contains(proj.lambda_hat, margin=0.1)) and np.all(
        OMEGA.contains(proj.mu_hat, margin=0.1)
    )
    d_right = float(np.min(np.abs(proj.lambda_hat - 1.5504)))
    d_left = float(np.min(np.abs(proj.mu_hat - 1.5491)))

    from ratapprox.cli import main

    csv_path = tmp_path / "structured.csv"
    structured_samples.to_csv(csv_path, meta="acceptance")
    assert main(["project", "--in", str(csv_path), "--order", "11"]) == 0
    stdout = capsys.readouterr().out
    message_ok = "2121 -> 22" in stdout

    ok = (
        proj.lambda_hat.size == 11
        and proj.mu_hat.size == 11
        and inside
        and d_right <= 1e-2
        and d_left <= 1e-2
        and message_ok
    )
    report(
        "4 (projected points)",
        ok,
        f"11 + 11 points, inside domain margin 0.1 = {inside}, "
        f"d(right, 1.5504) = {d_right:.1e}, d(left, 1.5491) = {d_left:.1e} "
        f"(<= 1e-2 each), compression message shown = {message_ok}",
    )


def test_criterion_5_recursive_loewner(structured_samples, dense):
    result = fit_greedy(structured_samples, order_target=11, seed=0)
    max_err = dense.max_error(result.model)
    ok = max_err <= 1e-8 and result.model.order == 11
    report(
        "5 (recursive Loewner)",
        ok,
        f"order {result.model.order}, dense max error = {max_err:.2e} (<= 1e-8), "
        f"{len(result.history)} greedy steps",
    )


def test_criterion_6_aaa(structured_samples, dense):
    model, _ = fit_aaa(structured_samples, tol=1e-13, max_order=30)
    err_structured = dense.max_error(model)
    interp = max(
        abs(eval_barycentric(model, complex(z)) - f)
        for z, f in zip(model.support_points, model.support_values)
    )
    scale = float(np.abs(structured_samples.values).max())

    best_uniform = np.inf
    best_seed = -1
    for seed in range(10):
        samples = sample_oracle(uniform_random_grid(OMEGA, 1000, seed), h_of_s)
        m, _ = fit_aaa(samples, tol=1e-13, max_order=30)
        err = dense.max_error(m)
        if err < best_uniform:
            best_uniform, best_seed = err, seed

    ok = (
        model.order <= 13
        and err_structured <= 1e-9
        and interp <= 1e-12 * scale
        and best_uniform <= 1e-11
    )
    report(
        "6 (AAA)",
        ok,
        f"structured: order {model.order} (<= 13), max error {err_structured:.2e} "
        f"(<= 1e-9), support interpolation residual {interp:.1e} (<= 1e-12 rel); "
        f"uniform best of 10 seeds (seed {best_seed}): {best_uniform:.2e} (<= 1e-11)",
    )


def test_criterion_7_vector_fitting(structured_samples, dense):
    details = []
    ok = True
    for label, samples in (
        ("structured", structured_samples),
        ("uniform", sample_oracle(uniform_random_grid(OMEGA, 1000, 0), h_of_s)),
    ):
        model, _ = fit_vf(samples, order=12, n_iter=20)
        max_err = dense.max_error(model)
        model_poles, model_zeros = pr_poles_zeros(model)
        pairs = detect_cancellations(model_poles, model_zeros, rel_tol=1e-6)
        cancelled_values = [p.pole for p in pairs]
        remaining = np.array(
            [p for p in model_poles if not any(p == c for c in cancelled_values)]
        )
        bold = [float(np.min(np.abs(remaining - z))) for z in BOLD_ZEROS]
        case_ok = max_err <= 1e-4 and len(pairs) >= 1 and max(bold) <= 1e-6
        ok = ok and case_ok
        details.append(
            f"{label}: error {max_err:.2e} (<= 1e-4), {len(pairs)} cancellation "
            f"pair(s) with min gap "
            f"{min(p.gap for p in pairs) if pairs else float('nan'):.1e} (<= 1e-6), "
            f"bold-pole distances {['%.1e' % d for d in bold]} (<= 1e-6)"
        )
    report("7 (Vector Fitting)", ok, "; ".join(details))


def test_criterion_8a_exact_recovery():
    failures = []
    for degree, seed in ((3, 21), (5, 22), (8, 23)):
        samples, f, true_poles, *_ = rational_samples(degree, seed, n_pairs=3 * degree + 4)
        rng = np.random.default_rng(seed)
        fresh = rng.uniform(0.0, 10.0, 100) + 1j * rng.uniform(-1.0, 1.0, 100)
        scale = np.abs(f(fresh))

        red = truncate(build_pencil(partition(samples)), order=degree)
        rel = float((np.abs(red.model.eval(fresh) - f(fresh)) / scale).max())
        if rel > 1e-9:
            failures.append(f"loewner degree {degree}: {rel:.1e}")

        model, _ = fit_aaa(samples, tol=1e-13, max_order=degree + 2)
        rel = float((np.abs(eval_barycentric(model, fresh) - f(fresh)) / scale).max())
        if rel > 1e-9:
            failures.append(f"aaa degree {degree}: {rel:.1e}")

        vf_model, _ = fit_vf(samples, order=degree, n_iter=10, initial_poles=true_poles)
        dist = max(float(np.min(np.abs(vf_model.poles - p))) for p in true_poles)
        if dist > 1e-8:
            failures.append(f"vf degree {degree} pole recovery: {dist:.1e}")
    report(
        "8a (exact recovery)",
        not failures,
        "loewner/aaa value recovery <= 1e-9 and vf pole recovery <= 1e-8 for "
        "degrees 3, 5, 8" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_8b_conjugate_closure_end_to_end(medium_bessel_samples):
    samples = medium_bessel_samples
    red = truncate(build_pencil(partition(samples)), order=8)
    greedy_model = fit_greedy(samples, order_target=8, seed=0).model
    aaa_model, _ = fit_aaa(samples, tol=1e-11, max_order=20, real_mode=True)
    vf_model, _ = fit_vf(samples, order=8, n_iter=10)
    aaa_poles, _ = barycentric_poles_zeros(aaa_model)
    checks = {
        "loewner": conjugate_closed(poles(red.model)),
        "rloewner": conjugate_closed(poles(greedy_model)),
        "aaa(real mode)": conjugate_closed(aaa_poles, tol=1e-6),
        "vf": conjugate_closed(vf_model.poles),
    }
    report(
        "8b (conjugate closure)",
        all(checks.values()),
        ", ".join(f"{k}: {'closed' if v else 'NOT closed'}" for k, v in checks.items()),
    )


def test_criterion_8c_sylvester_residuals(structured_pencil):
    residuals = [sylvester_residual(structured_pencil)]
    for degree, seed in ((4, 31), (7, 32)):
        samples, *_ = rational_samples(degree, seed, n_pairs=16)
        residuals.append(sylvester_residual(build_pencil(partition(samples))))
    worst = max(max(r) for r in residuals)
    report(
        "8c (Sylvester residuals)",
        worst <= 1e-10,
        f"worst normalized residual over {len(residuals)} pencils = {worst:.1e} (<= 1e-10)",
    )


def test_criterion_8d_eigensolver_vs_determinant_oracle():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(1000 + seed)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        n = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        got = finite_generalized_eigenvalues(m, n)
        nodes = np.exp(2j * np.pi * np.arange(7) / 7) * 2.0
        dets = np.array([np.linalg.det(m - z * n) for z in nodes])
        coeffs = np.linalg.solve(np.vander(nodes, 7, increasing=True), dets)
        expected = np.roots(coeffs[::-1])
        worst = max(
            worst,
            max(float(np.min(np.abs(expected - g))) for g in got),
            max(float(np.min(np.abs(got - e))) for e in expected),
        )
    report(
        "8d (generalized eigensolver)",
        worst <= 1e-8,
        f"worst matched deviation from the determinant-polynomial oracle over "
        f"10 random 6x6 pencils = {worst:.1e} (<= 1e-8)",
    )


def test_criterion_8e_deterministic_outputs(tmp_path, monkeypatch):
    from ratapprox.cli import main

    runs = []
    for tag in ("run1", "run2"):
        workdir = tmp_path / tag
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert main(["sample", "--grid", "uniform", "--pairs", "150", "--seed", "5",
                     "--out", "samples.csv"]) == 0
        assert main(["fit", "--method", "rloewner", "--in", "samples.csv",
                     "--order", "6", "--seed", "5", "--out", "model.json"]) == 0
        runs.append(workdir)
    same_samples = (runs[0] / "samples.csv").read_bytes() == (runs[1] / "samples.csv").read_bytes()
    same_history = (runs[0] / "model.history.csv").read_bytes() == (runs[1] / "model.history.csv").read_bytes()
    same_model = (runs[0] / "model.json").read_bytes() == (runs[1] / "model.json").read_bytes()
    report(
        "8e (determinism)",
        same_samples and same_history and same_model,
        f"identical seeds and flags give byte-identical sample CSV ({same_samples}), "
        f"greedy history CSV ({same_history}) and model JSON ({same_model})",
    )


def test_criterion_9_trajectory_study():
    steps = trajectory_study(h_of_s, OMEGA, a=10, n_steps=5, order=11)
    containment = []
    trend = []
    for step in steps:
        lam, mu = step.projected.lambda_hat, step.projected.mu_hat
        inside = bool(np.all(OMEGA.contains(lam)) and np.all(OMEGA.contains(mu)))
        containment.append(inside)
        trend.append(max(float(np.min(np.abs(mu - z))) for z in lam))
    ok = all(containment) and len(steps) == 5
    report(
        "9 (trajectory study)",
        ok,
        f"projected points inside the domain at all 5 densification steps: "
        f"{containment}; left/right pairing gaps per step (recorded, no "
        f"assertion): {['%.2e' % t for t in trend]}",
    )
