"""The benchmark's three closed-loop workloads.

One client in one process issues each call after the previous one
returns. A workload builds its inputs from the workload seed in
``setup``, runs timed passes with ``run_pass`` and checks each pass's
outputs with ``check``, outside the timed region.

- ``repro``: ``ratapprox repro`` called in-process, the paper's benchmark
  as users run it. It mixes both hot layers (the Loewner SVDs and dense
  evaluation) and is the only workload through ``analysis.compare_methods``
  and ``cli``.
- ``fit-sweep``: the fitting calls on pencils from 110 to 1,640 points
  with no dense surfaces, so ``loewner.truncate`` and ``linalg.svd`` do
  nearly all the work and a change to the dense-evaluation path should
  leave it unchanged.
- ``dense-eval``: the four models are fitted in set-up; the timed pass
  makes four dense error surfaces and then times scalar ``model.eval``
  calls, so the model and oracle evaluation layers do nearly all the work,
  once as throughput and once as per-call overhead.
"""

from __future__ import annotations

import io
import math
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from layers import fit_seconds, fit_targets
from spans import Recorder, instrumented

METHODS = ("loewner", "rloewner", "aaa", "vf")

#: Largest dense-grid error on the structured 101 x 21 grid each method may
#: reach; the same limits as the acceptance suite.
GATES = {"loewner": 1e-9, "rloewner": 1e-8, "aaa": 1e-9, "vf": 1e-4}

#: Fit settings, as ``ratapprox repro`` uses them.
LOEWNER_ORDER = 11
RLOEWNER_ORDER = 11
AAA_TOL = 1e-13
AAA_MAX_ORDER = 30
VF_ORDER = 12
VF_ITERATIONS = 20
#: The greedy start is fixed so that the accuracy metrics repeat across
#: workload seeds; the seed varies the point clouds and the scalar-eval points.
GREEDY_SEED = 0

#: Dense error-surface side on ``dense-eval``. Each pass is short, so a
#: run holds about ten of them and their median is steady.
DENSE_SIDE = 250
#: Points per pass at which ``dense-eval`` evaluates every model one point
#: at a time.
SCALAR_POINTS = 1000
#: fit-sweep: structured a x (a + 1) grids and seeded uniform clouds (pairs).
SWEEP_GRIDS = (10, 20, 30, 40)
SWEEP_PAIRS = (250, 500)
SWEEP_TOL = 1e-11
#: The structured repro grid, used as fit-sweep's validation set and as
#: dense-eval's training set.
STRUCTURED = (101, 21)


@dataclass
class PassResult:
    """Checked outcome of one pass (or of one set-up)."""

    attempted: int = 0
    failed: int = 0
    digits: dict = field(default_factory=dict)
    fit_s: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    #: orders, counts and accuracies that must repeat exactly across passes
    signature: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"failed: {what}", file=sys.stderr)


def digits(max_error: float) -> float:
    """Correct digits of a dense-grid maximum error, -log10(max_error)."""
    return -math.log10(max_error) if max_error > 0 else math.inf


def attempt(fn, *args, **kwargs):
    """Call one operation; return (result, None) or (None, error text)."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def model_finite(model) -> bool:
    from ratapprox import BarycentricModel, PoleResidueModel, StateSpaceModel

    if isinstance(model, StateSpaceModel):
        arrays = (model.E, model.A, model.B, model.C)
    elif isinstance(model, BarycentricModel):
        arrays = (model.support_points, model.support_values, model.weights)
    elif isinstance(model, PoleResidueModel):
        arrays = (model.poles, model.residues, np.array([model.d, model.h]))
    else:
        return False
    return all(np.all(np.isfinite(a)) for a in arrays)


def order_ok(method: str, order: int) -> bool:
    """The order asked for; for AAA, any order up to its cap."""
    if method == "aaa":
        return 1 <= order <= AAA_MAX_ORDER
    return order == {"loewner": LOEWNER_ORDER, "rloewner": RLOEWNER_ORDER, "vf": VF_ORDER}[method]


def scalar_points(rng, n: int) -> list[complex]:
    from ratapprox import OMEGA

    xs = rng.uniform(OMEGA.x_min, OMEGA.x_max, n)
    ys = rng.uniform(OMEGA.y_min, OMEGA.y_max, n)
    return [complex(x, y) for x, y in zip(xs, ys)]


def point_eval(models: dict, points) -> tuple[dict, list[float]]:
    """Scalar ``model.eval(z)`` of every model at each point, one point at a time.

    Returns each model's values and, per point, the seconds the calls for
    all the models took together.
    """
    clock = time.perf_counter
    values = {method: [] for method in models}
    latencies = []
    for z in points:
        t0 = clock()
        row = [model.eval(z) for model in models.values()]
        latencies.append(clock() - t0)
        for out, value in zip(values.values(), row):
            out.append(value)
    return values, latencies


def check_point_eval(result: PassResult, models: dict, points, batch) -> None:
    """One scalar-eval batch per method: finite and equal to the array evaluation."""
    values, latencies = batch
    result.latencies += latencies
    for method in METHODS:
        result.attempted += 1
        if method not in models:
            result.fail(f"{method}: no model to evaluate")
            continue
        got = np.asarray(values[method], dtype=complex)
        want = np.asarray(models[method].eval(np.asarray(points)), dtype=complex)
        if not np.all(np.isfinite(got)):
            result.fail(f"{method} scalar eval returned a non-finite value")
        elif not np.allclose(got, want, rtol=1e-10, atol=0.0):
            result.fail(f"{method} scalar eval differs from the array eval")


class Repro:
    """``ratapprox repro`` in-process, into a scratch directory of the checkout."""

    name = "repro"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> PassResult:
        return PassResult()

    def run_pass(self, rec: Recorder | None):
        from ratapprox import cli

        out = Path(tempfile.mkdtemp(prefix="repro-", dir=self.scratch))
        # untraced passes wrap only the fit entry points, to time the fits
        light = rec is None
        if light:
            rec = Recorder()
        with instrumented(rec, fit_targets()) if light else nullcontext():
            with redirect_stdout(io.StringIO()):
                code = rec.call("cli.repro", cli.main,
                                ["repro", "--out-dir", str(out), "--seed", str(self.seed)])
        return {"code": code, "out": out, "fit_s": fit_seconds(rec)}

    def check(self, raw) -> PassResult:
        res = PassResult(fit_s=raw["fit_s"])
        out = raw["out"]
        try:
            for grid in ("structured_2121", "uniform_2000"):
                rows = _read_compare(out / f"{grid}.compare.csv") if raw["code"] == 0 else {}
                for method in METHODS:
                    res.attempted += 2  # the fit and its dense surface
                    row = rows.get(method)
                    if row is None or row["status"] != "ok":
                        res.fail(f"{grid} {method}: {row['status'] if row else 'no row'}")
                        res.fail(f"{grid} {method}: no surface")
                        continue
                    res.signature.append((grid, method, row["order"], row["max_error"],
                                          row["poles_in_domain"]))
                    if not order_ok(method, row["order"]):
                        res.fail(f"{grid} {method}: order {row['order']}")
                    # the three poles of 1/J0 in the rectangle; VF also keeps
                    # a pole/zero doublet there, so "at least"
                    elif grid == "structured_2121" and row["poles_in_domain"] < 3:
                        res.fail(f"{grid} {method}: {row['poles_in_domain']} poles in the domain")
                    err = row["max_error"]
                    if not math.isfinite(err):
                        res.fail(f"{grid} {method}: non-finite max error")
                    elif grid == "structured_2121":
                        if err > GATES[method]:
                            res.fail(f"{grid} {method}: max error {err:.3e} above {GATES[method]:g}")
                        res.digits[method] = digits(err)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return res


def _read_compare(path: Path) -> dict:
    rows = {}
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        # the status column is last and may itself contain commas
        cells = line.split(",", len(header) - 1)
        row = dict(zip(header, cells))
        rows[row["method"]] = {
            "order": int(row["order"]),
            "max_error": float(row["max_error"]),
            "poles_in_domain": int(row["poles_in_domain"]),
            "status": row["status"],
        }
    return rows


class FitSweep:
    """The fitting calls over structured grids and seeded uniform clouds."""

    name = "fit-sweep"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self) -> PassResult:
        from ratapprox import OMEGA, h_of_s, sample_oracle, structured_grid, uniform_random_grid

        cloud_seeds = np.random.SeedSequence(self.seed).generate_state(len(SWEEP_PAIRS))
        self.sets = [(f"grid{a}", sample_oracle(structured_grid(OMEGA, a, a + 1), h_of_s))
                     for a in SWEEP_GRIDS]
        self.sets += [(f"cloud{pairs}", sample_oracle(uniform_random_grid(OMEGA, pairs, int(s)), h_of_s))
                      for pairs, s in zip(SWEEP_PAIRS, cloud_seeds)]
        self.validation = sample_oracle(structured_grid(OMEGA, *STRUCTURED), h_of_s)
        return PassResult()

    def run_pass(self, rec):
        from ratapprox import aaa, greedy, loewner, vectorfit

        def loewner_fit(samples):
            pencil = loewner.build_pencil(loewner.partition(samples))
            reduction = loewner.truncate(pencil, order=LOEWNER_ORDER)
            projected = loewner.projected_points(pencil, reduction.Y, reduction.X)
            return pencil, reduction, projected

        clock = time.perf_counter
        fit_s = dict.fromkeys(METHODS, 0.0)
        fits = []
        for set_name, samples in self.sets:
            t0 = clock()
            lw, lw_err = attempt(loewner_fit, samples)
            tol, tol_err = attempt(loewner.truncate, lw[0], tol=SWEEP_TOL) if lw else (None, lw_err)
            t1 = clock()
            rl, rl_err = attempt(greedy.fit_greedy, samples, order_target=RLOEWNER_ORDER,
                                 seed=GREEDY_SEED)
            t2 = clock()
            ab, ab_err = attempt(aaa.fit_aaa, samples, tol=AAA_TOL, max_order=AAA_MAX_ORDER)
            t3 = clock()
            vf, vf_err = attempt(vectorfit.fit_vf, samples, order=VF_ORDER, n_iter=VF_ITERATIONS)
            t4 = clock()
            for method, dt in zip(METHODS, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
                fit_s[method] += dt
            models = {
                "loewner": lw[1].model if lw else None,
                "loewner-tol": tol.model if tol else None,
                "rloewner": rl.model if rl else None,
                "aaa": ab[0] if ab else None,
                "vf": vf[0] if vf else None,
            }
            fits.append({
                "set": set_name,
                "models": models,
                "errors": {"loewner": lw_err, "loewner-tol": tol_err, "rloewner": rl_err,
                           "aaa": ab_err, "vf": vf_err},
                "projected": lw[2] if lw else None,
                "iterations": (len(rl.history) if rl else 0, len(ab[1]) if ab else 0,
                               len(vf[1]) if vf else 0),
            })
        return {"fits": fits, "fit_s": fit_s}

    def check(self, raw) -> PassResult:
        res = PassResult(fit_s=raw["fit_s"])
        for fit in raw["fits"]:
            set_name = fit["set"]
            res.signature.append((set_name, fit["iterations"]))
            projected = fit["projected"]
            for kind, model in fit["models"].items():
                res.attempted += 1
                if model is None:
                    res.fail(f"{set_name} {kind}: {fit['errors'][kind]}")
                elif not model_finite(model):
                    res.fail(f"{set_name} {kind}: non-finite model")
                elif kind != "loewner-tol" and not order_ok(kind, model.order):
                    res.fail(f"{set_name} {kind}: order {model.order}")
                elif kind == "loewner" and not (np.all(np.isfinite(projected.lambda_hat))
                                                and np.all(np.isfinite(projected.mu_hat))):
                    res.fail(f"{set_name}: non-finite projected points")
                else:
                    res.signature.append((set_name, kind, model.order))
        # accuracy of the largest structured grid's fits on the 2121-point grid
        largest = raw["fits"][len(SWEEP_GRIDS) - 1]
        for method in METHODS:
            model = largest["models"][method]
            if model is None:
                continue
            err = float(np.max(np.abs(model.eval(self.validation.points) - self.validation.values)))
            res.signature.append((largest["set"], method, err))
            if not err <= GATES[method]:
                res.fail(f"{largest['set']} {method}: validation error {err:.3e} above {GATES[method]:g}")
            res.digits[method] = digits(err)
        return res


class DenseEval:
    """Dense error surfaces and scalar evaluations of four fixed models."""

    name = "dense-eval"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self) -> PassResult:
        from ratapprox import OMEGA, aaa, greedy, h_of_s, loewner, sample_oracle, structured_grid, vectorfit

        samples = sample_oracle(structured_grid(OMEGA, *STRUCTURED), h_of_s)
        fits = (
            ("loewner", lambda: loewner.truncate(
                loewner.build_pencil(loewner.partition(samples)), order=LOEWNER_ORDER).model),
            ("rloewner", lambda: greedy.fit_greedy(
                samples, order_target=RLOEWNER_ORDER, seed=GREEDY_SEED).model),
            ("aaa", lambda: aaa.fit_aaa(samples, tol=AAA_TOL, max_order=AAA_MAX_ORDER)[0]),
            ("vf", lambda: vectorfit.fit_vf(samples, order=VF_ORDER, n_iter=VF_ITERATIONS)[0]),
        )
        res = PassResult()
        self.models = {}
        for method, fit in fits:
            t0 = time.perf_counter()
            model, error = attempt(fit)
            res.fit_s[method] = time.perf_counter() - t0
            res.attempted += 1
            if model is None:
                res.fail(f"{method}: {error}")
            elif not (model_finite(model) and order_ok(method, model.order)):
                res.fail(f"{method}: bad model of order {model.order}")
            else:
                self.models[method] = model
        self.points = scalar_points(np.random.default_rng(self.seed), SCALAR_POINTS)
        return res

    def run_pass(self, rec):
        from ratapprox import OMEGA, analysis, h_of_s

        oracle = rec.wrap("special.h_of_s", h_of_s) if rec is not None else h_of_s
        surfaces = {m: attempt(analysis.error_grid, model, oracle, OMEGA, DENSE_SIDE, DENSE_SIDE)
                    for m, model in self.models.items()}
        return {"surfaces": surfaces, "scalar": point_eval(self.models, self.points)}

    def check(self, raw) -> PassResult:
        res = PassResult()
        for method in METHODS:
            res.attempted += 1
            if method not in self.models:
                res.fail(f"{method}: no model for the surface")
                continue
            report, error = raw["surfaces"][method]
            if report is None:
                res.fail(f"{method} surface: {error}")
                continue
            err = report.max_error
            res.signature.append((method, err, report.n_excluded))
            if not err <= GATES[method]:
                res.fail(f"{method}: max error {err:.3e} above {GATES[method]:g}")
            res.digits[method] = digits(err)
        check_point_eval(res, self.models, self.points, raw["scalar"])
        return res


WORKLOADS = {w.name: w for w in (Repro, FitSweep, DenseEval)}
