"""Cross-method diagnostics: error surfaces, doublet detection, comparison table."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import PoleError, RatApproxError
from .sampling import Domain, SampleSet, write_csv


@dataclass
class ErrorReport:
    """Absolute error |model - oracle| on a dense rectangular grid.

    ``errors`` is row-major over ordinates then abscissae (shape ny * nx
    flattened); grid points where the oracle has a pole are NaN and counted
    in ``n_excluded``.
    """

    domain: Domain
    nx: int
    ny: int
    max_error: float
    argmax_point: complex
    errors: np.ndarray
    n_excluded: int = 0
    method_tag: str = ""
    order: int = 0

    def grid_points(self) -> np.ndarray:
        return _grid_points(self.domain, self.nx, self.ny)

    def to_csv(self, path, meta: str | None = None) -> None:
        write_csv(path, meta, "re_s,im_s,abs_error", (
            f"{p.real:.17g},{p.imag:.17g},{e:.17g}" for p, e in zip(self.grid_points(), self.errors)
        ))

    def to_svg(self, path, max_cells: tuple[int, int] = (250, 100)) -> None:
        write_heatmap_svg(self, path, max_cells=max_cells)


def _call_evaluator(model, pts: np.ndarray) -> np.ndarray:
    evaluate = model.eval if hasattr(model, "eval") else model
    return np.asarray(evaluate(pts), dtype=complex)


def _grid_points(domain: Domain, nx: int, ny: int) -> np.ndarray:
    xs = np.linspace(domain.x_min, domain.x_max, nx)
    ys = np.linspace(domain.y_min, domain.y_max, ny)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


@dataclass
class OracleGrid:
    """Oracle values on an nx * ny equispaced grid, row-major as in :class:`ErrorReport`.

    Points where the oracle reports a pole are NaN in ``values`` and marked
    in ``excluded``.
    """

    domain: Domain
    nx: int
    ny: int
    points: np.ndarray
    values: np.ndarray
    excluded: np.ndarray


def oracle_grid(oracle, domain: Domain, nx: int = 500, ny: int = 500) -> OracleGrid:
    """Evaluate the oracle on the grid once, masking points where it reports a pole."""
    if nx < 2 or ny < 2:
        raise ValueError("need nx >= 2 and ny >= 2")
    pts = _grid_points(domain, nx, ny)
    excluded = np.zeros(pts.size, dtype=bool)

    def sweep(index):
        # batches of grid indices, so each one marks its own slice of the
        # mask whichever thread evaluates it
        lo = int(index[0].real)
        chunk, mask = pts[lo : lo + index.size], excluded[lo : lo + index.size]
        try:
            return np.asarray(oracle(chunk), dtype=complex)
        except PoleError:
            # rare path: pin down the offending points one by one
            vals = np.empty(chunk.size, dtype=complex)
            for k, s in enumerate(chunk):
                try:
                    vals[k] = complex(oracle(s))
                except PoleError:
                    vals[k] = np.nan
                    mask[k] = True
            return vals

    values = linalg.eval_chunked(sweep, np.arange(pts.size))
    return OracleGrid(domain=domain, nx=nx, ny=ny, points=pts, values=values, excluded=excluded)


def model_error(model, truth: OracleGrid, method_tag: str = "", order: int = 0) -> ErrorReport:
    """Error surface of ``model`` against oracle values already on a grid.

    ``model`` is anything with an ``eval`` method or a plain callable.
    """
    pts = truth.points
    approx = _call_evaluator(model, pts)
    err = np.abs(approx - truth.values)
    err[truth.excluded] = np.nan
    finite = np.where(truth.excluded, -np.inf, err)
    argmax = int(np.argmax(finite))
    return ErrorReport(
        domain=truth.domain,
        nx=truth.nx,
        ny=truth.ny,
        max_error=float(err[argmax]),
        argmax_point=complex(pts[argmax]),
        errors=err,
        n_excluded=int(truth.excluded.sum()),
        method_tag=method_tag,
        order=order,
    )


def error_grid(
    model,
    oracle,
    domain: Domain,
    nx: int = 500,
    ny: int = 500,
    method_tag: str = "",
    order: int = 0,
) -> ErrorReport:
    """Evaluate model and oracle on an nx * ny equispaced grid.

    ``model`` is anything with an ``eval`` method or a plain callable.
    Oracle poles hit by the grid are excluded from the surface and counted.
    """
    return model_error(model, oracle_grid(oracle, domain, nx, ny), method_tag, order)


@dataclass
class CancellationPair:
    """A pole/zero pair close enough to cancel."""

    pole: complex
    zero: complex
    gap: float


def detect_cancellations(poles, zeros, rel_tol: float = 1e-6) -> list[CancellationPair]:
    """Greedy one-to-one nearest matching of poles against zeros.

    Pairs are reported while the globally closest remaining pole/zero pair
    satisfies ``|p - z| <= rel_tol * (1 + |p|)``; each pole and zero is used
    at most once, so shrinking ``rel_tol`` never adds pairs.
    """
    poles = list(np.asarray(poles, dtype=complex))
    zeros = list(np.asarray(zeros, dtype=complex))
    pairs: list[CancellationPair] = []
    while poles and zeros:
        gaps = np.abs(np.subtract.outer(poles, zeros))
        i, j = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
        pole, zero = poles[i], zeros[j]
        if abs(pole - zero) > rel_tol * (1.0 + abs(pole)):
            break
        pairs.append(CancellationPair(pole=pole, zero=zero, gap=float(abs(pole - zero))))
        poles.pop(i)
        zeros.pop(j)
    return pairs


@dataclass
class ZeroMatch:
    reference: float
    nearest_pole: complex
    distance: float


def match_known_zeros(poles, reference) -> list[ZeroMatch]:
    """For each reference abscissa, the nearest model pole and its distance."""
    poles = np.asarray(poles, dtype=complex)
    if poles.size == 0:
        return []
    out = []
    for ref in reference:
        k = int(np.argmin(np.abs(poles - ref)))
        out.append(ZeroMatch(reference=float(ref), nearest_pole=complex(poles[k]), distance=float(abs(poles[k] - ref))))
    return out


@dataclass
class CompareConfig:
    """Orders and tolerances for the four-method comparison."""

    loewner_order: int = 11
    rloewner_order: int = 11
    aaa_tol: float = 1e-13
    aaa_max_order: int = 30
    vf_order: int = 12
    vf_iterations: int = 20
    grid_nx: int = 500
    grid_ny: int = 500
    partition_scheme: str = "epsilon_paired"
    seed: int = 0
    domain: Domain = field(default_factory=Domain)


@dataclass
class MethodRow:
    method: str
    order: int
    max_error: float
    argmax_point: complex
    elapsed_s: float
    poles_in_domain: int
    status: str = "ok"


@dataclass
class ComparisonTable:
    rows: list[MethodRow]
    n_samples: int

    def to_csv(self, path, meta: str | None = None) -> None:
        # timings are excluded here so identical runs produce identical bytes
        write_csv(path, meta, "method,order,max_error,argmax_re,argmax_im,poles_in_domain,status", (
            f"{r.method},{r.order},{r.max_error:.17g},"
            f"{r.argmax_point.real:.17g},{r.argmax_point.imag:.17g},"
            f"{r.poles_in_domain},{r.status}"
            for r in self.rows
        ))

    def to_text(self) -> str:
        header = f"{'method':<10} {'order':>5} {'max error':>12} {'poles in domain':>16} {'time [s]':>9}  status"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            err = f"{r.max_error:.3e}" if np.isfinite(r.max_error) else "-"
            lines.append(
                f"{r.method:<10} {r.order:>5} {err:>12} {r.poles_in_domain:>16} "
                f"{r.elapsed_s:>9.2f}  {r.status}"
            )
        return "\n".join(lines)


def compare_methods(samples: SampleSet, oracle, config: CompareConfig | None = None) -> ComparisonTable:
    """Fit all four methods on the same samples and tabulate dense-grid errors.

    Methods that fail (too little data, divergence) get an error-flag row
    instead of aborting the table.
    """
    from . import aaa as aaa_mod
    from . import greedy, loewner, vectorfit

    cfg = config or CompareConfig()

    def run_loewner():
        pencil = loewner.build_pencil(loewner.partition(samples, cfg.partition_scheme))
        return loewner.truncate(pencil, order=cfg.loewner_order).model

    def run_rloewner():
        return greedy.fit_greedy(samples, order_target=cfg.rloewner_order, seed=cfg.seed).model

    def run_aaa():
        return aaa_mod.fit_aaa(samples, tol=cfg.aaa_tol, max_order=cfg.aaa_max_order)[0]

    def run_vf():
        return vectorfit.fit_vf(samples, order=cfg.vf_order, n_iter=cfg.vf_iterations)[0]

    # the oracle surface is shared by all methods; computed at the first
    # successful fit, so a table of failed fits costs no oracle sweep
    truth: OracleGrid | None = None

    rows: list[MethodRow] = []
    for name, runner in (
        ("loewner", run_loewner),
        ("rloewner", run_rloewner),
        ("aaa", run_aaa),
        ("vf", run_vf),
    ):
        started = time.perf_counter()
        try:
            model = runner()
            if truth is None:
                truth = oracle_grid(oracle, cfg.domain, cfg.grid_nx, cfg.grid_ny)
            report = model_error(model, truth, method_tag=name)
            poles = model.poles_zeros()[0]
            rows.append(
                MethodRow(
                    method=name,
                    order=model.order,
                    max_error=report.max_error,
                    argmax_point=report.argmax_point,
                    elapsed_s=time.perf_counter() - started,
                    poles_in_domain=int(np.count_nonzero(cfg.domain.contains(poles))),
                )
            )
        except RatApproxError as exc:
            rows.append(
                MethodRow(
                    method=name,
                    order=0,
                    max_error=float("nan"),
                    argmax_point=0j,
                    elapsed_s=time.perf_counter() - started,
                    poles_in_domain=0,
                    status=f"error: {exc}",
                )
            )
    return ComparisonTable(rows=rows, n_samples=len(samples))


# minimal inferno-like ramp for the SVG heatmap, dark = small error
_RAMP = (
    (0.001462, 0.000466, 0.013866),
    (0.229739, 0.059471, 0.439703),
    (0.549034, 0.160531, 0.505780),
    (0.843848, 0.273391, 0.371566),
    (0.981082, 0.521069, 0.175413),
    (0.973590, 0.843848, 0.265544),
    (0.988362, 0.998364, 0.644924),
)


def _ramp_color(t: float) -> str:
    t = min(max(t, 0.0), 1.0) * (len(_RAMP) - 1)
    i = min(int(t), len(_RAMP) - 2)
    frac = t - i
    rgb = [(1 - frac) * a + frac * b for a, b in zip(_RAMP[i], _RAMP[i + 1])]
    return "#{:02x}{:02x}{:02x}".format(*(int(round(255 * c)) for c in rgb))


def write_heatmap_svg(report: ErrorReport, path, max_cells: tuple[int, int] = (250, 100)) -> None:
    """Log10 error heatmap; the surface is block-averaged down to ``max_cells``."""
    err = report.errors.reshape(report.ny, report.nx)
    bx = max(1, int(np.ceil(report.nx / max_cells[0])))
    by = max(1, int(np.ceil(report.ny / max_cells[1])))
    ny_c = report.ny // by
    nx_c = report.nx // bx
    trimmed = err[: ny_c * by, : nx_c * bx]
    with np.errstate(invalid="ignore"):
        blocks = np.nanmean(trimmed.reshape(ny_c, by, nx_c, bx), axis=(1, 3))
    with np.errstate(divide="ignore"):
        logs = np.log10(np.where(blocks > 0, blocks, np.nan))
    if np.all(np.isnan(logs)):
        # zero or fully excluded surface: render flat at a nominal floor
        logs = np.full_like(logs, -16.0)
    lo = float(np.nanmin(logs))
    hi = float(np.nanmax(logs))
    span = (hi - lo) if hi > lo else 1.0
    cell_w, cell_h = 4, 4
    width = nx_c * cell_w
    height = ny_c * cell_h + 18
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<title>log10 |error|, {report.method_tag or "model"} on '
        f"[{report.domain.x_min:g},{report.domain.x_max:g}]x"
        f"[{report.domain.y_min:g},{report.domain.y_max:g}]</title>",
    ]
    for iy in range(ny_c):
        # SVG y axis points down; put y_max at the top
        row = ny_c - 1 - iy
        for ix in range(nx_c):
            val = logs[row, ix]
            color = "#ffffff" if np.isnan(val) else _ramp_color((val - lo) / span)
            parts.append(
                f'<rect x="{ix * cell_w}" y="{iy * cell_h}" width="{cell_w}" '
                f'height="{cell_h}" fill="{color}"/>'
            )
    parts.append(
        f'<text x="2" y="{height - 5}" font-size="10" font-family="monospace">'
        f"log10|err| in [{lo:.2f}, {hi:.2f}], max {report.max_error:.3e} at "
        f"{report.argmax_point:.4f}</text>"
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
