"""Cross-method diagnostics: error surfaces, doublet detection, comparison table."""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import aaa, greedy, linalg, loewner, vectorfit
from .errors import PoleError, RatApproxError, SampleError, SettingError, check_count
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

    def grid_points(self) -> np.ndarray:
        return _grid_points(self.domain, self.nx, self.ny)

    def to_csv(self, path, meta: str | None = None) -> None:
        write_csv(path, meta, "re_s,im_s,abs_error", (
            f"{p.real:.17g},{p.imag:.17g},{e:.17g}" for p, e in zip(self.grid_points(), self.errors)
        ))

    def to_svg(self, path) -> None:
        write_heatmap_svg(self, path)


def _grid_axes(domain: Domain, nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    return np.linspace(domain.x_min, domain.x_max, nx), np.linspace(domain.y_min, domain.y_max, ny)


def _grid_points(domain: Domain, nx: int, ny: int) -> np.ndarray:
    xs, ys = _grid_axes(domain, nx, ny)
    return (xs[None, :] + 1j * ys[:, None]).ravel()


@dataclass
class OracleGrid:
    """Oracle values on an nx * ny equispaced grid, row-major as in :class:`ErrorReport`.

    Points where the oracle gives no finite value are marked in
    ``excluded``; where it raises ``PoleError`` the value is NaN.
    """

    domain: Domain
    nx: int
    ny: int
    points: np.ndarray
    values: np.ndarray
    excluded: np.ndarray


def oracle_grid(oracle, domain: Domain, nx: int, ny: int) -> OracleGrid:
    """Evaluate the oracle on the grid once, masking points where it gives no finite value.

    An oracle with a grid method, an ``on_grid(xs, ys)`` attribute returning
    the (ny, nx) surface over the grid's abscissae and ordinates, is called
    once, as :func:`~ratapprox.special.h_of_s` offers
    :func:`~ratapprox.special.h_on_grid`.  Any other oracle is swept over the
    points in batches; a batch whose call raises ``PoleError`` is evaluated
    again point by point, and a point that raises is NaN.  An nx or ny
    that is not an integer of at least 2 raises ``SettingError``; a grid
    surface or a batch of values of another shape than its points raises
    ``SampleError``.
    """
    check_count("nx", nx, 2)
    check_count("ny", ny, 2)
    pts = _grid_points(domain, nx, ny)
    on_grid = getattr(oracle, "on_grid", None)
    if on_grid is not None:
        surface = np.asarray(on_grid(*_grid_axes(domain, nx, ny)), dtype=complex)
        _require_shape(surface, (ny, nx))
        values = surface.ravel()
    else:
        values = linalg.eval_chunked(lambda chunk: _sweep(oracle, chunk), pts)
    return OracleGrid(domain=domain, nx=nx, ny=ny, points=pts, values=values, excluded=~np.isfinite(values))


def _require_shape(values: np.ndarray, shape: tuple, source: str = "oracle") -> None:
    if values.shape != shape:
        raise SampleError(f"{source} gave values of shape {values.shape} for points of shape {shape}")


def _sweep(oracle, chunk: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(oracle(chunk), dtype=complex)
    except PoleError:
        # rare path: pin down the offending points one by one
        vals = np.empty(chunk.size, dtype=complex)
        for k, s in enumerate(chunk):
            try:
                vals[k] = complex(oracle(s))
            except PoleError:
                vals[k] = np.nan
        return vals
    _require_shape(vals, chunk.shape)
    return vals


def model_error(model, truth: OracleGrid, method_tag: str = "") -> ErrorReport:
    """Error surface of ``model`` against oracle values already on a grid.

    ``model`` is any callable, as every model form is.  Values of another
    shape than the grid's points raise ``SampleError``.
    """
    pts = truth.points
    approx = np.asarray(model(pts), dtype=complex)
    _require_shape(approx, pts.shape, f"model {method_tag}".rstrip())
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
    )


def error_grid(model, oracle, domain: Domain, nx: int, ny: int, method_tag: str = "") -> ErrorReport:
    """Evaluate model and oracle on an nx * ny equispaced grid.

    ``model`` is any callable, as every model form is.  Grid points where
    the oracle has a pole are excluded from the surface and counted.
    """
    return model_error(model, oracle_grid(oracle, domain, nx, ny), method_tag)


@dataclass
class CancellationPair:
    """A pole/zero pair close enough to cancel."""

    pole: complex
    zero: complex
    gap: float


#: Default relative gap under which a pole and a zero count as cancelling.
CANCEL_TOL = 1e-6


def detect_cancellations(poles, zeros, rel_tol: float = CANCEL_TOL) -> list[CancellationPair]:
    """Greedy one-to-one nearest matching of poles against zeros.

    Pairs are reported while the globally closest remaining pole/zero pair
    satisfies ``|p - z| <= rel_tol * (1 + |p|)``; each pole and zero is used
    at most once, so shrinking ``rel_tol`` never adds pairs.  A negative or
    NaN ``rel_tol`` raises ``SettingError``.
    """
    if not rel_tol >= 0:
        raise SettingError(f"cancellation tolerance must be non-negative, got {rel_tol}")
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


#: The settings each method takes, with their defaults: the ``DEFAULTS``
#: row of each method's module, whose fit functions take their defaults
#: from it too.  :func:`fit` gives any setting left out or passed as None
#: its value here.
FIT_DEFAULTS: dict[str, dict] = {
    "loewner": loewner.DEFAULTS,
    "rloewner": greedy.DEFAULTS,
    "aaa": aaa.DEFAULTS,
    "vf": vectorfit.DEFAULTS,
}


def _given_settings(method: str, settings: dict) -> dict:
    """The settings that are not None, after checking the method and their names."""
    if method not in FIT_DEFAULTS:
        raise ValueError(f"unknown method {method!r}; pick one of {', '.join(FIT_DEFAULTS)}")
    unknown = sorted(set(settings) - set(FIT_DEFAULTS[method]))
    if unknown:
        raise ValueError(f"{method} takes no setting {', '.join(unknown)}; "
                         f"its settings are {', '.join(FIT_DEFAULTS[method])}")
    return {name: value for name, value in settings.items() if value is not None}


def fit(method: str, samples: SampleSet, **settings):
    """Fit ``samples`` by ``method`` (a key of :data:`FIT_DEFAULTS`); return ``(model, history)``.

    ``history`` is the fit's own record: the :class:`~ratapprox.loewner.LoewnerReduction`,
    the greedy steps, the AAA steps or the VF iterates.  An unknown method,
    or a setting the method does not take, raises ``ValueError``.
    """
    given = _given_settings(method, settings)
    s = FIT_DEFAULTS[method] | given
    if method == "loewner":
        pencil = loewner.build_pencil(loewner.partition(samples, s["scheme"]))
        order = s["order"] if s["tol"] is None else given.get("order")
        reduction = loewner.truncate(pencil, order=order, tol=s["tol"])
        return reduction.model, reduction
    if method == "rloewner":
        result = greedy.fit_greedy(samples, order_target=s["order"], seed=s["seed"])
        return result.model, result.history
    if method == "aaa":
        model, history = aaa.fit_aaa(samples, tol=s["tol"], max_order=s["order"],
                                     real_mode=s["real_mode"], seed=s["seed"])
        if s["cleanup"]:
            model = aaa.cleanup(model, samples)
        return model, history
    return vectorfit.fit_vf(samples, order=s["order"], n_iter=s["iters"])


@dataclass
class MethodRow:
    """One method's row of the comparison; ``fit_s`` and ``eval_s`` are wall times.

    ``fit_s`` covers the fit, ``eval_s`` the error surface and the pole
    count after it (zero when the fit failed).
    """

    method: str
    order: int
    max_error: float
    argmax_point: complex
    fit_s: float
    eval_s: float
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
        header = (f"{'method':<10} {'order':>5} {'max error':>12} {'poles in domain':>16} "
                  f"{'fit [s]':>8} {'eval [s]':>8}  status")
        lines = [header, "-" * len(header)]
        for r in self.rows:
            err = f"{r.max_error:.3e}" if np.isfinite(r.max_error) else "-"
            lines.append(
                f"{r.method:<10} {r.order:>5} {err:>12} {r.poles_in_domain:>16} "
                f"{r.fit_s:>8.2f} {r.eval_s:>8.2f}  {r.status}"
            )
        return "\n".join(lines)


def compare_methods(samples: SampleSet, truth: OracleGrid, settings: dict[str, dict] | None = None) -> ComparisonTable:
    """Fit all four methods on the same samples and tabulate their errors against ``truth``.

    ``settings`` maps a method to its overrides of :data:`FIT_DEFAULTS`; an
    unknown method or setting name raises ``ValueError`` before any fit.
    ``truth`` holds the oracle on the dense grid (see :func:`oracle_grid`);
    one grid serves any number of comparisons on the same domain.  Poles
    are counted inside ``truth.domain``.  Methods that fail (too little
    data, divergence, an invalid setting value) get an error-flag row
    instead of aborting the table.
    """
    settings = settings or {}
    for method, given in settings.items():
        _given_settings(method, given)
    rows: list[MethodRow] = []
    for name in FIT_DEFAULTS:
        started = time.perf_counter()
        fitted = None
        try:
            model, _ = fit(name, samples, **settings.get(name, {}))
            fitted = time.perf_counter()
            report = model_error(model, truth, method_tag=name)
            poles = model.poles_zeros()[0]
            row = dict(order=model.order, max_error=report.max_error, argmax_point=report.argmax_point,
                       poles_in_domain=int(np.count_nonzero(truth.domain.contains(poles))))
        except RatApproxError as exc:
            row = dict(order=0, max_error=float("nan"), argmax_point=0j, poles_in_domain=0,
                       status=f"error: {exc}")
        done = time.perf_counter()
        fitted = done if fitted is None else fitted
        rows.append(MethodRow(method=name, fit_s=fitted - started, eval_s=done - fitted, **row))
    return ComparisonTable(rows=rows, n_samples=len(samples))


#: Most cells (across, down) of the SVG heatmap.
HEATMAP_CELLS = (250, 100)

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


def write_heatmap_svg(report: ErrorReport, path) -> None:
    """Log10 error heatmap; the surface is block-averaged down to ``HEATMAP_CELLS``.

    A block's mean is over its points that are not NaN (excluded), as
    ``np.nanmean`` takes it; a block of excluded points only is drawn
    white.  The colour ramp runs from the decade below the smallest finite
    block mean to the decade above the largest, both printed in the
    legend; an infinite block takes the top colour.
    """
    err = report.errors.reshape(report.ny, report.nx)
    bx = max(1, int(np.ceil(report.nx / HEATMAP_CELLS[0])))
    by = max(1, int(np.ceil(report.ny / HEATMAP_CELLS[1])))
    ny_c = report.ny // by
    nx_c = report.nx // bx
    trimmed = err[: ny_c * by, : nx_c * bx].reshape(ny_c, by, nx_c, bx)
    kept = ~np.isnan(trimmed)
    with np.errstate(invalid="ignore"):  # 0 / 0 for a block of excluded points only
        blocks = np.where(kept, trimmed, 0.0).sum(axis=(1, 3)) / kept.sum(axis=(1, 3))
    with np.errstate(divide="ignore"):
        logs = np.log10(np.where(blocks > 0, blocks, np.nan))
    if np.all(np.isnan(logs)):
        # zero or fully excluded surface: render flat at a nominal floor
        logs = np.full_like(logs, -16.0)
    # the ramp spans whole decades, so a change within a decade recolours only its own cells;
    # it spans the finite blocks, from the floor when every block is infinite
    finite = logs[np.isfinite(logs)] if np.isfinite(logs).any() else np.array([-16.0])
    lo = int(np.floor(finite.min()))
    hi = max(int(np.ceil(finite.max())), lo + 1)
    span = hi - lo
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
        f"log10|err| in [{lo}, {hi}], max {report.max_error:.3e} at "
        f"{report.argmax_point:.4f}</text>"
    )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
