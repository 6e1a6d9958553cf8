"""Command-line driver.

Every benchmark experiment is reachable from the shell: sampling the
oracle, fitting any of the four methods, dense-grid error evaluation,
pole/zero reports, projected interpolation points, the densification
trajectory study, the four-method comparison, and a one-shot ``repro``
that chains the whole benchmark for both sampling schemes.

All outputs are plain CSV/JSON/SVG carrying a metadata line with the
package version, the seed and the exact command line, so runs diff
cleanly.  Errors leave exit code 1 and a machine-readable JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__

#: The benchmark's sizes: the structured sample grid, the conjugate pairs
#: of the uniform cloud, and the side of the dense error grid.
_STRUCTURED = (101, 21)
_PAIRS = 1000
_DENSE = 500


def _command_line(args) -> str:
    return " ".join(getattr(args, "_argv", None) or sys.argv[1:] or [args.command])


def _meta_line(args, seed=None) -> str:
    return f"ratapprox v{__version__} seed={seed if seed is not None else 'none'} cmd=\"{_command_line(args)}\""


def _parse_domain(text):
    from .sampling import Domain

    parts = [float(t) for t in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("domain must be x_min,x_max,y_min,y_max")
    return Domain(*parts)


def build_parser() -> argparse.ArgumentParser:
    from .analysis import CANCEL_TOL, FIT_DEFAULTS
    from .loewner import PARTITION_SCHEMES

    parser = argparse.ArgumentParser(prog="ratapprox", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ratapprox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample the 1/J0 oracle on a grid and write CSV")
    p.add_argument("--grid", choices=("structured", "uniform"), default="structured")
    p.add_argument("--nx", type=int, default=_STRUCTURED[0])
    p.add_argument("--ny", type=int, default=_STRUCTURED[1])
    p.add_argument("--pairs", type=int, default=_PAIRS, help="conjugate pairs for the uniform grid")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", type=_parse_domain, default=None, help="x_min,x_max,y_min,y_max")
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit a rational model to a sample CSV")
    # settings left out take analysis.FIT_DEFAULTS; one the method does not take is an error
    p.add_argument("--method", choices=tuple(FIT_DEFAULTS), required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--order", type=int, help="model order; the order cap for aaa")
    p.add_argument("--tol", type=float, help="loewner: truncation tolerance; aaa: stopping tolerance")
    p.add_argument("--iters", type=int, help="vf pole-relocation iterations")
    p.add_argument("--scheme", choices=PARTITION_SCHEMES, help="loewner partition scheme")
    p.add_argument("--seed", type=int, default=FIT_DEFAULTS["rloewner"]["seed"],
                   help="rloewner start; aaa start with --seed-random")
    p.add_argument("--real-mode", action="store_true", default=None, help="aaa: enforce real symmetry")
    p.add_argument("--seed-random", action="store_true", help="aaa: random first support point")
    p.add_argument("--cleanup", action="store_true", default=None, help="aaa: drop spurious pole/zero doublets")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="dense-grid error surface of a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--nx", type=int, default=_DENSE)
    p.add_argument("--ny", type=int, default=_DENSE)
    p.add_argument("--domain", type=_parse_domain, default=None)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("poles", help="pole/zero report for a fitted model")
    p.add_argument("--model", required=True)
    p.add_argument("--match-bessel", action="store_true",
                   help="report distances to the tabulated J0 zeros")
    p.add_argument("--cancel-tol", type=float, default=CANCEL_TOL)

    p = sub.add_parser("project", help="projected interpolation points of a Loewner fit")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--order", type=int, default=FIT_DEFAULTS["loewner"]["order"])
    p.add_argument("--scheme", choices=PARTITION_SCHEMES, default=FIT_DEFAULTS["loewner"]["scheme"])
    p.add_argument("--out", default=None)

    p = sub.add_parser("trajectories", help="projected points under grid densification")
    p.add_argument("--a", type=int, default=10)
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--order", type=int, default=FIT_DEFAULTS["loewner"]["order"])
    p.add_argument("--scheme", choices=PARTITION_SCHEMES, default=FIT_DEFAULTS["loewner"]["scheme"])
    p.add_argument("--domain", type=_parse_domain, default=None)
    p.add_argument("--out-prefix", required=True)

    p = sub.add_parser("compare", help="run all four methods on one sample CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--orders", help="loewner,rloewner,aaa-max,vf orders")
    p.add_argument("--tol", type=float, help="aaa stopping tolerance")
    p.add_argument("--nx", type=int, default=_DENSE)
    p.add_argument("--ny", type=int, default=_DENSE)
    p.add_argument("--seed", type=int, default=FIT_DEFAULTS["rloewner"]["seed"], help="rloewner start")
    p.add_argument("--out-prefix", default=None)

    p = sub.add_parser("repro", help="full benchmark: both grids, all four methods")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nx", type=int, default=_DENSE, help="dense evaluation grid width")
    p.add_argument("--ny", type=int, default=_DENSE)

    return parser


def _cmd_sample(args) -> int:
    from .sampling import OMEGA, sample_oracle, structured_grid, uniform_random_grid
    from .special import h_of_s

    domain = args.domain or OMEGA
    if args.grid == "structured":
        points = structured_grid(domain, args.nx, args.ny)
        seed = None
    else:
        points = uniform_random_grid(domain, args.pairs, args.seed)
        seed = args.seed
    samples = sample_oracle(points, h_of_s)
    samples.to_csv(args.out, meta=_meta_line(args, seed))
    print(f"wrote {len(samples)} samples to {args.out}")
    return 0


def _side_path(out: str, suffix: str) -> str:
    return f"{os.path.splitext(out)[0]}.{suffix}"


def _cmd_fit(args) -> int:
    from .analysis import fit
    from .sampling import SampleSet, write_csv
    from .serialize import save_model

    samples = SampleSet.from_csv(args.infile)
    flags = {"order": args.order, "tol": args.tol, "iters": args.iters, "scheme": args.scheme,
             "real_mode": args.real_mode, "cleanup": args.cleanup,
             # --seed labels every run, and seeds the fit only where it picks a random start
             "seed": args.seed if args.method == "rloewner" or args.seed_random else None}
    model, history = fit(args.method, samples, **{k: v for k, v in flags.items() if v is not None})
    meta_line = _meta_line(args, args.seed)
    save_model(model, args.out, meta={"version": __version__, "seed": args.seed,
                                      "command": _command_line(args), "method": args.method,
                                      "source": args.infile, "order": model.order})
    done = f"{args.method} order {model.order}"

    if args.method == "loewner":
        sv_path = _side_path(args.out, "singular_values.csv")
        sigma = history.singular_values
        q, k = history.Y.shape[0], history.X.shape[0]
        if history.shift is None:
            matrix = f"{min(q, 2 * k)} singular values of [L, Ls]"
        else:
            matrix = f"{min(q, k)} singular values of x L - Ls at x = {history.shift:.17g}"
        write_csv(sv_path, meta_line, "index,sigma,sigma_normalized",
                  (f"{i + 1},{s:.17g},{s / sigma[0]:.17g}" for i, s in enumerate(sigma)),
                  comments=[f"leading {sigma.size} of {matrix}"])
        print(f"{done}; model -> {args.out}, singular values -> {sv_path}")
        return 0

    hist_path = _side_path(args.out, "history.csv")
    outputs = f"model -> {args.out}, history -> {hist_path}"
    if args.method == "rloewner":
        write_csv(hist_path, meta_line, "step,n_left,n_right,max_error,chosen_re,chosen_im", (
            f"{step.step},{step.n_left},{step.n_right},"
            f"{step.max_error:.17g},{point.real:.17g},{point.imag:.17g}"
            for step in history for point in step.chosen
        ))
        print(f"{done} in {len(history)} steps; {outputs}")
    elif args.method == "aaa":
        write_csv(hist_path, meta_line, "order,max_error",
                  (f"{step.order},{step.max_error:.17g}" for step in history))
        support_path = _side_path(args.out, "support.csv")
        write_csv(support_path, meta_line, "re_s,im_s",
                  (f"{z.real:.17g},{z.imag:.17g}" for z in model.support_points))
        print(f"{done}; {outputs}, support points -> {support_path}")
    else:
        write_csv(hist_path, meta_line, "iter,max_pole_move,linearized_residual", (
            f"{it.iteration},{it.max_pole_move:.17g},{it.linearized_residual:.17g}" for it in history
        ))
        flagged = sum(it.ill_conditioned for it in history)
        note = f" ({flagged} ill-conditioned iterations)" if flagged else ""
        print(f"{done} in {len(history)} iterations{note}; {outputs}")
    return 0


def _cmd_eval(args) -> int:
    from .analysis import error_grid
    from .sampling import OMEGA
    from .serialize import load_model
    from .special import h_of_s

    model = load_model(args.model)
    domain = args.domain or OMEGA
    report = error_grid(model, h_of_s, domain, args.nx, args.ny, method_tag=Path(args.model).stem)
    csv_path = f"{args.out_prefix}.errors.csv"
    svg_path = f"{args.out_prefix}.heatmap.svg"
    summary_path = f"{args.out_prefix}.summary.json"
    report.to_csv(csv_path, meta=_meta_line(args))
    report.to_svg(svg_path)
    with open(summary_path, "w") as fh:
        json.dump(
            {
                # strict JSON has no infinity or NaN
                "max_error": report.max_error if math.isfinite(report.max_error) else None,
                "argmax": [report.argmax_point.real, report.argmax_point.imag],
                "nx": report.nx,
                "ny": report.ny,
                "n_excluded": report.n_excluded,
                "meta": _meta_line(args),
            },
            fh,
            indent=1,
            allow_nan=False,
        )
        fh.write("\n")
    print(f"max |error| = {report.max_error:.6e} at s = {report.argmax_point:.6f}")
    print(f"wrote {csv_path}, {svg_path}, {summary_path}")
    return 0


def _fmt_value(z: complex) -> str:
    # report style: 15 significant digits on the real part, 5 on the imaginary
    if z.imag == 0:
        return f"{z.real:.15g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.15g} {sign} {abs(z.imag):.5g}i"


def _cmd_poles(args) -> int:
    import numpy as np

    from .analysis import detect_cancellations, match_known_zeros
    from .serialize import load_model
    from .special import BESSEL_J0_ZEROS

    model = load_model(args.model)
    poles, zeros = model.poles_zeros()
    poles = np.sort_complex(poles)
    zeros = np.sort_complex(zeros)
    pairs = detect_cancellations(poles, zeros, rel_tol=args.cancel_tol)
    print(f"poles ({poles.size}):")
    for p in poles:
        print(f"  {_fmt_value(p)}")
    print(f"zeros ({zeros.size}):")
    for z in zeros:
        print(f"  {_fmt_value(z)}")
    if pairs:
        print(f"cancellation pairs (tol {args.cancel_tol:g}):")
        for pair in pairs:
            print(f"  pole {_fmt_value(pair.pole)} ~ zero {_fmt_value(pair.zero)} "
                  f"(gap {pair.gap:.3e})")
    else:
        print(f"no pole/zero cancellations at tol {args.cancel_tol:g}")
    if args.match_bessel:
        print("nearest poles to the tabulated J0 zeros:")
        for match_ in match_known_zeros(poles, BESSEL_J0_ZEROS):
            print(f"  {match_.reference:.14f} -> {_fmt_value(match_.nearest_pole)} "
                  f"(distance {match_.distance:.3e})")
    return 0


def _cmd_project(args) -> int:
    import numpy as np

    from .loewner import build_pencil, partition, projected_points, truncate
    from .sampling import SampleSet, write_csv

    samples = SampleSet.from_csv(args.infile)
    pencil = build_pencil(partition(samples, args.scheme))
    red = truncate(pencil, order=args.order)
    proj = projected_points(pencil, red.Y, red.X)
    print(f"right projected points ({proj.lambda_hat.size}):")
    for z in np.sort_complex(proj.lambda_hat):
        print(f"  {_fmt_value(z)}")
    print(f"left projected points ({proj.mu_hat.size}):")
    for z in np.sort_complex(proj.mu_hat):
        print(f"  {_fmt_value(z)}")
    if args.out:
        write_csv(args.out, _meta_line(args), "side,re,im", (
            f"{side},{z.real:.17g},{z.imag:.17g}"
            for side, zs in (("right", proj.lambda_hat), ("left", proj.mu_hat)) for z in zs
        ))
    total = proj.lambda_hat.size + proj.mu_hat.size
    print(f"compression: {len(samples)} -> {total} interpolation points")
    return 0


def _cmd_trajectories(args) -> int:
    import numpy as np

    from .loewner import trajectory_study
    from .sampling import OMEGA, write_csv
    from .special import h_of_s

    domain = args.domain or OMEGA
    steps = trajectory_study(h_of_s, domain, a=args.a, n_steps=args.steps,
                             order=args.order, scheme=args.scheme)
    path = f"{args.out_prefix}.trajectories.csv"
    write_csv(path, _meta_line(args), "step,nx,ny,n_points,side,re,im", (
        f"{i},{step.nx},{step.ny},{step.n_points},{side},{z.real:.17g},{z.imag:.17g}"
        for i, step in enumerate(steps, start=1)
        for side, zs in (("right", step.projected.lambda_hat), ("left", step.projected.mu_hat))
        for z in zs
    ))
    for i, step in enumerate(steps, start=1):
        # distance from the worst-placed right point to its nearest left point;
        # it contracts as the grids densify
        gap = max(float(np.min(np.abs(step.projected.mu_hat - lam))) for lam in step.projected.lambda_hat)
        print(f"step {i}: {step.nx}x{step.ny} grid ({step.n_points} points), "
              f"worst left/right pairing gap {gap:.3e}")
    print(f"wrote {len(steps)} densification steps to {path}")
    return 0


def _cmd_compare(args) -> int:
    from .analysis import FIT_DEFAULTS, compare_methods, oracle_grid
    from .errors import SettingError
    from .sampling import OMEGA, SampleSet
    from .special import h_of_s

    samples = SampleSet.from_csv(args.infile)
    try:
        orders = [None] * 4 if args.orders is None else [int(t) for t in args.orders.split(",")]
    except ValueError:
        orders = []
    if len(orders) != 4:
        raise SettingError(f"--orders needs four comma-separated integers, got {args.orders!r}")
    settings = {method: {"order": order} for method, order in zip(FIT_DEFAULTS, orders)}
    settings["rloewner"]["seed"] = args.seed
    settings["aaa"]["tol"] = args.tol
    table = compare_methods(samples, oracle_grid(h_of_s, OMEGA, args.nx, args.ny), settings)
    print(table.to_text())
    if args.out_prefix:
        csv_path, txt_path = _write_compare(table, args.out_prefix, _meta_line(args, args.seed))
        print(f"wrote {csv_path} and {txt_path}")
    return 0


def _write_compare(table, prefix, meta: str) -> tuple[str, str]:
    """Write ``<prefix>.compare.csv`` and ``<prefix>.compare.txt``; return both paths."""
    csv_path = f"{prefix}.compare.csv"
    txt_path = f"{prefix}.compare.txt"
    table.to_csv(csv_path, meta=meta)
    with open(txt_path, "w") as fh:
        fh.write(table.to_text() + "\n")
    return csv_path, txt_path


def _cmd_repro(args) -> int:
    from .analysis import compare_methods, oracle_grid
    from .sampling import OMEGA, sample_oracle, structured_grid, uniform_random_grid
    from .special import h_of_s

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # both sample grids are compared against one oracle surface
    truth = oracle_grid(h_of_s, OMEGA, args.nx, args.ny)
    settings = {"rloewner": {"seed": args.seed}}
    cases = (
        ("structured", sample_oracle(structured_grid(OMEGA, *_STRUCTURED), h_of_s), None),
        ("uniform", sample_oracle(uniform_random_grid(OMEGA, _PAIRS, args.seed), h_of_s), args.seed),
    )
    for grid, samples, seed in cases:
        name = f"{grid}_{len(samples)}"
        sample_path = out / f"{name}.samples.csv"
        samples.to_csv(sample_path, meta=_meta_line(args, seed))
        table = compare_methods(samples, truth, settings)
        _write_compare(table, out / name, _meta_line(args, seed))
        print(f"== {name} ({len(samples)} samples) ==")
        print(table.to_text())
        print()
    print(f"all outputs in {out}")
    return 0


_COMMANDS = {
    "sample": _cmd_sample,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "poles": _cmd_poles,
    "project": _cmd_project,
    "trajectories": _cmd_trajectories,
    "compare": _cmd_compare,
    "repro": _cmd_repro,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._argv = list(argv) if argv is not None else sys.argv[1:]
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not crashes
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
