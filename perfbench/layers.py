"""Where each ratapprox layer is wrapped, and the per-layer metrics of a traced pass.

Each target is patched at the place its caller looks the name up:

- ``greedy`` imported ``build_pencil`` and ``truncate`` by name, so those
  two are wrapped in ``greedy``'s namespace as well as in ``loewner``'s;
- ``aaa`` and ``vectorfit`` models call ``eval_barycentric`` and
  ``eval_pole_residue`` as module globals;
- ``StateSpaceModel.eval`` is reached through ``model.eval``, so it is
  wrapped on the class;
- ``linalg.svd`` is a module global of ``linalg`` that ``least_squares``
  and ``smallest_singular_vector`` also call;
- ``cli`` imports ``h_of_s``, ``sample_oracle`` and ``compare_methods``
  inside the command function, so it reads the module attributes at each
  call. Workloads that call ``error_grid`` themselves pass a wrapped oracle.

``serialize`` is on no workload's path and is not wrapped.
"""

from __future__ import annotations

import numpy as np

from spans import Recorder

LAYERS = ("special", "sampling", "loewner", "linalg", "greedy", "aaa", "vectorfit", "analysis", "cli")

# span names of the calls that make up one fit of each method
FIT_SPANS = {
    "loewner": ("loewner.partition", "loewner.build_pencil", "loewner.truncate"),
    "rloewner": ("greedy.fit",),
    "aaa": ("aaa.fit",),
    "vf": ("vectorfit.fit",),
}


def fit_targets():
    """The fit entry points as ``analysis.compare_methods`` looks them up."""
    from ratapprox import aaa, greedy, loewner, vectorfit

    return [
        (loewner, "partition", "loewner.partition"),
        (loewner, "build_pencil", "loewner.build_pencil"),
        (loewner, "truncate", "loewner.truncate"),
        (greedy, "fit_greedy", "greedy.fit"),
        (aaa, "fit_aaa", "aaa.fit"),
        (vectorfit, "fit_vf", "vectorfit.fit"),
    ]


def all_targets():
    from ratapprox import aaa, analysis, greedy, linalg, loewner, sampling, special, vectorfit

    return fit_targets() + [
        (special, "h_of_s", "special.h_of_s"),
        (sampling, "sample_oracle", "sampling.sample_oracle"),
        (loewner, "projected_points", "loewner.projected_points"),
        (loewner, "poles", "loewner.poles_zeros"),
        (loewner, "zeros", "loewner.poles_zeros"),
        (loewner.StateSpaceModel, "eval", "loewner.eval"),
        (greedy, "build_pencil", "loewner.build_pencil"),
        (greedy, "truncate", "loewner.truncate"),
        (linalg, "svd", "linalg.svd"),
        (linalg, "least_squares", "linalg.lstsq"),
        (linalg, "smallest_singular_vector", "linalg.lstsq"),
        (linalg, "finite_generalized_eigenvalues", "linalg.geig"),
        (aaa, "eval_barycentric", "aaa.eval"),
        (aaa, "barycentric_poles_zeros", "aaa.poles_zeros"),
        (vectorfit, "eval_pole_residue", "vectorfit.eval"),
        (analysis, "error_grid", "analysis.error_grid"),
        (analysis, "compare_methods", "analysis.compare_methods"),
    ]


def _svd_note(args, kwargs, result):
    m, n = np.shape(args[0])
    k = min(m, n)
    itemsize = np.asarray(args[0]).itemsize
    return {
        "work": m * n * k,
        "bytes": itemsize * (m * n + m * k + k * n) + 8 * k,
    }


def _truncate_note(args, kwargs, result):
    q, k = args[0].shape
    # thin SVDs of [L, Ls] (q x 2k) and [L; Ls] (2q x k); 'order' of each is kept
    return {"used": 2 * result.model.order, "computed": min(q, 2 * k) + min(2 * q, k)}


def _points_note(args, kwargs, result):
    return {"points": int(np.size(args[-1]))}


NOTES = {
    "linalg.svd": _svd_note,
    "loewner.truncate": _truncate_note,
    # model.eval(s) and eval_*(model, s): the points are the last argument
    "loewner.eval": _points_note,
    "aaa.eval": _points_note,
    "vectorfit.eval": _points_note,
    "greedy.fit": lambda a, k, r: {"steps": len(r.history)},
    "aaa.fit": lambda a, k, r: {"iterations": len(r[1])},
    "vectorfit.fit": lambda a, k, r: {
        "iterations": len(r[1]),
        "ill_conditioned": sum(bool(it.ill_conditioned) for it in r[1]),
    },
}


class LayerRecorder(Recorder):
    """Recorder with the notes above; also keeps every oracle input to count distinct points."""

    def __init__(self):
        super().__init__(notes=NOTES | {"special.h_of_s": self._oracle_note})
        self.oracle_inputs: list[np.ndarray] = []

    def _oracle_note(self, args, kwargs, result):
        self.oracle_inputs.append(np.asarray(args[0], dtype=complex).ravel())
        return {"points": int(np.size(args[0])), "scalar": bool(np.ndim(args[0]) == 0)}


def fit_seconds(rec: Recorder) -> dict[str, float]:
    """Time in each method's fit calls, outside the greedy loop's own calls."""
    out = dict.fromkeys(FIT_SPANS, 0.0)
    for i, span in enumerate(rec.spans):
        for method, names in FIT_SPANS.items():
            if span.name in names and not rec.has_ancestor(i, "greedy.fit"):
                out[method] += span.duration
    return out


def layer_metrics(rec: LayerRecorder, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose spans are all in ``rec``.

    Layer self times plus ``bench.unattributed_s`` add up to ``wall_s``.
    """
    own = rec.self_times()
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    noted: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    roots = 0.0
    for span, t_self in zip(rec.spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_s[span.name] = self_s.get(span.name, 0.0) + t_self
        calls[span.name] = calls.get(span.name, 0) + 1
        layer_self[span.name.split(".")[0]] += t_self
        for key, value in span.note.items():
            noted[f"{span.name}:{key}"] = noted.get(f"{span.name}:{key}", 0) + value
        if span.parent < 0:
            roots += span.duration

    fallback = sum(
        1
        for span in rec.spans
        if span.name == "special.h_of_s"
        and span.note.get("scalar")
        and span.parent >= 0
        and rec.spans[span.parent].name == "analysis.error_grid"
    )
    interim = sum(
        1
        for i, span in enumerate(rec.spans)
        if span.name == "loewner.truncate" and rec.has_ancestor(i, "greedy.fit")
    )
    oracle_evaluated = noted.get("special.h_of_s:points", 0)
    distinct = np.unique(np.concatenate(rec.oracle_inputs)).size if rec.oracle_inputs else 0
    computed = noted.get("loewner.truncate:computed", 0)

    m = {}
    for name in (
        "loewner.truncate", "loewner.partition", "loewner.build_pencil", "loewner.projected_points",
        "loewner.poles_zeros", "loewner.eval", "aaa.eval", "vectorfit.eval", "special.h_of_s",
        "sampling.sample_oracle", "linalg.svd", "linalg.geig", "linalg.lstsq",
        "greedy.fit", "aaa.fit", "vectorfit.fit",
    ):
        m[f"{name}.s"] = total.get(name, 0.0)
    for name in ("greedy.fit", "aaa.fit", "vectorfit.fit", "analysis.error_grid",
                 "analysis.compare_methods", "cli.repro"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("loewner.truncate", "loewner.eval", "linalg.svd", "special.h_of_s"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["loewner.truncate.vectors_used_ratio"] = (
        noted.get("loewner.truncate:used", 0) / computed if computed else 0.0
    )
    m["linalg.svd.work"] = noted.get("linalg.svd:work", 0)
    m["linalg.svd.bytes"] = noted.get("linalg.svd:bytes", 0)
    for name in ("loewner.eval", "aaa.eval", "vectorfit.eval", "special.h_of_s"):
        m[f"{name}.points"] = noted.get(f"{name}:points", 0)
    m["special.oracle_redundancy"] = oracle_evaluated / distinct if distinct else 0.0
    m["analysis.oracle_fallback_points"] = fallback
    m["greedy.steps"] = noted.get("greedy.fit:steps", 0)
    m["greedy.interim_truncations"] = interim
    m["aaa.iterations"] = noted.get("aaa.fit:iterations", 0)
    m["vectorfit.iterations"] = noted.get("vectorfit.fit:iterations", 0)
    m["vectorfit.ill_conditioned"] = noted.get("vectorfit.fit:ill_conditioned", 0)
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self[layer]
    m["bench.unattributed_s"] = wall_s - roots
    m["bench.traced_wall_s"] = wall_s
    return m
