"""The digest ledger: sha256 of fitted models, histories, surfaces and repro files, kept in ``digests.json``.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/digests.py          # print the digests
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/digests.py --write  # rewrite digests.json

Each entry is a sample set and a fit: the four methods at their defaults and
real-mode AAA.  The default fits on the sets of ``SURFACE_SETS`` also keep the
digest of their 500 x 500 ``model_error`` surface, whose points inside the
state-space models' discs take the LU solve, so the surface digests pin the
disc radii too.  The ``repro/`` entries hold the files of ``ratapprox repro
--seed 0`` without their meta lines and without the time columns of
``compare.txt``.  OpenBLAS picks its kernels by CPU core and splits its sums by
thread, so the digests hold for the environment recorded in the file and one
BLAS thread.  ``test_digests.py`` recomputes them in a child process.  A
change that moves a model rewrites the file, and its diff names the entries.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from ratapprox import OMEGA, h_of_s, sample_oracle, structured_grid, uniform_random_grid
from ratapprox import cli
from ratapprox.analysis import FIT_DEFAULTS, fit, model_error, oracle_grid
from ratapprox.serialize import model_to_dict

LEDGER = Path(__file__).with_name("digests.json")

SAMPLE_SETS = {
    "grid-101x21": lambda: structured_grid(OMEGA, 101, 21),
    "grid-40x41": lambda: structured_grid(OMEGA, 40, 41),
    "grid-21x5": lambda: structured_grid(OMEGA, 21, 5),
    "cloud-1000-seed0": lambda: uniform_random_grid(OMEGA, 1000, 0),
    "cloud-1000-seed3": lambda: uniform_random_grid(OMEGA, 1000, 3),
}

#: entry name -> (method, settings)
FITS = {**{method: (method, {}) for method in FIT_DEFAULTS}, "aaa-real": ("aaa", {"real_mode": True})}

#: The sample sets whose default fits also keep their error surface, and its size.
SURFACE_SETS = ("grid-101x21", "cloud-1000-seed0")
SURFACE = 500


def _openblas_core():
    """The core OpenBLAS chose its kernels for, from numpy's bundled library, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as info:
            return next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                        platform.processor())
    except OSError:
        return platform.processor()


def environment() -> dict:
    """The builds and the CPU the digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        openblas = None
    return {"numpy": np.__version__, "scipy": scipy.__version__, "openblas": openblas,
            "openblas_core": _openblas_core(), "cpu": _cpu_model()}


def _feed(digest, obj):
    """Hash arrays by their bytes, dataclasses field by field and scalars by their repr."""
    if isinstance(obj, np.ndarray):
        digest.update(f"{obj.dtype}{obj.shape}".encode())
        digest.update(obj.tobytes())
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            _feed(digest, getattr(obj, field.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(digest, item)
    else:
        digest.update(repr(obj).encode())


def _sha256(obj) -> str:
    digest = hashlib.sha256()
    _feed(digest, obj)
    return digest.hexdigest()


def repro_texts(out_dir) -> dict:
    """{file name: text} of the files ``ratapprox repro`` wrote to ``out_dir``, without the meta lines and
    without the time columns of ``compare.txt``: the parts that repeat from run to run."""
    texts = {}
    for path in sorted(Path(out_dir).iterdir()):
        lines = [line for line in path.read_text().splitlines(keepends=True) if not line.startswith("#")]
        if path.name.endswith(".compare.txt"):
            lo = lines[0].index(" fit [s]")
            hi = lines[0].index(" eval [s]") + len(" eval [s]")
            lines = [line[:lo] + line[hi:] for line in lines]
        texts[path.name] = "".join(lines)
    return texts


def _repro_digests() -> dict:
    """{"repro/<file>": {"file": sha256}} of ``ratapprox repro --seed 0``'s files, by :func:`repro_texts`."""
    with tempfile.TemporaryDirectory() as out, open(os.devnull, "w") as quiet:
        stdout, sys.stdout = sys.stdout, quiet
        try:
            status = cli.main(["repro", "--seed", "0", "--out-dir", out])
        finally:
            sys.stdout = stdout
        if status:
            raise RuntimeError(f"ratapprox repro --seed 0 exited with {status}")
        return {f"repro/{name}": {"file": hashlib.sha256(text.encode()).hexdigest()}
                for name, text in repro_texts(out).items()}


def digests() -> dict:
    """{"<sample set>/<fit>": {"model": sha256 of the model JSON, "history": sha256 of the history,
    and for the default fits on ``SURFACE_SETS`` "surface": sha256 of the error surface}}, then the
    ``repro/`` entries."""
    found = {}
    truth = oracle_grid(h_of_s, OMEGA, SURFACE, SURFACE)
    for set_name, points in SAMPLE_SETS.items():
        samples = sample_oracle(points(), h_of_s)
        for fit_name, (method, settings) in FITS.items():
            model, history = fit(method, samples, **settings)
            entry = found[f"{set_name}/{fit_name}"] = {
                "model": hashlib.sha256(json.dumps(model_to_dict(model)).encode()).hexdigest(),
                "history": _sha256(history),
            }
            if set_name in SURFACE_SETS and not settings:
                entry["surface"] = _sha256(model_error(model, truth).errors)
    return {**found, **_repro_digests()}


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("set OPENBLAS_NUM_THREADS=1: the digests hold for one BLAS thread")
    found = digests()
    if sys.argv[1:] == ["--write"]:
        LEDGER.write_text(json.dumps({"environment": environment(), "digests": found}, indent=1) + "\n")
    else:
        print(json.dumps(found))
