"""The fits keep the digests of the committed ledger (``digests.json``, written by ``digests.py``)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ratapprox
from digests import LEDGER, environment


def test_fits_keep_the_digests_of_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    here = environment()
    if here != ledger["environment"]:
        pytest.skip(f"the ledger holds for {ledger['environment']}, this is {here}")
    src = str(Path(ratapprox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(LEDGER.with_name("digests.py"))], env=env, capture_output=True,
                          text=True, timeout=600, check=True)
    found = json.loads(done.stdout)
    kept = ledger["digests"]
    changed = [f"{name} {part}" for name in sorted(kept.keys() | found.keys())
               for part in sorted(kept.get(name, {}).keys() | found.get(name, {}).keys())
               if kept.get(name, {}).get(part) != found.get(name, {}).get(part)]
    assert not changed, "changed: " + ", ".join(changed)
