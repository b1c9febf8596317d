"""The runtime needs NumPy and nothing else outside the standard library.

``pyproject.toml`` declares ``numpy`` as the only runtime dependency.
This test imports every ``repro`` module (entry-point ``__main__``
modules aside) in a fresh interpreter and checks which top-level
packages that adds to ``sys.modules``, so an import of any other
third-party package — even one only a rarely used module pulls in —
fails here rather than on a machine that lacks it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys

preloaded = set(sys.modules)
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name.rpartition(".")[2] != "__main__":
        importlib.import_module(info.name)
added = {name.partition(".")[0] for name in set(sys.modules) - preloaded}
# multiprocessing aliases the main module as __mp_main__.
print(json.dumps(sorted(added - set(sys.stdlib_module_names) - {"__mp_main__"})))
"""


def test_runtime_imports_only_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert json.loads(out.splitlines()[-1]) == ["numpy", "repro"]
