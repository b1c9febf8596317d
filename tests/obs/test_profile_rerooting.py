"""Cross-process profiling parity: workers=4 re-roots into one tree.

Runs the same traced fast-mode fig09 twice in subprocesses — serial
(``REPRO_WORKERS=1``) and parallel (``REPRO_WORKERS=4``) — with the
artifact store off so every stage executes both times, a shared campaign
cache so the datasets are generated once, and a separate trace per run.
The parallel trace must still be ONE connected span tree (worker spans
re-root under the coordinator via their exported parent id), and the
aggregated per-stage profile must be structurally identical to the
serial one: same stage keys, same call counts, same statuses.  Walls
differ, structure must not.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.profile import build_profile
from repro.obs.report import latest_trace, load_trace, span_tree

REPO = Path(__file__).resolve().parent.parent.parent


def _run_fig09(workers: int, cache: Path, traces: Path):
    env = dict(os.environ)
    env.update(
        REPRO_FAST="1",
        REPRO_TRACE="1",
        REPRO_ARTIFACT_CACHE="0",
        REPRO_WORKERS=str(workers),
        REPRO_CACHE_DIR=str(cache),
        REPRO_TRACE_DIR=str(traces),
    )
    env.pop("REPRO_TRACE_FILE", None)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "fig09", "--fast"],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
        cwd=str(REPO),
    )
    assert proc.returncode == 0, proc.stderr
    path = latest_trace(traces)
    assert path is not None, "traced run produced no trace"
    return load_trace(path)


@pytest.fixture(scope="module")
def serial_and_parallel(tmp_path_factory):
    cache = tmp_path_factory.mktemp("cache")  # shared: campaign built once
    serial = _run_fig09(1, cache, tmp_path_factory.mktemp("traces-serial"))
    parallel = _run_fig09(4, cache, tmp_path_factory.mktemp("traces-par"))
    return serial, parallel


def test_parallel_trace_is_one_connected_tree(serial_and_parallel):
    _, parallel = serial_and_parallel
    tree = span_tree(parallel.spans)
    roots = [rec["name"] for depth, rec in tree if depth == 0]
    assert roots == ["experiment.fig09"], (
        f"parallel spans did not re-root into one tree: roots={roots}"
    )
    # Worker batches really crossed the process boundary.
    assert len({s["pid"] for s in parallel.spans}) > 1


def test_stage_profiles_structurally_equal(serial_and_parallel):
    serial, parallel = serial_and_parallel

    def shape(data):
        prof = build_profile(data)
        assert prof is not None
        return {
            key: (rec["calls"], rec["status"])
            for key, rec in prof["stages"].items()
        }

    s, p = shape(serial), shape(parallel)
    assert s == p, f"serial={s}\nparallel={p}"


def test_worker_prof_records_present_in_parallel(serial_and_parallel):
    _, parallel = serial_and_parallel
    main_pid = parallel.manifest["pid"]
    worker_prof = [
        s for s in parallel.spans
        if s["pid"] != main_pid and s.get("prof")
    ]
    assert worker_prof, "no resource-sampled spans from worker processes"
