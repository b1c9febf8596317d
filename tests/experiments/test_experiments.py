"""End-to-end experiment drivers against the shared tiny campaign.

These check mechanisms: the registry, rendered text, time order, grid
cell sets, score ranges and name counts.  The paper's claims about the
same results are bounded in ``benchmarks/claims.py`` and checked by
``test_claims.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.context import long_run_key


def test_registry_covers_all_paper_artifacts():
    from repro.experiments import PAPER_EXPERIMENTS

    assert set(PAPER_EXPERIMENTS) == {
        "table01",
        "table02",
        "table03",
        "fig01",
        "fig03",
        "fig04",
        "fig05",
        "fig07",
        "fig08",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
    }
    extras = set(EXPERIMENTS) - set(PAPER_EXPERIMENTS)
    assert extras == {
        "extra-comm",
        "extra-routing",
        "extra-whatif",
        "extra-sysforecast",
        "extra-placement",
        "extra-contention",
    }
    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_extras_run_fast(tiny_campaign, claim_results):
    comm = run_experiment("extra-comm")
    assert "msgs/rank/step" in comm.text
    routing = run_experiment("extra-routing", fast=True)
    assert "adversary" in routing.text
    assert "aggressors" in claim_results["extra-whatif"].text
    sysf = run_experiment("extra-sysforecast", campaign=tiny_campaign, fast=True)
    assert "persistence" in sysf.text.lower()
    placement = run_experiment("extra-placement", fast=True)
    assert "fragmentation cost" in placement.text
    contention = run_experiment("extra-contention", fast=True)
    assert "hotspot-job" in contention.text


def test_table01_static(claim_results):
    assert "nlpkkt240" in claim_results["table01"].render()


def test_table02_static(claim_results):
    text = claim_results["table02"].text
    assert "RT_RB_STL" in text
    assert "AR_RTR_PT_COLBUF_PERF_STALL_RQ" in text


def test_table03_on_tiny(claim_results):
    res = claim_results["table03"]
    assert "recovery rate" in res.text.lower()
    assert set(res.data["table"]) == {
        "AMG-128",
        "AMG-512",
        "MILC-128",
        "MILC-512",
        "miniVite-128",
        "UMT-128",
    }


def test_fig01_series(claim_results):
    for key, s in claim_results["fig01"].data["series"].items():
        assert s["relative"].min() >= 1.0
        assert (np.diff(s["time"]) >= 0).all()


def test_fig09_relevance_fast(claim_results):
    res = claim_results["fig09"]
    assert (res.data["scores"] >= 0).all() and (res.data["scores"] <= 1).all()
    assert len(res.data["keys"]) >= 4


def test_fig08_grid_fast(claim_results):
    cells = claim_results["fig08"].data["grid"]["AMG-128"]
    assert {(r.m, r.k) for r in cells} == {(3, 5), (3, 10), (8, 5), (8, 10)}
    assert {r.tier for r in cells} == {"app", "app+placement"}


def test_fig10_grid_fast(claim_results):
    tiers = {r.tier for r in claim_results["fig10"].data["grid"]["MILC-128"]}
    assert "app+placement+io+sys" in tiers


def test_fig11_importances_fast(claim_results):
    data = claim_results["fig11"].data
    assert "MILC-128" in data
    assert len(data["MILC-128"]["names"]) == 23


def test_fig12_longrun_fast(tiny_campaign):
    assert long_run_key(tiny_campaign) is not None


def test_cli_smoke(tiny_campaign, capsys, monkeypatch):
    from repro.experiments.__main__ import main

    # table01/table02 need no campaign.
    assert main(["table01"]) == 0
    assert main(["table02"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table II" in out
