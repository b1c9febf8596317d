"""Every fast-scale bound of the claims table holds on the tiny campaign."""

from __future__ import annotations

import dataclasses

import pytest

from benchmarks import claims
from repro.experiments import PAPER_EXPERIMENTS

FAST = [c for c in claims.CLAIMS if c.fast is not None]


@pytest.mark.parametrize("claim", FAST, ids=[c.name for c in FAST])
def test_fast_bound(claim, claim_results):
    value, status = claim.verdict(claim_results[claim.exp].data, fast=True)
    assert status == "holds", (
        f"{claim.name} = {value}, bound {claim.fast.text} ({claim.paper})"
    )


def test_every_paper_experiment_has_a_claim():
    assert set(PAPER_EXPERIMENTS) <= set(claims.claim_ids())


def test_failing_claim_prints_fails_and_exits_1(monkeypatch, capsys, claim_results):
    fig07 = claim_results["fig07"]
    corr = dict(fig07.data["correlations"], RT_RB_STL=0.0)
    broken = dict(
        claim_results,
        fig07=dataclasses.replace(fig07, data=dict(fig07.data, correlations=corr)),
    )
    monkeypatch.setattr(claims, "run_experiments", lambda ids, fast: broken)
    assert claims.main(["--fast"]) == 1
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("fig07.RT_RB_STL "))
    assert row.split()[-1] == "FAILS"
    assert "1 fail" in out
