"""Extension bench beyond the paper's artefacts (DESIGN.md §7).

Scheduling what-if: quantify §V-A's "delay communication-sensitive
jobs" suggestion on the campaign data.
"""

import pytest

from repro.analysis.whatif import scheduling_whatif


@pytest.mark.paper_artifact("extension:scheduling-whatif")
def test_scheduling_whatif(once, campaign, fast):
    results = once(scheduling_whatif, campaign)
    print("\nscheduling what-if (delay jobs while aggressors run):")
    for r in results:
        print(
            f"  {r.key:14s} overlapped={r.runs_overlapped:4d} "
            f"clean={r.runs_clean:4d} saving={r.saving_fraction:6.1%} "
            f"net={r.net_saving_fraction:5.1%}"
        )
    assert len(results) >= 4
    if not fast:
        # Aggressor overlap costs real time on at least half the datasets.
        costly = [r for r in results if r.saving_fraction > 0.02]
        assert len(costly) >= len(results) // 2
