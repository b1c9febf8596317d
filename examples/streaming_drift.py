"""Longitudinal streaming: shard-granular campaigns and model drift.

Generates a streamed campaign — an ordered sequence of time-window
shards, each an independent generation with its own content fingerprint
— and asks the operational question streaming exists for: *how fast does
a trained forecaster go stale?*  Every window is scored against a model
retrained on the previous window (**fresh**) and the model trained once
on window 0 (**stale**); the gap is the drift.

Re-running with one more window generates *only* that window: the
existing shards load from the per-window campaign cache, and their
feature tensors are rebuilt in memory, which costs less than loading
them.  The graph-memoized version of the same numbers is
``python -m repro.campaign stream --drift``.

Run:  python examples/streaming_drift.py          (~1-2 minutes)
      REPRO_FAST=1 runs 2-day windows at test scale.
"""

from repro.campaign.runner import CampaignConfig
from repro.campaign.streaming import StreamConfig, render_stream, run_stream
from repro.experiments.context import fast_requested
from repro.experiments.report import ascii_table
from repro.ml import rolling_drift
from repro.ml.attention import AttentionForecaster

FAST = fast_requested()
WINDOW_DAYS = 2.0 if FAST else 4.0
M, K = (3, 2) if FAST else (8, 5)
EPOCHS = 40 if FAST else 100


def model(seed: int = 0) -> AttentionForecaster:
    return AttentionForecaster(d_model=12, hidden=24, epochs=EPOCHS, seed=seed)


def main() -> None:
    config = StreamConfig(
        base=CampaignConfig.tiny(),
        windows=3,
        window_days=WINDOW_DAYS,
    )
    print("generating stream (per-window cache: appends are incremental)...")
    campaign = run_stream(config)
    print(render_stream(campaign.stream))

    key = "MILC-128"
    report = rolling_drift(
        campaign[key], m=M, k=K, tier="app", seeds=(0, 1), model_factory=model
    )
    print(
        f"\n{key}: forecast MAPE per window (m={M}, k={K}; fresh = "
        "retrained on previous window, stale = window-0 model)"
    )
    print(
        ascii_table(
            ["window", "runs", "fresh MAPE", "stale MAPE", "drift"],
            report.rows(),
        )
    )
    print(f"mean drift (stale - fresh): {report.mean_drift:+.2f}% MAPE")


if __name__ == "__main__":
    main()
