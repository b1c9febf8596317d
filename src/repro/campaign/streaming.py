"""Longitudinal streaming mode: the campaign as time-windowed shards.

The one-shot campaign fingerprints its datasets as indivisible wholes —
appending one more week of telemetry would invalidate every feature
matrix, artifact, and trained model downstream.  Streaming mode instead
models the facility as an **ordered sequence of time windows**, each an
independent campaign generation:

* window 0 of an un-overridden stream *is* the base config — same
  fingerprint, same cache entry, same derived features — so the one-shot
  run is exactly the degenerate single-shard case;
* window ``w >= 1`` replaces the seed with :func:`window_seed` (a stable
  derivation, so window fingerprints never move when windows are
  appended) and drops the Fig. 12 long runs (they belong to the campaign
  tail, not to every window);
* appending window ``N`` therefore generates *only* window ``N`` — the
  existing windows load from the hardened per-campaign cache untouched,
  which is what makes prefix stability exact rather than approximate.

Identity model::

    window fingerprint  = CampaignConfig.fingerprint() of the window
    shard fingerprint   = sha256(f"{window fp}/{key}")[:16]
    stream fingerprint  = window fp            (single window)
                        = sha256 over the ordered window fps (else)

One shard fingerprint names the shard in the stage graph
(``Stage.shard``) and in the stream manifest the streamed campaign
carries in memory (``campaign.stream``).

The combined per-key dataset concatenates the shard runs (start times
offset by the window origin, run indices renumbered) and carries the
shard views for the shard-scoped graph stages (:func:`shard_view`).
Features of a combined dataset, like those of a shard, are built in
memory by its :class:`~repro.features.FeatureStore`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.campaign.datasets import Campaign, RunDataset
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.obs import annotate, get_logger, span
from repro.system.workload import DAY

_LOG = get_logger("campaign.stream")

#: Stream identity schema version (independent of the campaign cache
#: format), folded into every multi-window stream fingerprint.
STREAM_FORMAT_VERSION = 1


def window_seed(seed: int, window: int) -> int:
    """Stable per-window seed: window 0 keeps the base seed.

    Derived by hashing, not offsetting, so neighbouring base seeds can
    never collide with each other's window streams.
    """
    if window == 0:
        return int(seed)
    digest = hashlib.sha256(f"stream-window/{seed}/{window}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


def shard_fingerprint(window_fingerprint: str, key: str) -> str:
    """Content fingerprint of one ``(window, dataset key)`` shard.

    The window campaign fingerprint determines the shard's data, so this
    one identity names the shard in the graph and the manifest.
    """
    return hashlib.sha256(f"{window_fingerprint}/{key}".encode()).hexdigest()[:16]


def stream_fingerprint(window_fingerprints: list[str]) -> str:
    """Identity of the whole stream: the ordered window fingerprints.

    A single-window stream collapses to its window's campaign
    fingerprint, so the degenerate case shares every existing cache
    entry, golden baseline, and artifact address.
    """
    if len(window_fingerprints) == 1:
        return window_fingerprints[0]
    payload = json.dumps(
        {"v": STREAM_FORMAT_VERSION, "windows": list(window_fingerprints)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class StreamConfig:
    """A streaming campaign: ``windows`` generations of ``base``.

    ``window_days=None`` gives every window the base config's full
    ``days`` horizon (window 0 is then *exactly* the base config);
    overriding it shrinks each window, which also drops the long runs
    from window 0 — a long run's submit time assumes the base horizon.
    """

    base: CampaignConfig
    windows: int = 1
    window_days: float | None = None

    def __post_init__(self) -> None:
        if self.windows < 1:
            raise ValueError("a stream needs at least one window")
        if self.window_days is not None and self.window_days <= 0:
            raise ValueError("window_days must be positive")

    @property
    def window_length_days(self) -> float:
        return float(self.window_days or self.base.days)

    def window_config(self, window: int) -> CampaignConfig:
        """The independent campaign config of one window."""
        if not 0 <= window < self.windows:
            raise ValueError(f"window {window} outside 0..{self.windows - 1}")
        if window == 0 and self.window_days is None:
            return self.base
        overrides: dict = {"seed": window_seed(self.base.seed, window)}
        if self.window_days is not None:
            overrides["days"] = float(self.window_days)
            overrides["long_runs"] = ()
        if window > 0:
            overrides["long_runs"] = ()
        return dataclasses.replace(self.base, **overrides)

    def window_fingerprints(self) -> list[str]:
        return [self.window_config(w).fingerprint() for w in range(self.windows)]

    def fingerprint(self) -> str:
        return stream_fingerprint(self.window_fingerprints())


@dataclass
class StreamManifest:
    """The ``(campaign fp, key, window) -> shard fp`` map of one stream."""

    fingerprint: str
    base: str
    window_days: float
    #: One record per window: index, campaign fingerprint, seed, days,
    #: offset_days, and ``shards`` mapping key -> {fingerprint, runs}.
    windows: list[dict] = field(default_factory=list)

    def shard(self, key: str, window: int) -> str:
        return self.windows[window]["shards"][key]["fingerprint"]

    def window_fingerprints(self) -> list[str]:
        return [w["campaign"] for w in self.windows]


def shard_view(ds: RunDataset, window: int) -> RunDataset:
    """The per-window shard of a (possibly streamed) dataset.

    A dataset without shard views is its own single shard — the
    degenerate case every shard-scoped stage body runs through when the
    campaign was generated one-shot.
    """
    views = getattr(ds, "shard_views", None)
    if views is None:
        if window == 0:
            return ds
        raise IndexError(
            f"dataset {ds.key!r} has one shard; window {window} requested"
        )
    return views[window]


def _combine_shards(
    key: str,
    views: list[RunDataset],
    offsets: list[float],
    stream_fp: str,
) -> RunDataset:
    steps = {int(v.num_steps) for v in views}
    if len(steps) != 1:
        raise ValueError(
            f"shards of {key!r} disagree on step count: {sorted(steps)}"
        )
    runs = []
    for view, off in zip(views, offsets):
        for r in view.runs:
            runs.append(
                dataclasses.replace(
                    r, run_index=len(runs), start_time=r.start_time + off
                )
            )
    combined = RunDataset(key=key, runs=runs, campaign_fingerprint=stream_fp)
    combined.shard_views = list(views)
    return combined


def run_stream(config: StreamConfig, progress: bool = False) -> Campaign:
    """Generate (or load) every window and assemble the streamed campaign.

    Each window runs through the ordinary :func:`run_campaign` path —
    per-window disk caching, parallel generation, provenance stamping —
    so appending window ``N`` to a previously-materialised stream costs
    one window's generation plus cache loads.  The combined campaign's
    datasets are stamped with the stream fingerprint and carry their
    shard views; the stream manifest is attached as ``campaign.stream``.
    """
    window_cfgs = [config.window_config(w) for w in range(config.windows)]
    window_fps = [cfg.fingerprint() for cfg in window_cfgs]
    stream_fp = stream_fingerprint(window_fps)
    length = config.window_length_days

    with span(
        "stream.run", fingerprint=stream_fp, windows=config.windows
    ):
        campaigns = []
        for w, cfg in enumerate(window_cfgs):
            _LOG.info(
                "stream window %d/%d: campaign %s",
                w + 1, config.windows, window_fps[w],
            )
            with span("stream.window", window=w, fingerprint=window_fps[w]):
                campaigns.append(run_campaign(cfg, progress=progress))
        annotate(stream_fingerprint=stream_fp, stream_windows=config.windows)

    offsets = [w * length * DAY for w in range(config.windows)]
    if config.windows == 1:
        camp = campaigns[0]
        for key, ds in camp.datasets.items():
            ds.shard_views = [ds]
    else:
        # Keys present in every window combine into multi-shard datasets;
        # window-local extras (the window-0 long runs) ride along as
        # single-shard datasets, after the regular keys.
        common = [
            k
            for k in campaigns[0].keys()
            if all(k in c.datasets for c in campaigns[1:])
        ]
        datasets: dict[str, RunDataset] = {}
        for key in common:
            datasets[key] = _combine_shards(
                key, [c[key] for c in campaigns], offsets, stream_fp
            )
        for w, c in enumerate(campaigns):
            for key, ds in c.datasets.items():
                if key in datasets:
                    continue
                lone = _combine_shards(key, [ds], [offsets[w]], window_fps[w])
                datasets[key] = lone
        aggressors: list[str] = []
        for c in campaigns:
            for user in c.ground_truth_aggressors:
                if user not in aggressors:
                    aggressors.append(user)
        camp = Campaign(datasets=datasets, ground_truth_aggressors=aggressors)

    manifest = StreamManifest(
        fingerprint=stream_fp,
        base=window_fps[0],
        window_days=length,
        windows=[
            {
                "index": w,
                "campaign": window_fps[w],
                "seed": window_cfgs[w].seed,
                "days": window_cfgs[w].days,
                "offset_days": w * length,
                "shards": {
                    key: {
                        "fingerprint": shard_fingerprint(window_fps[w], key),
                        "runs": len(c[key]),
                    }
                    for key, _ds in c.datasets.items()
                },
            }
            for w, c in enumerate(campaigns)
        ],
    )
    camp.stream = manifest
    return camp


def render_stream(manifest: StreamManifest) -> str:
    """Human-readable shard table of a stream manifest."""
    lines = [
        f"stream fingerprint: {manifest.fingerprint} "
        f"({len(manifest.windows)} windows x {manifest.window_days:g} days)"
    ]
    for w in manifest.windows:
        runs = sum(s["runs"] for s in w["shards"].values())
        lines.append(
            f"  window {w['index']}: campaign {w['campaign']} "
            f"seed={w['seed']} offset={w['offset_days']:g}d "
            f"({runs} runs over {len(w['shards'])} datasets)"
        )
        for key in sorted(w["shards"]):
            s = w["shards"][key]
            lines.append(
                f"    {key:<24} shard {s['fingerprint']} ({s['runs']} runs)"
            )
    return "\n".join(lines)
