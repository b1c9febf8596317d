"""Shared experiment context: one campaign serving every figure.

The campaign scale follows ``fast`` and the ``REPRO_FAST`` environment
(:func:`experiment_config`, :func:`resolve_fast`):

* default — the benchmark-scale 120-day campaign (generated once, cached
  on disk under ``REPRO_CACHE_DIR``);
* ``REPRO_FAST=1`` or ``fast=True`` — the test-scale campaign, for smoke
  runs of the full pipeline.

The in-process campaign cache is bounded (LRU over
:data:`_CACHE_CAP` = 2 entries) and keyed by
``CampaignConfig.fingerprint()``.  Each dataset's
:class:`~repro.features.FeatureStore` memo lives on the dataset object,
so evicting a campaign releases its derived features with it.
:func:`clear_cache` drops both layers explicitly.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.campaign.datasets import Campaign
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.config import apply_workers_flag
from repro.obs import METRICS, configure_logging, ensure_run, env_flag, span

_CACHE: "OrderedDict[str, Campaign]" = OrderedDict()
#: Campaigns kept in process; the least recently used one goes first.
_CACHE_CAP = 2


def fast_requested() -> bool:
    return env_flag("REPRO_FAST", False)


def resolve_fast(flag: bool | None = None) -> bool:
    """The one ``--fast`` / ``REPRO_FAST`` precedence rule.

    An explicit ``fast=True`` (CLI flag or API argument) always wins;
    otherwise the environment decides.  ``REPRO_FAST=0`` therefore does
    *not* override an explicit request — the flag is an opt-in, the env
    var a default.  The environment is read either way, so a malformed
    ``REPRO_FAST`` raises even next to ``--fast``.
    """
    env = fast_requested()
    return bool(flag) or env


def resolve_knobs(parser, args, *readers) -> bool:
    """Read every ``REPRO_*`` value knob a CLI uses, before any work.

    The one order for every CLI: logging level, ``--workers`` (applied
    to the whole invocation), ``--fast`` / ``REPRO_FAST``
    (:func:`resolve_fast`), the caller's extra ``readers``, then the
    trace run.  A bad value ends the CLI as a usage error (exit 2)
    naming the knob, not as a traceback from the middle of a run.
    ``args`` needs ``workers`` and ``fast`` attributes.  Returns the
    resolved fast flag, the one scale the whole invocation uses.
    """
    try:
        configure_logging()
        apply_workers_flag(args.workers)
        fast = resolve_fast(args.fast)
        for read in readers:
            read()
        ensure_run()
    except ValueError as exc:
        parser.error(str(exc))
    return fast


def clear_cache() -> None:
    """Drop cached campaigns and every in-process feature memo."""
    from repro.features import clear_feature_caches

    _CACHE.clear()
    clear_feature_caches()


def experiment_config(
    fast: bool = False, cell: tuple[str, str] | None = None
) -> CampaignConfig:
    """The campaign config for the scale and (topology, routing) cell.

    ``cell=None`` is the default cell — its config (and fingerprint) is
    identical to the pre-axis one, so existing caches stay warm.
    """
    overrides = {}
    if cell is not None:
        overrides = {"topology": cell[0], "routing": cell[1]}
    if resolve_fast(fast):
        return CampaignConfig.tiny(**overrides)
    return CampaignConfig.small(**overrides)


def get_campaign(
    campaign: Campaign | None = None,
    fast: bool = False,
    cell: tuple[str, str] | None = None,
) -> Campaign:
    """The campaign to analyse: supplied, cached in-process, or generated."""
    if campaign is not None:
        return campaign
    cfg = experiment_config(fast, cell)
    key = cfg.fingerprint()
    if key in _CACHE:
        METRICS.counter("experiments.campaign.memo_hits").inc()
        _CACHE.move_to_end(key)
        return _CACHE[key]
    with span("experiments.get_campaign", fingerprint=key) as sp:
        camp = run_campaign(cfg)
        sp.set(datasets=len(list(camp.keys())))
    _CACHE[key] = camp
    while len(_CACHE) > _CACHE_CAP:
        _CACHE.popitem(last=False)
    return camp


def long_run_key(campaign: Campaign) -> str | None:
    """The long MILC run's dataset key, if the campaign has one."""
    for key in campaign.keys():
        if key.startswith("MILC-128-long"):
            return key
    return None


class ExperimentContext:
    """Everything an experiment graph build needs, resolved once.

    * the resolved fast flag (:func:`resolve_fast`);
    * the campaign fingerprint — from the supplied campaign's stamp, or
      from the would-be :func:`experiment_config` *without* generating
      the campaign (so a warm run never materialises it);
    * the artifact store rooted under the shared cache dir (disabled
      when a supplied campaign carries no fingerprint stamp — nothing
      sound to address artifacts by);
    * the campaign **manifest** (keys, run counts, step counts, ground
      truth) that graph builders shape their stage lists with — loaded
      from the store when warm, built (and stored) otherwise;
    * :meth:`campaign`, the lazy provider handed to the
      :class:`~repro.graph.GraphRunner` — only an actually *executing*
      campaign/dataset-bound stage triggers generation.
    """

    def __init__(
        self,
        campaign: Campaign | None = None,
        fast: bool = False,
        cell: tuple[str, str] | None = None,
    ) -> None:
        from repro.graph import ArtifactStore

        self.fast = resolve_fast(fast)
        self.cell = cell
        self._campaign = campaign
        if campaign is not None:
            if cell is not None:
                raise ValueError(
                    "a supplied campaign fixes the (topology, routing) "
                    "cell; it cannot be combined with a cell-qualified id"
                )
            fp = None
            for ds in campaign.datasets.values():
                fp = getattr(ds, "campaign_fingerprint", None)
                break
            self.campaign_fingerprint = fp
            self.store = ArtifactStore(enabled=False if fp is None else None)
        else:
            self.campaign_fingerprint = experiment_config(
                self.fast, cell
            ).fingerprint()
            self.store = ArtifactStore()
        self._manifest: dict | None = None

    def campaign(self) -> Campaign:
        """Materialise the campaign (generate/load it if not supplied)."""
        if self._campaign is None:
            self._campaign = get_campaign(None, self.fast, self.cell)
        return self._campaign

    @property
    def manifest(self) -> dict:
        """Campaign shape summary (see :func:`repro.experiments.stages.build_manifest`)."""
        if self._manifest is None:
            from repro.experiments import stages

            self._manifest = stages.load_or_build_manifest(self)
        return self._manifest
