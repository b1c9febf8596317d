"""Stages: pure functions with typed inputs and input-addressed identity.

A :class:`Stage` names a pure function (by import path, so workers can
resolve it), its parameters, and the upstream stages whose artifacts it
consumes.  The stage's **fingerprint** is derived from

* the graph format version,
* the function's import path and declared code version
  (:func:`stage_fn`),
* the JSON-serialised parameters,
* the fingerprints of every input stage (so an upstream change cascades
  to everything downstream), and
* the campaign fingerprint, for stages bound to a campaign or dataset.

Two runs that would compute the same value therefore share one
fingerprint, and a change to any contributing ingredient — one config
knob, one ``@stage_fn(version=...)`` bump — invalidates exactly the
affected cone of the DAG.

Stage functions take a single :class:`StageCtx` and must be
deterministic in it: same params, same input artifacts, same dataset ⇒
bit-identical return value.  **Bump the decorator's ``version`` whenever
the function's output could change** — that is what keeps stale
artifacts from being served after a code edit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Callable

#: Fingerprint format version: bump to invalidate every stored artifact.
GRAPH_FORMAT_VERSION = 1


def stage_fn(version: int = 1):
    """Declare a function as a stage body with a code version.

    The version is part of every fingerprint the function contributes
    to; bump it when the function's output changes so stored artifacts
    go stale instead of being served.
    """

    def decorate(fn: Callable) -> Callable:
        fn.__stage_version__ = version
        return fn

    return decorate


def fn_path(fn: Callable) -> str:
    """``module:qualname`` import path of a top-level function."""
    return f"{fn.__module__}:{fn.__qualname__}"


def resolve_fn(path: str) -> Callable:
    """Import a stage function back from its ``module:qualname`` path."""
    module_name, _, attr = path.partition(":")
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def fn_version(path: str) -> int:
    return int(getattr(resolve_fn(path), "__stage_version__", 1))


@dataclass
class StageCtx:
    """What a stage function sees: params, input artifacts, bound data."""

    params: dict
    inputs: dict = field(default_factory=dict)
    #: The bound dataset, for stages declared with ``dataset=<key>``.
    ds: object = None
    #: The materialised campaign, for stages declared ``campaign=True``.
    camp: object = None


@dataclass(frozen=True)
class Stage:
    """One node of the experiment DAG (declarative; see :class:`Graph`)."""

    name: str
    fn: str
    params: tuple = ()
    #: ``(role, upstream stage name)`` pairs; the executor presents the
    #: upstream artifacts as ``ctx.inputs[role]``.
    inputs: tuple = ()
    #: Dataset key injected as ``ctx.ds`` (binds the stage to the campaign).
    dataset: str | None = None
    #: Whether the whole campaign is injected as ``ctx.camp`` (forces
    #: in-parent execution).
    campaign: bool = False
    kind: str = "compute"
    #: Run in the parent process even when a worker pool is available
    #: (renders and campaign-bound stages; cheap or unpicklable work).
    local: bool = False
    #: Shard addresses (content fingerprints of the time-window shards
    #: this stage consumes, see :mod:`repro.campaign.streaming`).  A
    #: shard-scoped stage is fingerprinted by its shard addresses
    #: *instead of* the campaign fingerprint, so appending a window to a
    #: stream never re-keys the stages of the existing windows.
    shard: tuple = ()

    def group(self) -> str:
        """Store subdirectory: the stage function's attribute name."""
        return self.fn.rpartition(":")[2].replace(".", "_")


class Graph:
    """A DAG of stages, insertion-ordered topologically.

    ``add`` validates that every input already exists, so insertion
    order is a topological order by construction.  Adding the same name
    twice is a no-op when the definitions agree — that is how two
    experiments share a stage (e.g. one trained forecaster serving both
    the importance panels and the long-run forecast) — and an error
    when they conflict.
    """

    def __init__(self) -> None:
        self.stages: dict[str, Stage] = {}

    def add(
        self,
        name: str,
        fn: "Callable | str",
        *,
        params: dict | None = None,
        inputs: "list[tuple[str, str]] | None" = None,
        dataset: str | None = None,
        campaign: bool = False,
        kind: str = "compute",
        local: bool = False,
        shard: "str | tuple[str, ...] | None" = None,
    ) -> str:
        stage = Stage(
            name=name,
            fn=fn if isinstance(fn, str) else fn_path(fn),
            params=tuple(sorted((params or {}).items())),
            inputs=tuple(inputs or ()),
            dataset=dataset,
            campaign=campaign,
            kind=kind,
            local=local or campaign,
            shard=(shard,) if isinstance(shard, str) else tuple(shard or ()),
        )
        existing = self.stages.get(name)
        if existing is not None:
            if existing != stage:
                raise ValueError(f"conflicting definitions for stage {name!r}")
            return name
        for role, upstream in stage.inputs:
            if upstream not in self.stages:
                raise ValueError(
                    f"stage {name!r} input {role!r} references unknown "
                    f"stage {upstream!r} (add upstream stages first)"
                )
        self.stages[name] = stage
        return name

    def fingerprints(self, campaign_fingerprint: str | None) -> dict[str, str]:
        """Input-addressed fingerprint of every stage, in topo order."""
        fps: dict[str, str] = {}
        for name, st in self.stages.items():
            payload_dict = {
                "format": GRAPH_FORMAT_VERSION,
                "fn": st.fn,
                "code": fn_version(st.fn),
                "params": [[k, v] for k, v in st.params],
                "inputs": [[role, fps[up]] for role, up in st.inputs],
                "dataset": st.dataset,
                # Shard-scoped stages are addressed by the content
                # fingerprints of the shards they consume, not the
                # (stream) campaign fingerprint — appending a window
                # changes the stream fingerprint but must not re-key the
                # existing windows' stages.  The ``shard`` key is only
                # present when set, so every pre-streaming fingerprint
                # is unchanged.
                "campaign": campaign_fingerprint
                if not st.shard and (st.campaign or st.dataset is not None)
                else None,
            }
            if st.shard:
                payload_dict["shard"] = list(st.shard)
            payload = json.dumps(payload_dict, sort_keys=True)
            fps[name] = hashlib.sha256(payload.encode()).hexdigest()[:16]
        return fps
