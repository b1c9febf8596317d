"""Experiment drivers: one module per paper table/figure.

Every module exposes ``build(g, ctx, exp_id=...) -> str`` which adds its
stages to a shared :class:`repro.graph.Graph` and returns the name of the
render stage producing the module's :class:`ExperimentResult`.  Stage
outputs are memoized in an artifact store keyed by code version, config
fingerprint, and upstream digests, so a second run is a near-pure cache
read and experiments sharing work (trained forecasters, RFE rankings,
MI neighborhoods) compute it once.  ``python -m repro.experiments
<exp-id>`` runs one from the command line; ``--explain`` prints the DAG
with per-stage hit/miss status.

Experiment ids: table01, table02, table03, fig01, fig03, fig04, fig05,
fig07, fig08, fig09, fig10, fig11, fig12 — see DESIGN.md §5 for the
mapping to paper artefacts.  Parameterised experiments accept an
argument after a colon, e.g. ``fig07:MILC-512``.

Any id can additionally pin a ``(topology, routing)`` cell from
:mod:`repro.topology.registry`: ``fig09:df+/valiant`` runs fig09 over a
campaign generated on a Dragonfly+ with pure Valiant routing, and
``fig07:MILC-512@df+/minimal`` combines a module argument with a cell.
Cells fingerprint separately, so each one caches its own campaign and
stage artifacts; the default cell (``dragonfly/ugal``) is byte-identical
to the unqualified ids.
"""

from repro.experiments.report import ExperimentResult

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "PAPER_EXPERIMENTS",
    "build_experiment",
    "explain_experiments",
    "run_experiment",
    "run_experiments",
    "split_cell",
]

#: Experiment id -> "module" or "module:suffix" (imported lazily; the
#: builder is ``module.build`` or ``module.build_<suffix>``).
EXPERIMENTS: dict[str, str] = {
    "table01": "repro.experiments.table01",
    "table02": "repro.experiments.table02",
    "table03": "repro.experiments.table03_users",
    "fig01": "repro.experiments.fig01_relative",
    "fig03": "repro.experiments.fig03_meanstep",
    "fig04": "repro.experiments.fig04_mpi_amg_milc",
    "fig05": "repro.experiments.fig05_mpi_minivite_umt",
    "fig07": "repro.experiments.fig07_counter_trends",
    "fig08": "repro.experiments.fig08_forecast_amg",
    "fig09": "repro.experiments.fig09_relevance",
    "fig10": "repro.experiments.fig10_forecast_milc",
    "fig11": "repro.experiments.fig11_importances",
    "fig12": "repro.experiments.fig12_longrun",
    # Extensions beyond the paper (DESIGN.md §7).
    "extra-comm": "repro.experiments.extras:comm",
    "extra-routing": "repro.experiments.extras:routing",
    "extra-whatif": "repro.experiments.extras:whatif",
    "extra-sysforecast": "repro.experiments.extras:sysforecast",
    "extra-placement": "repro.experiments.extras:placement",
    "extra-contention": "repro.experiments.extras:contention",
}

#: The paper's own artefacts (excludes extensions) — what `all` runs.
PAPER_EXPERIMENTS: list[str] = [k for k in EXPERIMENTS if not k.startswith("extra-")]


def split_cell(exp_id: str) -> tuple[str, tuple[str, str] | None]:
    """Split a cell-qualified id into ``(plain id, cell or None)``.

    Accepted forms: ``base``, ``base:arg``, ``base:topo/routing`` and
    ``base:arg@topo/routing``.  The cell is canonicalised through the
    registry (aliases resolve), and the default cell normalises to
    ``None`` so ``fig09:dragonfly/ugal`` shares every artifact with
    ``fig09``.
    """
    from repro.topology.registry import DEFAULT_CELL, parse_cell

    base, _, arg = exp_id.partition(":")
    if not arg:
        return exp_id, None
    if "@" in arg:
        param, _, cell_text = arg.rpartition("@")
        cell = parse_cell(cell_text)
        plain = f"{base}:{param}" if param else base
    elif "/" in arg:
        cell = parse_cell(arg)
        plain = base
    else:
        return exp_id, None
    return plain, None if cell == DEFAULT_CELL else cell


def canonical_exp_id(exp_id: str) -> str:
    """The id with its cell suffix canonicalised (stage/export naming)."""
    plain, cell = split_cell(exp_id)
    if cell is None:
        return plain
    suffix = f"{cell[0]}/{cell[1]}"
    return f"{plain}@{suffix}" if ":" in plain else f"{plain}:{suffix}"


def _resolve(exp_id: str):
    """Split ``base[:arg][@cell]``, import the module, return (builder, kwargs)."""
    import importlib

    plain, _cell = split_cell(exp_id)
    base, _, arg = plain.partition(":")
    if base not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {base!r}; expected one of {sorted(EXPERIMENTS)}"
        )
    target = EXPERIMENTS[base]
    module_name, _, suffix = target.partition(":")
    module = importlib.import_module(module_name)
    builder = getattr(module, f"build_{suffix}") if suffix else module.build
    kwargs = {}
    if arg:
        param = getattr(module, "PARAM", None)
        if param is None:
            raise KeyError(f"experiment {base!r} does not take an argument")
        kwargs[param] = arg
    return builder, kwargs


def build_experiment(g, ctx, exp_id: str) -> str:
    """Add ``exp_id``'s stages to ``g``; return its render-stage name.

    The (canonicalised) id — cell suffix included — names the stages, so
    the same figure on two cells produces distinct artifacts.
    """
    builder, kwargs = _resolve(exp_id)
    return builder(g, ctx, exp_id=canonical_exp_id(exp_id), **kwargs)


def _make_runner(ids, ctx, force):
    from repro.graph import Graph, GraphRunner

    g = Graph()
    targets = {exp_id: build_experiment(g, ctx, exp_id) for exp_id in ids}
    runner = GraphRunner(
        g,
        store=ctx.store,
        campaign_fingerprint=ctx.campaign_fingerprint,
        campaign=ctx.campaign,
        force=force,
        # Stage names are cell-agnostic; the runner stamps the cell onto
        # spans, counters, and the graph.plan event so profiles and
        # reports stay attributable per (topology, routing) cell.
        cell="/".join(ctx.cell) if ctx.cell else None,
    )
    return runner, targets


def _group_by_cell(ids) -> list[tuple[tuple[str, str] | None, list[str]]]:
    """Group ids by their (topology, routing) cell, input order kept."""
    groups: dict[tuple[str, str] | None, list[str]] = {}
    for exp_id in ids:
        _, cell = split_cell(exp_id)
        groups.setdefault(cell, []).append(exp_id)
    return list(groups.items())


def run_experiments(
    ids,
    campaign=None,
    fast: bool = False,
    force: bool = False,
) -> dict[str, ExperimentResult]:
    """Run several experiments over shared stage graphs.

    Stages common to multiple experiments (trained forecasters, RFE
    rankings, campaign generation) are scheduled once.  Ids pinned to
    different (topology, routing) cells run over separate graphs — one
    campaign and context per cell.  Returns ``{exp_id:
    ExperimentResult}`` keyed by the input ids.
    """
    from repro.experiments.context import ExperimentContext
    from repro.obs import ensure_run, span

    ids = list(ids)
    ensure_run()
    results: dict[str, ExperimentResult] = {}
    for cell, cell_ids in _group_by_cell(ids):
        if cell is not None and campaign is not None:
            raise ValueError(
                "a supplied campaign fixes the (topology, routing) cell; "
                f"drop the campaign argument to run {cell_ids[0]!r}"
            )
        ctx = ExperimentContext(campaign=campaign, fast=fast, cell=cell)
        span_name = (
            f"experiment.{cell_ids[0]}" if len(cell_ids) == 1 else "experiments.run"
        )
        with span(span_name, fast=ctx.fast):
            runner, targets = _make_runner(cell_ids, ctx, force)
            values = runner.run(list(targets.values()))
        results.update(
            {exp_id: values[name] for exp_id, name in targets.items()}
        )
    return {exp_id: results[exp_id] for exp_id in ids}


def run_experiment(
    exp_id: str,
    campaign=None,
    fast: bool = False,
    force: bool = False,
) -> ExperimentResult:
    """Run one experiment by id (``base`` or ``base:arg``)."""
    return run_experiments(
        [exp_id], campaign=campaign, fast=fast, force=force
    )[exp_id]


def explain_experiments(
    ids,
    campaign=None,
    fast: bool = False,
    force: bool = False,
) -> str:
    """Render the stage DAG for ``ids`` with per-stage hit/miss status.

    Never executes a stage; cached upstream state is probed read-only.
    Ids on non-default cells render under a ``cell topology/routing``
    header; default-cell output is unchanged.
    """
    from repro.experiments.context import ExperimentContext
    from repro.graph import render_plan

    parts: list[str] = []
    for cell, cell_ids in _group_by_cell(list(ids)):
        ctx = ExperimentContext(campaign=campaign, fast=fast, cell=cell)
        runner, _ = _make_runner(cell_ids, ctx, force)
        plan = render_plan(runner.plan())
        if cell is not None:
            plan = f"cell {cell[0]}/{cell[1]}\n{plan}"
        parts.append(plan)
    return "\n\n".join(parts)
