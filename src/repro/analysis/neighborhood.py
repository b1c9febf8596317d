"""Neighbourhood analysis: assigning blame to concurrent users (§IV-A, §V-A).

For each dataset:

1. build the binary co-occurrence matrix M (runs x users) from the
   recorded neighbourhoods (users with >= 128-node-equivalent jobs running
   alongside each probe run);
2. label each run optimal iff its total time is below tau times the
   dataset mean (tau = 1);
3. rank users by the mutual information between their presence column and
   the optimality vector.

Table III then lists, per dataset, the high-MI users that appear in more
than one dataset's list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.campaign.datasets import Campaign, RunDataset
from repro.ml.mi import columnwise_mi
from repro.parallel import parallel_map


@dataclass
class NeighborhoodAnalysis:
    """MI ranking of neighbourhood users for one dataset."""

    key: str
    users: list[str]
    mi: np.ndarray
    optimal_fraction: float
    #: Pearson correlation of user presence with (non-)optimality, used to
    #: orient the MI (MI is unsigned; blame needs direction).
    presence_slowdown_corr: np.ndarray = field(default=None)  # type: ignore[assignment]

    def ranked_users(self) -> list[tuple[str, float]]:
        order = np.argsort(-self.mi, kind="stable")
        return [(self.users[i], float(self.mi[i])) for i in order]

    def top_users(self, k: int, negative_only: bool = True) -> list[str]:
        """Top-k users by MI; optionally only those whose presence
        correlates with *slower* runs (the paper blames negative
        correlation with optimality)."""
        out = []
        for i in np.argsort(-self.mi, kind="stable"):
            if self.mi[i] <= 0:
                break
            if negative_only and self.presence_slowdown_corr[i] >= 0:
                continue
            out.append(self.users[i])
            if len(out) == k:
                break
        return out


def analyze_neighborhood(ds: RunDataset, tau: float = 1.0) -> NeighborhoodAnalysis:
    """Run the MI analysis on one dataset (paper §IV-A)."""
    if len(ds) == 0:
        raise ValueError(f"dataset {ds.key} is empty")
    vocab = sorted({u for r in ds.runs for u in r.neighborhood})
    index = {u: i for i, u in enumerate(vocab)}
    m = np.zeros((len(ds), len(vocab)), dtype=np.int8)
    for r, run in enumerate(ds.runs):
        for u in run.neighborhood:
            m[r, index[u]] = 1
    p = ds.optimality(tau=tau)
    if len(vocab) == 0:
        return NeighborhoodAnalysis(
            key=ds.key,
            users=[],
            mi=np.empty(0),
            optimal_fraction=float(p.mean()),
            presence_slowdown_corr=np.empty(0),
        )
    mi = columnwise_mi(m, p)
    # Orientation: corr(presence, optimality) < 0 means "user present =>
    # run slower".
    pm = p.astype(np.float64)
    corr = np.zeros(len(vocab))
    for j in range(len(vocab)):
        col = m[:, j].astype(np.float64)
        if col.std() > 0 and pm.std() > 0:
            corr[j] = float(np.corrcoef(col, pm)[0, 1])
    return NeighborhoodAnalysis(
        key=ds.key,
        users=vocab,
        mi=mi,
        optimal_fraction=float(p.mean()),
        presence_slowdown_corr=corr,
    )


def dataset_top_users(ds: RunDataset, top_k: int, tau: float) -> list[str]:
    """One dataset's high-MI user list (top-level: pool/stage task)."""
    if len(ds) < 3:
        return []
    return analyze_neighborhood(ds, tau=tau).top_users(top_k)


def merge_user_lists(
    per_dataset: dict[str, list[str]], min_lists: int = 2
) -> dict[str, list[str]]:
    """Cross-dataset filter: keep users on at least ``min_lists`` lists."""
    counts: dict[str, int] = {}
    for users in per_dataset.values():
        for u in users:
            counts[u] = counts.get(u, 0) + 1
    keep = {u for u, c in counts.items() if c >= min_lists}
    return {
        key: sorted(u for u in users if u in keep)
        for key, users in per_dataset.items()
    }


def correlated_users_table(
    campaign: Campaign,
    dataset_keys: list[str] | None = None,
    top_k: int = 9,
    min_lists: int = 2,
    tau: float = 1.0,
    workers: int | None = None,
) -> dict[str, list[str]]:
    """The paper's Table III: per dataset, high-MI users appearing in more
    than one dataset's list.

    Parameters
    ----------
    campaign:
        The campaign to analyse.
    dataset_keys:
        Datasets to include (default: all regular datasets).
    top_k:
        High-MI list length per dataset before cross-dataset filtering
        (the paper's lists have 3–9 entries).
    min_lists:
        Keep users appearing in at least this many datasets' lists.
    workers:
        Datasets are independent tasks fanned out over
        :mod:`repro.parallel`; results come back in key order, so the
        table is identical for any worker count.
    """
    if dataset_keys is None:
        dataset_keys = [k for k in campaign.keys() if "-long" not in k]
    tasks = [(campaign[key], top_k, tau) for key in dataset_keys]
    lists = parallel_map(dataset_top_users, tasks, workers=workers)
    per_dataset: dict[str, list[str]] = dict(zip(dataset_keys, lists))
    return merge_user_lists(per_dataset, min_lists=min_lists)


def recovery_rate(
    table: dict[str, list[str]], ground_truth: list[str]
) -> float:
    """Evaluation helper: fraction of blamed users that are ground-truth
    aggressors (the analyses never see this; it scores the reproduction)."""
    blamed = {u for users in table.values() for u in users}
    if not blamed:
        return 0.0
    truth = set(ground_truth) | {"User-8"}  # probe self-interference
    return len(blamed & truth) / len(blamed)
