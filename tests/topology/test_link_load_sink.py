"""Routing straight into link loads equals routing into an incidence.

The campaign routes each batch of background flow sets with ``sinks=``:
every path set streams into a per-set accumulator through
:class:`LinkLoadSink` and no incidence is built.  Each set's loads must be
byte-equal to routing that set alone and summing its incidence with
:meth:`Incidence.link_loads`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import routing
from repro.topology.registry import build_topology
from repro.topology.routing import LinkLoadSink

#: Extra accumulator entries per set beyond the links (the campaign's
#: rows also hold router arrays); the sinks must leave them untouched.
_PAD = 7


def _flow_sets(topo, endpoints, rng):
    """An empty, an all-local, a one-flow, a large and two mid-size sets."""

    def pick(n):
        return rng.choice(endpoints, size=n)

    def flows(n):
        return pick(n), pick(n), rng.lognormal(10.0, 2.0, size=n)

    local = pick(5)
    sets = [
        flows(0),
        (local, local.copy(), rng.lognormal(10.0, 2.0, size=5)),
        flows(1),
        flows(40_000),
        flows(300),
        flows(40),
    ]
    # Zero-volume flows still route.
    sets[4][2][::7] = 0.0
    return sets


@pytest.mark.parametrize("preset", ["tiny", "small"])
@pytest.mark.parametrize("topology", ["dragonfly", "df+"])
@pytest.mark.parametrize("endpoints", ["nodes", "all"])
def test_streamed_loads_equal_incidence_loads(topology, preset, endpoints):
    topo = build_topology(topology, preset)
    router = topo.default_router()
    # Node routers take df+'s all-leaf fast path; every router (spines
    # included) takes the shared expansion.
    ends = (
        np.unique(topo.node_router(topo.compute_nodes))
        if endpoints == "nodes"
        else np.arange(topo.num_routers)
    )
    sets = _flow_sets(topo, ends, np.random.default_rng(7))
    sizes = np.array([len(s) for s, _, _ in sets])
    src = np.concatenate([s for s, _, _ in sets])
    dst = np.concatenate([d for _, d, _ in sets])
    vol = np.concatenate([v for _, _, v in sets])
    fid = np.concatenate([np.arange(n) for n in sizes])
    set_of = np.repeat(np.arange(len(sets)), sizes)

    nl = topo.num_links
    stride = nl + _PAD
    acc_min = np.zeros(len(sets) * stride)
    acc_val = np.zeros(len(sets) * stride)
    out = router.route(
        src, dst, flow_ids=fid,
        sinks=(
            LinkLoadSink(acc_min, set_of, vol, stride),
            LinkLoadSink(acc_val, set_of, 0.5 * vol, stride),
        ),
    )
    assert out is None

    for j, (s, d, v) in enumerate(sets):
        solo = router.route(s, d)
        row = slice(j * stride, j * stride + nl)
        pad = slice(j * stride + nl, (j + 1) * stride)
        want_min = solo.minimal.link_loads(v, nl)
        want_val = solo.valiant.link_loads(0.5 * v, nl)
        assert acc_min[row].tobytes() == want_min.tobytes()
        assert acc_val[row].tobytes() == want_val.tobytes()
        assert not acc_min[pad].any() and not acc_val[pad].any()
        if j in (0, 1):  # empty and all-local sets touch no link
            assert not acc_min[row].any() and not acc_val[row].any()
        if j == 3:  # the large set alone fills the buffer several times
            assert solo.minimal.nnz > 2 * routing._SINK_ENTRIES
            assert solo.valiant.nnz > 2 * routing._SINK_ENTRIES
