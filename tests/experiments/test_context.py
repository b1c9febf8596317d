"""The in-process campaign cache: bounded, least recently used out first."""

from __future__ import annotations

from collections import OrderedDict

from repro.experiments import context

CELLS = [None, ("df+", "valiant"), ("dragonfly", "minimal")]


class _Campaign:
    def keys(self):
        return []


def test_cache_keeps_two_campaigns_and_evicts_the_oldest(monkeypatch):
    monkeypatch.setattr(context, "_CACHE", OrderedDict())
    generated = []

    def generate(cfg):
        generated.append(cfg.fingerprint())
        return _Campaign()

    monkeypatch.setattr(context, "run_campaign", generate)
    fps = [context.experiment_config(True, cell).fingerprint() for cell in CELLS]
    a = context.get_campaign(fast=True, cell=CELLS[0])
    context.get_campaign(fast=True, cell=CELLS[1])
    # A memo hit makes the first campaign the most recently used ...
    assert context.get_campaign(fast=True, cell=CELLS[0]) is a
    context.get_campaign(fast=True, cell=CELLS[2])
    # ... so the third generation evicts the second, not the first.
    assert generated == fps
    assert list(context._CACHE) == [fps[0], fps[2]]
    assert context.get_campaign(fast=True, cell=CELLS[0]) is a
    context.get_campaign(fast=True, cell=CELLS[1])
    assert generated == fps + [fps[1]]
    assert list(context._CACHE) == [fps[0], fps[1]]
