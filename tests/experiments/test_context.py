"""The in-process campaign cache: its size knob fails loudly, early."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.experiments import context


def test_bad_cache_size_fails_before_generation(monkeypatch):
    monkeypatch.setenv("REPRO_CAMPAIGN_CACHE_SIZE", "two")
    monkeypatch.setattr(context, "_CACHE", OrderedDict())

    def generate(cfg):
        raise AssertionError("generated a campaign before checking the knob")

    monkeypatch.setattr(context, "run_campaign", generate)
    with pytest.raises(ValueError, match="REPRO_CAMPAIGN_CACHE_SIZE"):
        context.get_campaign(fast=True)


@pytest.mark.parametrize("raw, size", [("", 2), (" 3 ", 3), ("0", 1)])
def test_cache_size_values(monkeypatch, raw, size):
    monkeypatch.setenv("REPRO_CAMPAIGN_CACHE_SIZE", raw)
    assert context.campaign_cache_size() == size
