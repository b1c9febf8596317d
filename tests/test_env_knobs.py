"""Every ``REPRO_*`` environment knob the package reads is documented.

``docs/development.md`` keeps one table of the knobs.  This test
collects every ``REPRO_*`` name that appears under ``src/`` and requires
the two sets to be equal, so a new knob cannot land undocumented and a
removed one cannot linger in the table.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = r"REPRO_[A-Z][A-Z_]*"


def _src_knobs() -> set[str]:
    return {
        name
        for path in (ROOT / "src").rglob("*.py")
        for name in re.findall(KNOB, path.read_text())
    }


def _table_knobs() -> set[str]:
    doc = (ROOT / "docs" / "development.md").read_text()
    section = doc.split("\n## Environment knobs\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(rf"^\| `({KNOB})` \|", section, flags=re.M))


def test_knob_table_matches_src():
    assert _table_knobs() == _src_knobs()
