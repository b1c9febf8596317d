"""The one parser for the boolean ``REPRO_*`` toggles.

``REPRO_FAST``, ``REPRO_TRACE`` and ``REPRO_ARTIFACT_CACHE`` are
on/off knobs read by different layers; :func:`env_flag` gives them one
meaning.  It lives here because
:mod:`repro.obs` is the package every layer may import.
"""

from __future__ import annotations

import os

_TRUE = frozenset({"1", "true"})
_FALSE = frozenset({"0", "false", ""})


def env_flag(name: str, default: bool) -> bool:
    """Read the boolean knob ``name`` (``default`` when unset).

    ``1``/``true`` mean on and ``0``/``false``/empty mean off, in any
    case.  Anything else raises a ``ValueError`` naming the knob, so a
    typo like ``off`` cannot silently turn a feature on.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    value = raw.lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ValueError(
        f"{name}={raw!r} is not a boolean; use 1/true or 0/false (any case)"
    )
