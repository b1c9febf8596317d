"""One stdlib-logging configurator for the whole package.

Every module logs through ``get_logger("<area>")`` (a child of the
``repro`` logger) and never attaches handlers itself.  CLIs and worker
processes call :func:`configure_logging` once; library use without
configuration stays silent below WARNING (stdlib last-resort behaviour),
so tests and imports never spam.

``REPRO_LOG_LEVEL`` picks the level (default INFO once configured): a
standard level name in any case; anything else raises ``ValueError``.
:func:`configure_logging` exports the chosen level back into the
environment so campaign worker subprocesses inherit the setting, and
workers tag every record with ``[w<pid>]`` so interleaved progress lines
stay attributable.
"""

from __future__ import annotations

import logging
import os

LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

#: Concise default format: one-letter level, area, message.
_FORMAT = "%(levelname).1s %(name)s: %(message)s"
_WORKER_FORMAT = "%(levelname).1s %(name)s [w%(process)d]: %(message)s"

_ROOT = "repro"
_CONFIGURED = False

#: The standard level names: what ``logging.getLevelName`` gives for each
#: standard level, so a name a parent exports always parses in a worker.
_LEVELS = ("CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG", "NOTSET")


def get_logger(area: str = "") -> logging.Logger:
    """The package logger for an area, e.g. ``get_logger("campaign")``."""
    return logging.getLogger(f"{_ROOT}.{area}" if area else _ROOT)


def logging_configured() -> bool:
    return _CONFIGURED


def _parse_level(name: str) -> int:
    """A standard level name, in any case, as its number; anything else
    raises ``ValueError`` naming ``REPRO_LOG_LEVEL``."""
    if name.upper() not in _LEVELS:
        raise ValueError(
            f"{LOG_LEVEL_ENV}={name!r} is not a log level; use one of "
            f"{', '.join(_LEVELS)} (any case)"
        )
    return getattr(logging, name.upper())


def configure_logging(
    level: "str | int | None" = None, worker: bool = False, force: bool = False
) -> logging.Logger:
    """Attach one stream handler to the ``repro`` logger.

    Parameters
    ----------
    level:
        Explicit level, a number or a standard name in any case; default
        is ``REPRO_LOG_LEVEL`` (else INFO).  Any other name raises
        ``ValueError``.
    worker:
        Use the worker format (``[w<pid>]`` tag) and never re-export the
        level to the environment.
    force:
        Reconfigure even if already configured (tests, CLIs overriding).
    """
    global _CONFIGURED
    logger = get_logger()
    if _CONFIGURED and not force:
        return logger
    if level is None:
        level = os.environ.get(LOG_LEVEL_ENV) or "INFO"
    if isinstance(level, str):
        level = _parse_level(level)
    for h in list(logger.handlers):
        logger.removeHandler(h)
    handler = logging.StreamHandler()
    handler.setFormatter(
        logging.Formatter(_WORKER_FORMAT if worker else _FORMAT)
    )
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    if not worker:
        # Workers inherit the effective level through the environment.
        os.environ[LOG_LEVEL_ENV] = logging.getLevelName(level)
    _CONFIGURED = True
    return logger


def configure_worker_logging() -> None:
    """Called from pool initializers: mirror the parent's configuration.

    A worker only attaches handlers when the parent exported a level
    (i.e. the parent itself configured logging); otherwise the worker
    stays silent like any unconfigured library process.
    """
    if os.environ.get(LOG_LEVEL_ENV):
        configure_logging(worker=True, force=True)
