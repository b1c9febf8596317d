"""The single logging configurator: levels, env export, worker mirror."""

from __future__ import annotations

import logging
import os

import pytest

import repro.obs.log as obslog


@pytest.fixture
def pristine_logging(monkeypatch):
    """Snapshot the repro logger + module state and restore afterwards."""
    logger = obslog.get_logger()
    saved = (list(logger.handlers), logger.level, logger.propagate)
    monkeypatch.setattr(obslog, "_CONFIGURED", False)
    monkeypatch.delenv(obslog.LOG_LEVEL_ENV, raising=False)
    for h in list(logger.handlers):  # earlier tests may have configured
        logger.removeHandler(h)
    yield
    for h in list(logger.handlers):
        logger.removeHandler(h)
    for h in saved[0]:
        logger.addHandler(h)
    logger.setLevel(saved[1])
    logger.propagate = saved[2]


def test_get_logger_namespacing():
    assert obslog.get_logger().name == "repro"
    assert obslog.get_logger("campaign").name == "repro.campaign"
    # Children share the repro logger's handlers via propagation.
    assert obslog.get_logger("campaign").parent is obslog.get_logger()


def test_configure_defaults_to_info_and_exports(pristine_logging):
    logger = obslog.configure_logging()
    assert obslog.logging_configured()
    assert logger.level == logging.INFO
    assert os.environ[obslog.LOG_LEVEL_ENV] == "INFO"
    assert len(logger.handlers) == 1
    assert logger.propagate is False


def test_configure_reads_env_level(pristine_logging, monkeypatch):
    monkeypatch.setenv(obslog.LOG_LEVEL_ENV, "debug")
    assert obslog.configure_logging().level == logging.DEBUG
    assert os.environ[obslog.LOG_LEVEL_ENV] == "DEBUG"


def test_configure_is_idempotent_unless_forced(pristine_logging):
    obslog.configure_logging(level="INFO")
    obslog.configure_logging(level="DEBUG")  # ignored: already configured
    assert obslog.get_logger().level == logging.INFO
    obslog.configure_logging(level="DEBUG", force=True)
    assert obslog.get_logger().level == logging.DEBUG
    assert len(obslog.get_logger().handlers) == 1  # replaced, not stacked


def test_worker_stays_silent_without_parent_config(pristine_logging):
    obslog.configure_worker_logging()
    assert not obslog.logging_configured()
    assert not obslog.get_logger().handlers


def test_worker_mirrors_parent_level_with_pid_tag(pristine_logging, monkeypatch):
    monkeypatch.setenv(obslog.LOG_LEVEL_ENV, "INFO")
    obslog.configure_worker_logging()
    logger = obslog.get_logger()
    assert logger.level == logging.INFO
    (handler,) = logger.handlers
    rec = logger.makeRecord("repro.campaign", logging.INFO, "f", 1, "hi", (), None)
    assert f"[w{os.getpid()}]" in handler.format(rec)


@pytest.mark.parametrize("value", ["LOUD", "basic_format"])
def test_unknown_env_level_raises_naming_the_knob(
    pristine_logging, monkeypatch, value
):
    """Not a level: no silent INFO, no crash inside ``setLevel``."""
    monkeypatch.setenv(obslog.LOG_LEVEL_ENV, value)
    with pytest.raises(ValueError, match=f"REPRO_LOG_LEVEL='{value}'"):
        obslog.configure_logging()
    assert not obslog.logging_configured()
    assert not obslog.get_logger().handlers


@pytest.mark.parametrize(
    "name", ["CRITICAL", "ERROR", "WARNING", "INFO", "DEBUG", "NOTSET"]
)
def test_worker_parses_every_exported_level(pristine_logging, name):
    level = getattr(logging, name)
    obslog.configure_logging(level=level)
    assert os.environ[obslog.LOG_LEVEL_ENV] == name
    obslog.configure_worker_logging()
    assert obslog.get_logger().level == level
