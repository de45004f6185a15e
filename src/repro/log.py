"""Package-wide stdlib logging.

Every module logs through a child of the single ``repro`` logger::

    from repro.log import get_logger

    log = get_logger(__name__)
    log.info("replacement worker started after a crash")

Library rules apply: the package installs a :class:`logging.NullHandler`
at import, never configures the root logger, and emits nothing unless the
embedding application (or the ``repro`` CLI via :func:`configure`) opts in.
The CLI exposes ``--log-level``/``-v``; diagnostics go to stderr so piped
stdout output (tables, JSON) stays clean.
"""

from __future__ import annotations

import logging
from typing import Optional

LOGGER_NAME = "repro"

_LEVELS = ("critical", "error", "warning", "info", "debug")

logging.getLogger(LOGGER_NAME).addHandler(logging.NullHandler())


def get_logger(name: Optional[str] = None) -> logging.Logger:
    """The package logger, or a namespaced child for one module.

    Pass ``__name__``; a ``repro.`` prefix is kept as-is and anything else
    is nested under it, so filtering on ``repro`` always catches everything.
    """
    if name is None or name == LOGGER_NAME:
        return logging.getLogger(LOGGER_NAME)
    if name.startswith(LOGGER_NAME + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{LOGGER_NAME}.{name}")


def configure(level: str = "warning") -> logging.Logger:
    """Attach a stderr handler to the package logger (CLI entry points only).

    Idempotent: re-invoking replaces the level, not the handler, so repeated
    :func:`repro.cli.main` calls (tests, notebooks) don't stack handlers.
    """
    if level not in _LEVELS:
        raise ValueError(f"log level must be one of {_LEVELS}, got {level!r}")
    logger = logging.getLogger(LOGGER_NAME)
    handler = next(
        (
            h
            for h in logger.handlers
            if isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
        ),
        None,
    )
    if handler is None:
        handler = logging.StreamHandler()  # stderr
        handler.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))
    return logger


def verbosity_to_level(verbose: int, base: str = "warning") -> str:
    """Map ``-v`` counts onto levels: 0 -> base, 1 -> info, 2+ -> debug."""
    if verbose <= 0:
        return base
    return "info" if verbose == 1 else "debug"
