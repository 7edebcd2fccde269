"""Structured logging for the simulator (stdlib ``logging``).

Every subsystem logs through a child of the ``repro`` logger —
``repro.harness``, ``repro.trident``, ``repro.faults``, ``repro.obs`` —
so one CLI flag (``--log-level``) or one ``logging.getLogger("repro")``
call controls everything, and library users embedding the simulator can
route or silence it with standard handler configuration.

The loggers carry diagnostics (trace links, fault applications, watchdog
trips); CLI *result* formatting stays on stdout via the report helpers.
By default the ``repro`` tree propagates to the root logger with no
handler of its own, so importing the package never configures logging
behind an embedding application's back.
"""

from __future__ import annotations

import logging
import sys

_ROOT_NAME = "repro"

#: Accepted ``--log-level`` spellings.
LEVELS = ("debug", "info", "warning", "error", "critical")


def get_logger(subsystem: str) -> logging.Logger:
    """The logger for one subsystem (``get_logger("trident")``)."""
    if subsystem.startswith(_ROOT_NAME):
        return logging.getLogger(subsystem)
    return logging.getLogger(f"{_ROOT_NAME}.{subsystem}")


def configure_logging(
    level: str = "warning",
    quiet: bool = False,
    stream=None,
) -> logging.Logger:
    """Configure the ``repro`` logger tree for CLI use.

    ``quiet`` wins over ``level`` and silences everything below ERROR.
    Replaces any handler a previous call installed (idempotent across
    repeated CLI invocations in one process, e.g. the test suite).
    """
    name = level.lower()
    if name not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {', '.join(LEVELS)}"
        )
    numeric = logging.ERROR if quiet else getattr(logging, name.upper())
    root = logging.getLogger(_ROOT_NAME)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    root.addHandler(handler)
    root.setLevel(numeric)
    root.propagate = False
    return root


def reset_logging() -> None:
    """Undo :func:`configure_logging` (tests)."""
    root = logging.getLogger(_ROOT_NAME)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
    root.propagate = True
