"""Engine selection: the columnar core by default, the scalar oracle on demand.

Every experiment builds its engine through :func:`make_engine` (via
:meth:`repro.hardware.cluster.Cluster.from_spec`), so one switch flips the
whole framework between the two cores:

* ``columnar`` (default) — :class:`~repro.sim.columnar.ColumnarEngine`,
  one event heap with O(1) cancellation and an inlined dispatch loop;
* ``scalar`` — the original heap-walk :class:`~repro.sim.engine.Engine`,
  kept bit-for-bit intact as the property-test oracle.

Selection order: an explicit ``mode=`` argument, then the ambient
override installed by :func:`set_engine_mode` /
:func:`using_engine_mode`, then the ``REPRO_ENGINE`` environment
variable, then the default.  The mode is deliberately **not** part of
run-cache keys: the two cores are equivalence-tested to produce
identical event order and clock values, so a cached result is valid for
either (see ``docs/ENGINE.md``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.sim.columnar import ColumnarEngine
from repro.sim.engine import Engine

__all__ = [
    "ENGINE_MODES",
    "engine_mode",
    "make_engine",
    "set_engine_mode",
    "using_engine_mode",
]

#: mode name → engine class
ENGINE_MODES = {"scalar": Engine, "columnar": ColumnarEngine}

_DEFAULT_MODE = "columnar"
_override: Optional[str] = None


def _check_mode(mode: str) -> str:
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine mode {mode!r}; expected one of "
            f"{sorted(ENGINE_MODES)}"
        )
    return mode


def engine_mode() -> str:
    """The currently selected engine mode (``'columnar'`` or ``'scalar'``)."""
    if _override is not None:
        return _override
    raw = os.environ.get("REPRO_ENGINE")
    if raw is None:
        return _DEFAULT_MODE
    return _check_mode(raw.strip().lower())


def set_engine_mode(mode: Optional[str]) -> Optional[str]:
    """Install (or with ``None`` clear) the ambient engine-mode override.

    Returns the previous override so callers can restore it; prefer the
    :func:`using_engine_mode` context manager in tests and scripts.
    """
    global _override
    if mode is not None:
        _check_mode(mode)
    previous = _override
    _override = mode
    return previous


@contextmanager
def using_engine_mode(mode: str) -> Iterator[str]:
    """Context manager scoping an engine-mode override::

        with using_engine_mode("scalar"):
            run = run_measured(workload, strategy)   # on the oracle core
    """
    previous = set_engine_mode(mode)
    try:
        yield mode
    finally:
        set_engine_mode(previous)


def make_engine(
    start_time: float = 0.0,
    strict: bool = True,
    mode: Optional[str] = None,
) -> Engine:
    """Build an engine of the selected mode (see module docstring)."""
    cls = ENGINE_MODES[_check_mode(mode) if mode is not None else engine_mode()]
    return cls(start_time, strict)
