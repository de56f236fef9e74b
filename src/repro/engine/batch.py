"""The one dispatcher between the fused kernels and the scalar engine.

:func:`replay` services an access stream through a design -- warming and
measurement alike -- and guarantees the design ends up exactly as the
scalar engine's ``access`` loop leaves it, state *and* statistics,
whichever engine actually ran.  It dispatches to a fused kernel
(:mod:`repro.engine.kernels`) when the composition is covered and the
batch engine is enabled, and falls back to the scalar engine otherwise,
reporting which engine ran so callers can tag telemetry.
:meth:`~repro.dramcache.base.DramCacheModel.run` is ``replay``;
:func:`warm_design` is ``replay`` followed by ``reset_stats()``.

Enablement: the batch engine is on by default.  ``REPRO_BATCH=0`` (or
``false``/``no``/``off``) disables it process-wide, for warming and
measurement both; the CLI's ``--batch-warming/--no-batch-warming`` flags
override the environment via :func:`set_batch_enabled`.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.engine.kernels import select_kernel
from repro.engine.trace_array import as_records, is_access_array, make_columns
from repro.obs.core import NULL_SPAN

_FALSY = ("0", "false", "no", "off")

# CLI override: None defers to the REPRO_BATCH environment variable.
_enabled_override: Optional[bool] = None


def batch_enabled() -> bool:
    """Whether the batch engine may run (CLI override, then REPRO_BATCH)."""
    if _enabled_override is not None:
        return _enabled_override
    return os.environ.get("REPRO_BATCH", "1").strip().lower() not in _FALSY


def set_batch_enabled(enabled: Optional[bool]) -> None:
    """Force the batch engine on/off; ``None`` defers to ``REPRO_BATCH``."""
    global _enabled_override
    _enabled_override = enabled


def replay(design, accesses, span=NULL_SPAN) -> str:
    """Service ``accesses`` through ``design``; returns ``"batch"`` or
    ``"scalar"``.

    ``accesses`` may be a numpy structured record array (see
    :mod:`repro.engine.trace_array`) or any iterable of access records; a
    one-shot iterable is materialized once, before either engine sees it.
    ``span`` counts the replay under ``engine_batch``/``engine_scalar``,
    plus ``batch_accesses`` for a batch replay.
    """
    if not (is_access_array(accesses) or isinstance(accesses, (list, tuple))):
        accesses = list(accesses)
    kernel = select_kernel(design) if batch_enabled() else None
    columns = make_columns(accesses) if kernel is not None else None
    # A kernel returns False, before touching any state, for a replay it
    # does not model (see select_kernel); the scalar engine then runs.
    if columns is not None and (not columns.n or kernel(design, columns)):
        span.add("engine_batch", 1)
        span.add("batch_accesses", columns.n)
        return "batch"
    access = design.access
    for request in as_records(accesses):
        access(request)
    span.add("engine_scalar", 1)
    return "scalar"


def warm_design(design, accesses, span=NULL_SPAN) -> str:
    """Warm ``design`` with ``accesses``; returns ``"batch"`` or ``"scalar"``.

    :func:`replay` followed by ``reset_stats()``: the design ends up warmed
    *and* with statistics reset, the contract of the scalar
    :meth:`~repro.dramcache.base.DramCacheModel.warm_up`.
    """
    engine = replay(design, accesses, span)
    design.reset_stats()
    return engine


__all__ = ["batch_enabled", "replay", "set_batch_enabled", "warm_design"]
