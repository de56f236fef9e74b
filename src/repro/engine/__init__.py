"""Batch engine: fused service loops for warming and measurement, and
bulk trace decode.

Public surface:

* :func:`repro.engine.replay` -- service an access stream through a
  design via its fused kernel, one loop per tag organization for warming
  and measurement alike (bit-identical to the scalar engine in state and
  statistics), with automatic scalar fallback; returns which engine ran.
  ``DramCacheModel.run`` calls it.
* :func:`repro.engine.warm_design` -- ``replay`` followed by
  ``reset_stats()`` (``DramCacheModel.warm_up_array``).
* :func:`repro.engine.batch_enabled` / :func:`set_batch_enabled` -- the
  ``REPRO_BATCH`` / ``--batch-warming`` controls.
* :mod:`repro.engine.trace_array` -- numpy structured-array trace decode
  (``decode_array``, ``records_to_array``, ``array_to_records``).
* :func:`repro.engine.select_kernel` -- kernel coverage probe (None means
  the composition replays through the scalar engine).  Every composition
  of the stock design space and every registered design has a kernel;
  only subclassed tag, hit-predictor, fetch or writeback components (and
  ``REPRO_BATCH=0``) take the scalar engine.
* :func:`repro.engine.design_engine` -- the engine a registered design
  replays on, by name (``repro designs``, ``/api/designs``).
"""

from repro.engine.batch import (
    batch_enabled,
    replay,
    set_batch_enabled,
    warm_design,
)
from repro.engine.kernels import design_engine, select_kernel
from repro.engine.trace_array import (
    RECORD_DTYPE,
    array_to_records,
    decode_array,
    is_access_array,
    numpy_available,
    records_to_array,
)

__all__ = [
    "RECORD_DTYPE",
    "array_to_records",
    "batch_enabled",
    "decode_array",
    "design_engine",
    "is_access_array",
    "numpy_available",
    "records_to_array",
    "replay",
    "select_kernel",
    "set_batch_enabled",
    "warm_design",
]
