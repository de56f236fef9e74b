"""DRAM device and controller timing model.

A compact, DRAMSim2-inspired timing model of DDR-style devices: per-bank row
buffer state honouring the Table III timing constraints (tRCD, tCAS, tRP,
tRAS, tRC, tWR, tWTR, tRTP, tRRD, tFAW), a shared data bus per channel, and
an open-page controller with channel/bank interleaving.  The whole model is
:class:`DramController`, whose state is flat per-bank and per-channel lists;
it serves measurement and batch warming alike.

It is used both for the off-chip DDR3-1600 channel and for the four-channel
die-stacked DRAM; the DRAM cache models issue logical operations (read a tag
burst, read a block, fill a footprint) and receive latencies in CPU cycles.
"""

from repro.dram.timing import DramTimings
from repro.dram.address_mapping import AddressMapping, DramCoordinates
from repro.dram.controller import DramController

__all__ = [
    "DramTimings",
    "AddressMapping",
    "DramCoordinates",
    "DramController",
]
