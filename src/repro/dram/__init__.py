"""DRAM substrate: timing classes, address mapping, bank/rank/channel
state machines and the assembled device.

``repro.dram.detailed`` (not re-exported) is the cycle-stepped
command-level reference model the event engine is cross-checked
against; the closed-form idle-latency check lives with its test."""

from .address import AddressMapping, DecodedAddress
from .bank import Bank, BankOp
from .channel import IO_DELAY_NS, TURNAROUND_NS, Channel
from .device import DRAMDevice, RowClassifier, homogeneous_classifier
from .rank import Rank
from .timing import (
    FAST,
    SLOW,
    TimingParams,
    charm_fast,
    ddr3_1600_fast,
    ddr3_1600_slow,
    migration_latency_ns,
)

__all__ = [
    "AddressMapping",
    "DecodedAddress",
    "Bank",
    "BankOp",
    "IO_DELAY_NS",
    "TURNAROUND_NS",
    "Channel",
    "DRAMDevice",
    "RowClassifier",
    "homogeneous_classifier",
    "Rank",
    "FAST",
    "SLOW",
    "TimingParams",
    "charm_fast",
    "ddr3_1600_fast",
    "ddr3_1600_slow",
    "migration_latency_ns",
]
