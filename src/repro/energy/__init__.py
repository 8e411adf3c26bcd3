"""DRAM energy: the per-command event meter behind the paper's §7.7
power study."""

from .model import EnergyMeter, EnergyParams

__all__ = [
    "EnergyMeter",
    "EnergyParams",
]
