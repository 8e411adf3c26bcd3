"""Validation: the event-driven engine matches closed-form latencies.

For an idle channel (no queueing, no bank contention) the latency of a
read is a pure function of the row-buffer state and the subarray class:

* row hit        : tCL + tBURST (+ I/O)
* row closed     : tRCD + tCL + tBURST (+ I/O)
* row conflict   : tRP + tRCD + tCL + tBURST (+ I/O), plus any residual
  tRAS the open row still owes.

The closed forms below are the reference; the tests drive single
requests through fresh banks and systems and compare.
"""

from typing import Dict

import pytest

from repro.common.config import SystemConfig
from repro.core.variants import build_memory_system
from repro.dram.bank import Bank
from repro.dram.channel import IO_DELAY_NS, Channel
from repro.dram.rank import Rank
from repro.dram.timing import SLOW, TimingParams, ddr3_1600_fast, ddr3_1600_slow

#: Row-buffer states.
ROW_HIT = "hit"
ROW_CLOSED = "closed"
ROW_CONFLICT = "conflict"


def idle_read_latency_ns(params: TimingParams, state: str,
                         include_io: bool = True) -> float:
    """Latency of a single read on an otherwise idle system."""
    io = IO_DELAY_NS if include_io else 0.0
    data = params.tCL + params.tBURST + io
    if state == ROW_HIT:
        return data
    if state == ROW_CLOSED:
        return params.tRCD + data
    if state == ROW_CONFLICT:
        return params.tRP + params.tRCD + data
    raise ValueError(f"unknown row-buffer state {state!r}")


def idle_write_latency_ns(params: TimingParams, state: str) -> float:
    """Time until write data is on the bus, idle system (no I/O leg)."""
    data = params.tCWL + params.tBURST
    if state == ROW_HIT:
        return data
    if state == ROW_CLOSED:
        return params.tRCD + data
    if state == ROW_CONFLICT:
        return params.tRP + params.tRCD + data
    raise ValueError(f"unknown row-buffer state {state!r}")


def validate_device(device, tolerance_ns: float = 1e-6) -> Dict[str, bool]:
    """Check a device's bank timing against the closed forms.

    Drives canonical single-request sequences through a fresh bank per
    subarray class (the device itself is not mutated); returns one
    ``class:state -> held`` entry per check.
    """
    checks: Dict[str, bool] = {}
    reference_bank = device.banks[0]
    for class_name, params in device.timings.items():
        bank = Bank(device.timings, lambda row, _c=class_name: _c,
                    Rank(device.timings[SLOW]), Channel(),
                    subarray_of=reference_bank.subarray_of)
        # Closed bank.
        op = bank.schedule(1, False, 0.0)
        expected = idle_read_latency_ns(params, ROW_CLOSED, include_io=False)
        checks[f"{class_name}:closed"] = abs(
            op.data_end_ns - expected) <= tolerance_ns
        # Row hit (well after the activation settles).
        settle = params.tRC * 2
        op = bank.schedule(1, False, settle)
        expected = idle_read_latency_ns(params, ROW_HIT, include_io=False)
        checks[f"{class_name}:hit"] = abs(
            op.data_end_ns - settle - expected) <= tolerance_ns
        # Conflict, after all restore obligations have lapsed.
        start = settle + params.tRC * 2
        op = bank.schedule(2, False, start)
        expected = idle_read_latency_ns(params, ROW_CONFLICT,
                                        include_io=False)
        checks[f"{class_name}:conflict"] = abs(
            op.data_end_ns - start - expected) <= tolerance_ns
    return checks


class TestClosedForms:
    def test_hit_cheapest(self):
        slow = ddr3_1600_slow()
        assert (idle_read_latency_ns(slow, ROW_HIT)
                < idle_read_latency_ns(slow, ROW_CLOSED)
                < idle_read_latency_ns(slow, ROW_CONFLICT))

    def test_fast_class_cheaper_everywhere(self):
        slow, fast = ddr3_1600_slow(), ddr3_1600_fast()
        for state in (ROW_CLOSED, ROW_CONFLICT):
            assert (idle_read_latency_ns(fast, state)
                    < idle_read_latency_ns(slow, state))

    def test_hit_latency_class_independent(self):
        slow, fast = ddr3_1600_slow(), ddr3_1600_fast()
        assert idle_read_latency_ns(fast, ROW_HIT) == pytest.approx(
            idle_read_latency_ns(slow, ROW_HIT))

    def test_io_leg(self):
        slow = ddr3_1600_slow()
        assert (idle_read_latency_ns(slow, ROW_HIT)
                - idle_read_latency_ns(slow, ROW_HIT, include_io=False)
                == pytest.approx(IO_DELAY_NS))

    def test_write_form(self):
        slow = ddr3_1600_slow()
        assert idle_write_latency_ns(slow, ROW_CLOSED) == pytest.approx(
            slow.tRCD + slow.tCWL + slow.tBURST)

    def test_unknown_state(self):
        with pytest.raises(ValueError):
            idle_read_latency_ns(ddr3_1600_slow(), "ajar")


class TestDeviceValidation:
    @pytest.mark.parametrize("design", ["standard", "das", "fs"])
    def test_all_designs_validate(self, design):
        system = build_memory_system(SystemConfig(design=design))
        checks = validate_device(system.device)
        assert all(checks.values()), [n for n, ok in checks.items() if not ok]

    def test_report_covers_every_class(self):
        system = build_memory_system(SystemConfig(design="das"))
        checks = validate_device(system.device)
        classes = {name.split(":")[0] for name in checks}
        assert classes == set(system.device.timings)


class TestEndToEndAgainstClosedForm:
    def test_cold_read_matches(self, tiny_geometry):
        from repro.common.config import ControllerConfig
        from repro.controller.controller import MemorySystem
        from repro.dram.device import DRAMDevice, homogeneous_classifier
        from repro.dram.timing import SLOW

        slow = ddr3_1600_slow()
        device = DRAMDevice(tiny_geometry, {SLOW: slow},
                            homogeneous_classifier(SLOW))
        system = MemorySystem(device, ControllerConfig())
        request = system.submit(0.0, 0x1000, False)
        system.resolve(request)
        assert request.completion_ns == pytest.approx(
            idle_read_latency_ns(slow, ROW_CLOSED))
