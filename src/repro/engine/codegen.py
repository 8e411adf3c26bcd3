"""Elaborate a :class:`SystemConfig` into a specialized stepping kernel.

The interpreter (:mod:`repro.controller.controller`,
:mod:`repro.cpu.core`) reads every timing parameter, design knob and
policy flag from live objects on every scheduling decision.  For a
*fixed* configuration all of those are constants, so this module emits
a Python source file in which they are literals and every
configuration branch is resolved at generation time:

* the bank state machine (:meth:`repro.dram.bank.Bank.schedule`), the
  channel bus reservation and the rank ACT window are inlined into the
  controller's drain loop with the built device's
  :class:`~repro.dram.timing.TimingTable` values as float literals,
  specialized per subarray class;
* the per-row classifier becomes a single integer compare (asymmetric
  designs) or disappears (homogeneous designs);
* the management-layer hooks are pruned for designs whose policy is a
  no-op (standard / fs) and kept as pre-bound calls otherwise;
* the core's per-reference loop inlines the L1 probe, the address
  decode and the request submission.

**Oracle contract.**  The emitted arithmetic mirrors the interpreter
expression for expression: ``max(a, b)`` becomes the equivalent
compare-and-assign, float literals are ``repr()`` round-trips of the
exact values the interpreter would read, and counters are mirrored
into locals and written back in ``finally`` blocks in the same order
the interpreter updates them.  Any drift is a bug; ``repro engine
verify`` checks bit-identical counters against the interpreter, and
``install()`` in the generated module refuses to attach to a system
whose live constants disagree with the emitted literals (a stale
kernel fails loudly instead of silently diverging).
"""

from __future__ import annotations

import textwrap
from typing import Dict

from ..common.config import SystemConfig
from ..common.units import Frequency, log2_exact
from ..common.version import CODE_VERSION
from ..core.organization import AsymmetricOrganization
from ..dram.address import AddressMapping
from ..dram.channel import IO_DELAY_NS, TURNAROUND_NS
from ..dram.timing import (
    FAST,
    SLOW,
    TimingParams,
    TimingTable,
    charm_fast,
    ddr3_1600_fast,
    ddr3_1600_slow,
)
from ..energy.model import EnergyParams

#: Every flat field of a :class:`TimingTable`, in declaration order.
TABLE_FIELDS = (
    "tCK", "tRCD", "tRP", "tRAS", "tCL", "tCWL", "tBURST", "tWR",
    "tRTP", "tCCD", "tRRD", "tFAW", "tWTR", "tREFI", "tRFC", "tRC",
)

#: Designs whose management policy is the identity (no translate call,
#: no on_scheduled hook, no migrations).
UNMANAGED_DESIGNS = ("standard", "fs")

#: Designs whose translate() may chain a DRAM table fetch (table_row)
#: or add an LLC-lookup delay.  The static managers (sas / charm)
#: always return a bare physical row, so their chain handling is
#: pruned.
CHAINED_DESIGNS = ("das", "das_fm", "das_incl")

#: Expected management-policy class per design — install() verifies the
#: built system matches, protecting every pruning decision above.
MANAGER_CLASSES = {
    "standard": "ManagementPolicy",
    "fs": "ManagementPolicy",
    "sas": "StaticAsymmetricManager",
    "charm": "StaticAsymmetricManager",
    "das": "DASManager",
    "das_fm": "DASManager",
    "das_incl": "InclusiveManager",
}


def _flt(value: float) -> str:
    """A float literal that round-trips to exactly ``value``."""
    return repr(float(value))


def design_timings(design: str) -> Dict[str, TimingParams]:
    """The timing classes :func:`repro.core.variants.build_memory_system`
    gives a design's device (same constructors, same overrides)."""
    timings: Dict[str, TimingParams] = {SLOW: ddr3_1600_slow()}
    if design != "standard":
        timings[FAST] = charm_fast() if design == "charm" \
            else ddr3_1600_fast()
    return timings


def timing_literals(params: TimingParams) -> Dict[str, str]:
    """The per-field literals the generator emits for one timing class.

    Derived exactly as the device build derives them (through
    :class:`TimingTable`, so ``tRC`` is the same ``tRAS + tRP`` sum),
    then stringified with :func:`repr` so evaluating the literal gives
    the bit-identical float back.  The hypothesis property test pins
    this equality across randomized designs.
    """
    table = TimingTable(params)
    return {name: _flt(getattr(table, name)) for name in TABLE_FIELDS}


def _ind(text: str, spaces: int) -> str:
    return textwrap.indent(text, " " * spaces)


def _class_body(cls: str, t: Dict[str, str], ctx: dict) -> str:
    """The post-classify schedule/record/energy code for one subarray
    class, mirroring Bank.schedule + Channel.reserve + the controller's
    _issue/_record and the energy meter, with this class's literals."""
    managed = ctx["managed"]
    chained = ctx["chained"]
    open_tRP = ctx["open_tRP"]
    energy_act = ctx["energy_fast"] if cls == FAST else ctx["energy_slow"]
    acts_var = "acts_fast" if cls == FAST else "acts_slow"
    miss_counter = "c_fast" if cls == FAST else "c_slow"
    lines = f"""\
row_conflict = open_row is not None and not row_hit
if row_hit:
    col_ready = bank.column_ready
    if col_ready < earliest:
        col_ready = earliest
    first_cmd = col_ready
    activated = False
    precharged = False
else:
    if row_conflict:
        pre = bank.next_precharge_ok
        if pre < earliest:
            pre = earliest
        act_ready = pre + {open_tRP}
        other = bank.next_activate
        if act_ready < other:
            act_ready = other
        precharged = True
        first_cmd_lb = pre
    else:
        act_ready = bank.next_activate
        if act_ready < earliest:
            act_ready = earliest
        precharged = False
        first_cmd_lb = act_ready
    rank = bank.rank
    act = act_ready
    other = rank._last_act + {ctx['tRRD']}
    if other > act:
        act = other
    window = rank._act_window
    if len(window) == 4:
        other = window[0] + {ctx['tFAW']}
        if other > act:
            act = other
    rank._last_act = act
    window.append(act)
    activated = True
    bank.activations += 1
    if row_conflict:
        bank.precharges += 1
    first_cmd = first_cmd_lb if first_cmd_lb < act else act
    bank.open_row = row
    bank._open_table = {ctx['table_ref'][cls]}
    bank.next_precharge_ok = act + {t['tRAS']}
    bank.next_activate = act + {t['tRC']}
    col_ready = bank.column_ready = act + {t['tRCD']}
ch = bank.channel
earliest_data = ch.bus_free
last_dir = ch._last_was_write
if last_dir is not None and last_dir != is_write:
    earliest_data += {ctx['turnaround']}
if is_write:
    col = col_ready
    other = ch.next_column
    if other > col:
        col = other
    other = earliest_data - {t['tCWL']}
    if other > col:
        col = other
    data_start = col + {t['tCWL']}
    data_end = data_start + {t['tBURST']}
    pre_ok = data_end + {t['tWR']}
    completion = data_end
else:
    col = col_ready
    other = ch.next_column
    if other > col:
        col = other
    other = earliest_data - {t['tCL']}
    if other > col:
        col = other
    data_start = col + {t['tCL']}
    data_end = data_start + {t['tBURST']}
    pre_ok = col + {t['tRTP']}
    completion = data_end + {ctx['io_delay']}
ch.bus_free = data_end
ch.next_column = col + {t['tCCD']}
ch._last_was_write = is_write
bank.last_column_ns = col
if pre_ok > bank.next_precharge_ok:
    bank.next_precharge_ok = pre_ok
request.completion_ns = completion
"""
    if managed:
        lines += f"""\
op = BankOp(first_cmd, data_start, data_end, row_hit, row_conflict,
            activated, precharged, {cls!r})
request.op = op
"""
    if ctx["closed_page"]:
        lines += "bank.precharge_now(data_end)\n"
    lines += f"""\
base = clock[channel]
if now > base:
    base = now
clock[channel] = base + {ctx['command_slot']}
"""
    record = f"""\
if is_write:
    c_writes += 1
else:
    c_reads += 1
    lat = completion - request.arrival_ns
    lat_sum += lat
    h_count += 1
    if lat > h_max:
        h_max = lat
    index = int(lat // {ctx['hist_width']})
    if 0 <= index < {ctx['hist_buckets']}:
        h_buckets[index] += 1
    else:
        h_over += 1
    lat_n += 1
if row_hit:
    c_hits += 1
elif row_conflict:
    c_conf += 1
else:
    c_closed += 1
if not row_hit:
    {miss_counter} += 1
"""
    if chained:
        lines += 'if request.kind == "xlat":\n    c_xlat += 1\nelse:\n'
        lines += _ind(record, 4)
    else:
        lines += record
    lines += f"""\
if activated:
    {acts_var} += 1
    e_act += {energy_act}
if is_write:
    en_writes += 1
    e_col += {ctx['energy_write']}
else:
    en_reads += 1
    e_col += {ctx['energy_read']}
"""
    if managed:
        if chained:
            lines += ('if request.kind != "xlat":\n'
                      "    on_scheduled(request, op, memory)\n")
        else:
            lines += "on_scheduled(request, op, memory)\n"
    if chained:
        lines += """\
dep = request.dependent
if dep is not None:
    arr = completion + request.extra_delay_ns
    if dep.arrival_ns > arr:
        arr = dep.arrival_ns
    dep.arrival_ns = arr
    dep.parent = None
    request.dependent = None
    if dep.is_write:
        write_qs[dep.channel].append(dep)
    else:
        read_qs[dep.channel].append(dep)
"""
    return lines


def _issue_block(ctx: dict) -> str:
    """The fully inlined issue path (interpreter ``_issue`` + the bank /
    rank / channel state machines), specialized per subarray class.

    Emitted with ``request``, ``channel`` and ``now`` in scope.
    """
    lines = """\
bank = banks[request.flat_bank]
row = request.row
is_write = request.is_write
earliest = now
open_row = bank.open_row
"""
    if ctx["timeout"]:
        lines += f"""\
if open_row is not None and earliest - bank.last_column_ns > {ctx['row_timeout']}:
    close = bank.last_column_ns + {ctx['row_timeout']}
    other = bank.next_precharge_ok
    if close < other:
        close = other
    open_row = bank.open_row = None
    bank.column_ready = _INF
    ready = close + {ctx['open_tRP']}
    if ready > bank.next_activate:
        bank.next_activate = ready
"""
    lines += "row_hit = open_row == row\n"
    if ctx["managed"]:
        lines += """\
if not row_hit:
    if bank.pending_migrations:
        bank._start_pending_migrations()
        open_row = bank.open_row
    if bank.active_migrations:
        earliest = bank._wait_for_migrations(row, earliest)
"""
    lines += """\
other = bank.busy_until
if earliest < other:
    earliest = other
"""
    classes = ctx["classes"]
    if len(classes) == 1:
        cls = classes[0]
        lines += _class_body(cls, ctx["tables"][cls], ctx)
    else:
        lines += f"if row < {ctx['fast_rows']}:\n"
        lines += _ind(_class_body(FAST, ctx["tables"][FAST], ctx), 4)
        lines += "else:\n"
        lines += _ind(_class_body(SLOW, ctx["tables"][SLOW], ctx), 4)
    return lines


def _refresh_lines(ctx: dict) -> str:
    if not ctx["refresh"]:
        return ""
    return ("if now >= refresh_min[channel]:\n"
            "    refresh_due(channel, now)\n")


def _drain_source(ctx: dict) -> str:
    """The generated replacement for ``MemorySystem._drain_channel``."""
    chained = ctx["chained"]
    mirrors_in = [
        # The histogram object is replaced by reset_stats, so it is
        # re-bound on every drain call rather than at install time.
        "hist = memory.read_latency_hist",
        "h_buckets = hist.buckets",
        "h_count = hist.count",
        "h_max = hist.max_sample",
        "h_over = hist.overflow",
        "c_reads = memory.reads",
        "c_writes = memory.writes",
        "c_hits = memory.row_buffer_hits",
        "c_conf = memory.row_conflicts",
        "c_closed = memory.row_closed",
        "lat_sum = memory.read_latency_sum",
        "lat_n = memory.read_count",
        "e_act = energy.activate_energy_nj",
        "e_col = energy.column_energy_nj",
        "en_reads = energy.reads",
        "en_writes = energy.writes",
        "acts = energy.activations",
    ]
    mirrors_out = [
        "hist.count = h_count",
        "hist.max_sample = h_max",
        "hist.overflow = h_over",
        "memory.reads = c_reads",
        "memory.writes = c_writes",
        "memory.row_buffer_hits = c_hits",
        "memory.row_conflicts = c_conf",
        "memory.row_closed = c_closed",
        "memory.read_latency_sum = lat_sum",
        "memory.read_count = lat_n",
        "energy.activate_energy_nj = e_act",
        "energy.column_energy_nj = e_col",
        "energy.reads = en_reads",
        "energy.writes = en_writes",
    ]
    if chained:
        mirrors_in.append("c_xlat = memory.xlat_reads")
        mirrors_out.append("memory.xlat_reads = c_xlat")
    if FAST in ctx["classes"]:
        mirrors_in += ["c_fast = memory.fast_accesses",
                       'acts_fast = acts["fast"]']
        mirrors_out += ["memory.fast_accesses = c_fast",
                        'acts["fast"] = acts_fast']
    if SLOW in ctx["classes"]:
        mirrors_in += ["c_slow = memory.slow_accesses",
                       'acts_slow = acts["slow"]']
        mirrors_out += ["memory.slow_accesses = c_slow",
                        'acts["slow"] = acts_slow']
    issue = _issue_block(ctx)
    refresh = _refresh_lines(ctx)
    body = f"""\
def drain_channel(channel, t_safe, stop=None):
    reads = read_qs[channel]
    writes = write_qs[channel]
    progressed = False
{_ind(chr(10).join(mirrors_in), 4)}
    try:
        while reads or writes:
            if stop is not None and stop.completion_ns is not None:
                break
            if not writes and len(reads) == 1:
                request = reads[0]
                now = clock[channel]
                arrival = request.arrival_ns
                if arrival > now:
                    now = arrival
                if now > t_safe:
                    break
{_ind(refresh, 16) if refresh else ""}\
                if draining[channel]:
                    draining[channel] = False
                del reads[0]
{_ind(issue, 16)}\
                progressed = True
                continue
            min_arrival = _INF
            for req in reads:
                arrival = req.arrival_ns
                if arrival < min_arrival:
                    min_arrival = arrival
            for req in writes:
                arrival = req.arrival_ns
                if arrival < min_arrival:
                    min_arrival = arrival
            now = clock[channel]
            if min_arrival > now:
                now = min_arrival
            if now > t_safe:
                break
{_ind(refresh, 12) if refresh else ""}\
            ready_reads = [r for r in reads if r.arrival_ns <= now]
            ready_writes = [w for w in writes if w.arrival_ns <= now]
            if draining[channel]:
                if len(writes) <= {ctx['low_mark']} or not ready_writes:
                    draining[channel] = False
            elif len(writes) >= {ctx['high_mark']} and ready_writes:
                draining[channel] = True
            if ready_writes and (draining[channel] or not ready_reads):
                request = (ready_writes[0] if len(ready_writes) == 1
                           else pick(ready_writes, now))
                writes.remove(request)
            else:
                request = (ready_reads[0] if len(ready_reads) == 1
                           else pick(ready_reads, now))
                reads.remove(request)
{_ind(issue, 12)}\
            progressed = True
    finally:
{_ind(chr(10).join(mirrors_out), 8)}
    return progressed
"""
    return body


def _slot_lookup_inline(ctx: dict) -> str:
    """Inlined ``TranslationTable.slot_of`` plus the fast/slow physical
    mapping shared by the static and DAS managers (geometry values are
    install-time closure bindings of the live manager's attributes)."""
    touch = ""
    if ctx["translate_inline"] == "das" and ctx["touch_lru"]:
        touch = """\
        order = repl_recency.get((flat_bank, group))
        if order is not None and order and order[-1] != slot:
            try:
                order.remove(slot)
                order.append(slot)
            except ValueError:
                pass
"""
    return f"""\
    group = row // group_rows
    local = row - group * group_rows
    tindex = flat_bank * groups_per_bank + group
    entry = tt_groups[tindex]
    if entry is None:
        entry = (_array("H", tt_identity), _array("H", tt_identity))
        tt_groups[tindex] = entry
        table._materialized += 1
    slot = entry[0][local]
    if slot < fast_per_group:
        physical = group * fast_per_group + slot
{touch}\
    else:
        physical = (fast_rows_per_bank + group * slow_per_group
                    + slot - fast_per_group)
    request.row = physical
"""


def _tc_insert_inline(indent: int) -> str:
    return _ind("""\
if logical_row in tc_entries:
    del tc_entries[logical_row]
elif len(tc_entries) >= tc_capacity:
    del tc_entries[next(iter(tc_entries))]
tc_entries[logical_row] = slot
""", indent)


def _das_translate_inline(ctx: dict) -> str:
    """Inlined ``DASManager.translate`` and the queueing tails.

    Mirrors the manager's structure exactly: slot lookup + recency touch
    first, then the translation-cache probe (zero added latency on hit),
    then the LLC partition probe (one LLC latency), then the
    double-miss DRAM table fetch chained through an ``xlat`` parent.
    The install-time tracer check keeps the pruned trace emission safe.
    """
    return _slot_lookup_inline(ctx) + """\
    slot_c = tc_entries.get(logical_row)
    if slot_c is not None:
        tc_hits.value += 1
        del tc_entries[logical_row]
        tc_entries[logical_row] = slot_c
        if is_write:
            write_qs[channel].append(request)
        else:
            read_qs[channel].append(request)
    else:
        tc_misses.value += 1
        key = logical_row // entries_per_line
        if key in part_lines:
            part_hits.value += 1
            del part_lines[key]
            part_lines[key] = None
            if slot < fast_per_group:
""" + _tc_insert_inline(16) + """\
            if llc_lat:
                request.arrival_ns = arrival_ns + llc_lat
            if is_write:
                write_qs[channel].append(request)
            else:
                read_qs[channel].append(request)
        else:
            part_misses.value += 1
            tfetch.value += 1
            if len(part_lines) >= part_capacity:
                del part_lines[next(iter(part_lines))]
            part_lines[key] = None
            if slot < fast_per_group:
""" + _tc_insert_inline(16) + """\
            if llc_lat:
                request.arrival_ns = arrival_ns + llc_lat
            parent = Request(arrival_ns, address, False, core, "xlat")
            parent.channel = channel
            parent.flat_bank = flat_bank
            parent.row = table_row_for(row)
            parent.logical_row = logical_row
            parent.dependent = request
            parent.extra_delay_ns = llc_lat
            request.parent = parent
            read_qs[channel].append(parent)
"""


def _submit_source(ctx: dict) -> str:
    """The generated replacement for ``MemorySystem.submit`` with the
    address decode inlined and the translation chain specialized."""
    m = ctx["mapping"]
    lines = f"""\
def submit_fast(arrival_ns, address, is_write, core):
    bits = (address & {m['capacity_mask']}) >> {m['chan_shift']}
    channel = bits & {m['channel_mask']}
    bits >>= {m['channel_bits']}
    bank_index = bits & {m['bank_mask']}
    bits >>= {m['bank_bits']}
    rank_index = bits & {m['rank_mask']}
    row = (bits >> {m['rank_bits']}) & {m['row_mask']}
    flat_bank = (channel * {m['per_channel']}
                 + rank_index * {m['banks_per_rank']} + bank_index)
"""
    if m["scatter"]:
        lines += (f"    row = (row * {m['hash_multiplier']}"
                  f" + flat_bank * 61) & {m['row_mask']}\n")
    lines += f"""\
    logical_row = flat_bank * {ctx['rows_per_bank']} + row
    request = Request(arrival_ns, address, is_write, core,
                      "write" if is_write else "read")
    request.channel = channel
    request.flat_bank = flat_bank
    request.logical_row = logical_row
"""
    if not ctx["managed"]:
        lines += "    request.row = row\n"
        tail = """\
    if is_write:
        write_qs[channel].append(request)
    else:
        read_qs[channel].append(request)
"""
    elif not ctx["chained"]:
        if ctx["translate_inline"] == "static":
            lines += _slot_lookup_inline(ctx)
        else:
            lines += """\
    translation = translate(logical_row, flat_bank, row, is_write,
                            arrival_ns)
    request.row = translation.physical_row
"""
        tail = """\
    if is_write:
        write_qs[channel].append(request)
    else:
        read_qs[channel].append(request)
"""
    elif ctx["translate_inline"] == "das":
        lines += _das_translate_inline(ctx)
        tail = ""
    else:
        lines += """\
    translation = translate(logical_row, flat_bank, row, is_write,
                            arrival_ns)
    request.row = translation.physical_row
"""
        tail = """\
    delay = translation.delay_ns
    if delay:
        request.arrival_ns = arrival_ns + delay
    table_row = translation.table_row
    if table_row is None:
        if is_write:
            write_qs[channel].append(request)
        else:
            read_qs[channel].append(request)
    else:
        parent = Request(arrival_ns, address, False, core, "xlat")
        parent.channel = channel
        parent.flat_bank = flat_bank
        parent.row = table_row
        parent.logical_row = logical_row
        parent.dependent = request
        parent.extra_delay_ns = delay
        request.parent = parent
        read_qs[channel].append(parent)
"""
    lines += tail
    lines += """\
    memory.touched_rows.add(logical_row)
    return request
"""
    return lines


def _fill_inline(level: str, line_var: str, out_var: str, ctx: dict) -> str:
    """One inlined ``Cache.fill(line, dirty=True)`` for the writeback
    chain: ``out_var`` receives the evicted dirty victim's *line number*
    (or stays -1).  Mirrors the resident-merge short-circuit and the
    LRU ``_fill`` pop exactly."""
    mask = ctx[f"{level}_set_mask"]
    ways = ctx[f"{level}_ways"]
    return f"""\
{out_var} = -1
fset = {level}_sets[{line_var} & {mask}]
if {line_var} in fset:
    {level}_dirty.add({line_var})
else:
    if len(fset) >= {ways}:
        victim = fset.pop()
        {level}_evictions += 1
        if victim in {level}_dirty:
            {level}_dirty.discard(victim)
            {level}_writebacks += 1
            {out_var} = victim
    fset.insert(0, {line_var})
    {level}_dirty.add({line_var})
"""


def _probe_inline(level: str, hit_body: str, ctx: dict) -> str:
    """One inlined ``Cache.access``: the hit path (reorder + dirty merge
    + ``hit_body``) and the miss allocate, leaving the evicted dirty
    victim's line in ``wb`` (or -1)."""
    mask = ctx[f"{level}_set_mask"]
    ways = ctx[f"{level}_ways"]
    return f"""\
sset = {level}_sets[line & {mask}]
if line in sset:
    {level}_hits += 1
    if sset[0] != line:
        sset.remove(line)
        sset.insert(0, line)
    if is_write:
        {level}_dirty.add(line)
{_ind(hit_body, 4)}\
{level}_misses += 1
wb = -1
if len(sset) >= {ways}:
    victim = sset.pop()
    {level}_evictions += 1
    if victim in {level}_dirty:
        {level}_dirty.discard(victim)
        {level}_writebacks += 1
        wb = victim
sset.insert(0, line)
if is_write:
    {level}_dirty.add(line)
"""


def _hierarchy_probe(ctx: dict) -> str:
    """The fully inlined three-level walk mirroring
    ``CacheHierarchy.access_tuple`` (LRU-only; gated by install checks).

    Line numbers flow through the spill chain exactly as the
    interpreter's byte addresses do (shift-down on entry, shift-up on
    return compose to the identity); the DRAM-bound writeback list holds
    byte addresses, as ``submit`` expects.
    """
    shift = ctx["line_shift"]
    submit_wbs = """\
if writebacks is not None:
    for writeback in writebacks:
        submit_fast(fetch_ns, writeback, True, core_id)
"""
    l1_hit = f"""\
if not is_write:
    completion = fetch_ns + {ctx['l1_hit_ns']}
    if completion > retire_floor_ns:
        retire_floor_ns = completion
continue
"""
    l2_hit = submit_wbs + f"""\
if not is_write:
    completion = fetch_ns + {ctx['l2_hit_ns']}
    if completion > retire_floor_ns:
        retire_floor_ns = completion
continue
"""
    llc_hit = submit_wbs + f"""\
if not is_write:
    completion = fetch_ns + {ctx['llc_hit_ns']}
    if completion > retire_floor_ns:
        retire_floor_ns = completion
continue
"""
    return (
        f"line = address >> {shift}\n"
        + _probe_inline("l1", l1_hit, ctx)
        + "writebacks = None\n"
        + "if wb >= 0:\n"
        + _ind(_fill_inline("l2", "wb", "spill", ctx), 4)
        + "    if spill >= 0:\n"
        + _ind(_fill_inline("llc", "spill", "spill2", ctx), 8)
        + "        if spill2 >= 0:\n"
        + f"            writebacks = [spill2 << {shift}]\n"
        + _probe_inline("l2", l2_hit, ctx)
        + "if wb >= 0:\n"
        + _ind(_fill_inline("llc", "wb", "spill", ctx), 4)
        + "    if spill >= 0:\n"
        + f"        if writebacks is None:\n"
        + f"            writebacks = [spill << {shift}]\n"
        + "        else:\n"
        + f"            writebacks.append(spill << {shift})\n"
        + _probe_inline("llc", llc_hit, ctx)
        + "if wb >= 0:\n"
        + "    if writebacks is None:\n"
        + f"        writebacks = [wb << {shift}]\n"
        + "    else:\n"
        + f"        writebacks.append(wb << {shift})\n"
        + submit_wbs
        + f"hierarchy.llc_demand_misses[core_id] += 1\n"
        + f"miss_time = fetch_ns + {ctx['miss_lat_ns']}\n"
        + f"request = submit_fast(miss_time, address & {ctx['line_align']}, "
        + "False, core_id)\n"
        + "if not is_write:\n"
        + "    outstanding.append((instructions, request))\n"
    )


def _advance_source(ctx: dict) -> str:
    """The generated per-core replacement for ``Core.advance``."""
    direct = ctx["direct_resolve"]
    inline_caches = ctx["inline_caches"]
    if direct:
        resolve = """\
while completion is None:
    parent = request.parent
    target = parent if parent is not None else request
    drain_channel(target.channel, _INF, target)
    completion = request.completion_ns
"""
    else:
        resolve = """\
core._blocked_on = request
core._pending_ref = (address, is_write)
return
"""
    if inline_caches:
        probe = _hierarchy_probe(ctx)
    else:
        probe = f"""\
level, latency, demand_fill, writebacks = access(
    core_id, address, is_write)
if writebacks:
    for writeback in writebacks:
        submit_fast(fetch_ns, writeback, True, core_id)
if level != "MEM":
    if not is_write:
        completion = fetch_ns + latency * {ctx['cycle_ns']}
        if completion > retire_floor_ns:
            retire_floor_ns = completion
    continue
miss_time = fetch_ns + latency * {ctx['cycle_ns']}
request = submit_fast(miss_time, demand_fill, False, core_id)
if not is_write:
    outstanding.append((instructions, request))
"""
    cache_bind = "access = hierarchy.access_tuple\n"
    cache_mirror_in = ""
    cache_mirror_out = ""
    if inline_caches:
        cache_bind = """\
l1 = hierarchy.l1[core.core_id]
l2 = hierarchy.l2[core.core_id]
llc = hierarchy.llc
l1_sets = l1._sets
l1_dirty = l1._dirty
l2_sets = l2._sets
l2_dirty = l2._dirty
llc_sets = llc._sets
llc_dirty = llc._dirty
"""
        counters = ("hits", "misses", "evictions", "writebacks")
        cache_mirror_in = "".join(
            f"        {lvl}_{c} = {lvl}.{c}\n"
            for lvl in ("l1", "l2", "llc") for c in counters)
        cache_mirror_out = "".join(
            f"            {lvl}.{c} = {lvl}_{c}\n"
            for lvl in ("l1", "l2", "llc") for c in counters)
    return f"""\
def make_advance(core):
    trace_next = core.trace.__next__
    outstanding = core._outstanding
    core_id = core.core_id
    max_references = core.max_references
{_ind(cache_bind, 4)}\

    def advance(until_references=None):
        if core.finished:
            return
        blocked = core._blocked_on
        if blocked is not None and blocked.completion_ns is None:
            return
        fetch_ns = core.fetch_ns
        retire_floor_ns = core.retire_floor_ns
        instructions = core.instructions
        references = core.references
        rob_stalls = core.rob_stalls
        stall_ns = core.stall_ns
{cache_mirror_in}\
        try:
            while True:
                blocked = core._blocked_on
                if blocked is not None:
                    completion = blocked.completion_ns
                    if completion is None:
                        return
                    core._blocked_on = None
                    if completion > retire_floor_ns:
                        retire_floor_ns = completion
                    if fetch_ns < retire_floor_ns:
                        stall = retire_floor_ns - fetch_ns
                        rob_stalls += 1
                        stall_ns += stall
                        fetch_ns = retire_floor_ns
                pending = core._pending_ref
                if pending is None:
                    if until_references is not None \\
                            and references >= until_references:
                        return
                    if references >= max_references:
                        core.finished = True
                        return
                    try:
                        gap, address, is_write = trace_next()
                    except StopIteration:
                        core.finished = True
                        return
                    references += 1
                    slots = gap + 1
                    instructions += slots
                    fetch_ns += slots * {ctx['slot_ns']}
                else:
                    address, is_write = pending
                    core._pending_ref = None
                if outstanding:
                    boundary = instructions - {ctx['rob']}
                    while outstanding and outstanding[0][0] <= boundary:
                        _inst, request = outstanding.popleft()
                        completion = request.completion_ns
                        if completion is None:
{_ind(resolve, 28)}\
                        if completion > retire_floor_ns:
                            retire_floor_ns = completion
                        if fetch_ns < retire_floor_ns:
                            stall = retire_floor_ns - fetch_ns
                            rob_stalls += 1
                            stall_ns += stall
                            fetch_ns = retire_floor_ns
{_ind(probe, 16)}\
        finally:
            core.fetch_ns = fetch_ns
            core.retire_floor_ns = retire_floor_ns
            core.instructions = instructions
            core.references = references
            core.rob_stalls = rob_stalls
            core.stall_ns = stall_ns
{cache_mirror_out}\

    return advance
"""


def _check_source(ctx: dict) -> str:
    """Install-time verification: the emitted literals must equal the
    live values of the system the kernel is attaching to."""
    lines = [
        f"_expect(len(cores) == {ctx['num_cores']}, 'core count')",
        f"_expect(type(memory.manager).__name__ == "
        f"{ctx['manager_class']!r}, 'manager class')",
        "_expect(memory.tracer is None, 'memory tracer must be None')",
        "_expect(memory.manager.tracer is None, "
        "'manager tracer must be None')",
        f"_expect(memory._closed_page is {ctx['closed_page']}, "
        "'page policy')",
        f"_expect(memory._refresh_enabled is {ctx['refresh']}, "
        "'refresh flag')",
        f"_expect(memory._command_slot_ns == {ctx['command_slot']}, "
        "'command slot')",
        f"_expect(memory._high_mark == {ctx['high_mark']}, 'high mark')",
        f"_expect(memory._low_mark == {ctx['low_mark']}, 'low mark')",
        f"_expect(memory.read_latency_hist.bucket_width == "
        f"{ctx['hist_width']}, 'hist bucket width')",
        f"_expect(memory.read_latency_hist._num_buckets == "
        f"{ctx['hist_buckets']}, 'hist buckets')",
        f"_expect(memory._rows_per_bank == {ctx['rows_per_bank']}, "
        "'rows per bank')",
        "_expect(memory.energy is not None, 'energy meter expected')",
        f"_expect(memory.energy.params.activate_fast_nj == "
        f"{ctx['energy_fast']}, 'energy fast')",
        f"_expect(memory.energy.params.activate_slow_nj == "
        f"{ctx['energy_slow']}, 'energy slow')",
        f"_expect(memory.energy.params.read_nj == {ctx['energy_read']}, "
        "'energy read')",
        f"_expect(memory.energy.params.write_nj == "
        f"{ctx['energy_write']}, 'energy write')",
        f"_expect(_channel_mod.IO_DELAY_NS == {ctx['io_delay']}, "
        "'IO delay')",
        f"_expect(_channel_mod.TURNAROUND_NS == {ctx['turnaround']}, "
        "'turnaround')",
        "bank0 = memory._banks[0]",
        f"_expect(bank0.rank._tRRD == {ctx['tRRD']}, 'tRRD')",
        f"_expect(bank0.rank._tFAW == {ctx['tFAW']}, 'tFAW')",
    ]
    if ctx["translate_inline"] == "das":
        lines.append(f"_expect(type(memory.manager.replacement).__name__ "
                     f"== {ctx['replacement_class']!r}, 'replacement policy')")
    if ctx["timeout"]:
        lines.append(f"_expect(bank0.row_timeout_ns == "
                     f"{ctx['row_timeout']}, 'row timeout')")
    else:
        lines.append("_expect(bank0.row_timeout_ns is None, "
                     "'row timeout must be off')")
    for cls in ctx["classes"]:
        for name in TABLE_FIELDS:
            lines.append(
                f"_expect(bank0.tables[{cls!r}].{name} == "
                f"{ctx['tables'][cls][name]}, '{cls} {name}')")
    m = ctx["mapping"]
    lines += [
        "mapping = memory._mapping",
        f"_expect(mapping.capacity_mask == {m['capacity_mask']}, "
        "'capacity mask')",
        f"_expect(mapping._chan_shift == {m['chan_shift']}, 'chan shift')",
        f"_expect(mapping._row_mask == {m['row_mask']}, 'row mask')",
        f"_expect(mapping._per_channel == {m['per_channel']}, "
        "'banks per channel')",
        f"_expect(mapping.scatter_rows is {m['scatter']}, 'scatter rows')",
        "for core in cores:",
        "    _expect(core.tracer is None, 'core tracer must be None')",
        f"    _expect(core.direct_resolve is {ctx['direct_resolve']}, "
        "'resolve mode')",
        f"    _expect(core._slot_ns == {ctx['slot_ns']}, 'slot ns')",
        f"    _expect(core._cycle_ns == {ctx['cycle_ns']}, 'cycle ns')",
        f"    _expect(core._rob == {ctx['rob']}, 'rob entries')",
        f"_expect(hierarchy._l1_latency == {ctx['l1_latency']}, "
        "'l1 latency')",
        f"_expect(hierarchy._l2_latency == {ctx['l2_latency']}, "
        "'l2 latency')",
        f"_expect(hierarchy._llc_latency == {ctx['llc_latency']}, "
        "'llc latency')",
    ]
    if ctx["inline_caches"]:
        lines.append(f"_expect(hierarchy._line_align == "
                     f"{ctx['line_align']}, 'line align')")
        for level, group in (("l1", "hierarchy.l1"), ("l2", "hierarchy.l2"),
                             ("llc", "(hierarchy.llc,)")):
            tag = level.upper()
            lines += [
                f"for cache in {group}:",
                "    _expect(cache._reorder_on_hit and cache._pop_last, "
                f"'{tag} must be LRU')",
                f"    _expect(cache._line_shift == {ctx['line_shift']}, "
                f"'{tag} line shift')",
                f"    _expect(cache._set_mask == {ctx[f'{level}_set_mask']}, "
                f"'{tag} set mask')",
                f"    _expect(cache._ways == {ctx[f'{level}_ways']}, "
                f"'{tag} ways')",
            ]
    return "\n".join(lines) + "\n"


def _build_context(config: SystemConfig) -> dict:
    """Every literal and structural decision the templates consume."""
    design = config.design
    managed = design not in UNMANAGED_DESIGNS
    chained = design in CHAINED_DESIGNS
    timings = design_timings(design)
    tables = {cls: timing_literals(params)
              for cls, params in timings.items()}
    slow = timings[SLOW]
    if design == "standard":
        classes = (SLOW,)
    elif design == "fs":
        classes = (FAST,)
    else:
        classes = (FAST, SLOW)
    # The conflict/timeout paths read the *open* row's tRP.  With one
    # reachable class it is a constant (any open row has that class);
    # asymmetric banks must read the live open table.
    if len(classes) == 1:
        open_tRP = tables[classes[0]]["tRP"]
    else:
        open_tRP = "bank._open_table.tRP"
    table_ref = {cls: f"table_{cls}" for cls in classes}
    controller = config.controller
    core = config.core
    cycle_ns = Frequency.from_ghz(core.frequency_ghz).period_ns
    mapping = AddressMapping(config.geometry)
    hierarchy = config.hierarchy
    energy = EnergyParams()
    fast_rows = 0
    if managed:
        organization = AsymmetricOrganization(config.geometry, config.asym)
        fast_rows = organization.fast_rows_per_bank
    # translate() specialization: the static managers are pure geometry
    # (slot lookup + fast/slow mapping); the DAS manager adds the
    # translation-cache / LLC-partition / table-fetch ladder.  Both are
    # inlined against install-time bindings of the live manager's state;
    # das_incl overrides translate and keeps the bound call.
    if design in ("sas", "charm"):
        translate_inline = "static"
    elif design in ("das", "das_fm"):
        translate_inline = "das"
    else:
        translate_inline = None
    replacement_class = {
        "lru": "LRUReplacement",
        "random": "RandomReplacement",
        "sequential": "SequentialReplacement",
        "counter": "GlobalCounterReplacement",
    }[config.asym.replacement]
    return {
        "design": design,
        "num_cores": config.num_cores,
        "managed": managed,
        "chained": chained,
        "manager_class": MANAGER_CLASSES[design],
        "classes": classes,
        "tables": tables,
        "table_ref": table_ref,
        "open_tRP": open_tRP,
        "fast_rows": fast_rows,
        "timeout": controller.page_policy == "timeout",
        "closed_page": controller.page_policy == "closed",
        "row_timeout": _flt(controller.row_timeout_ns),
        "refresh": controller.refresh_enabled,
        "command_slot": _flt(slow.tCK),
        "tRRD": _flt(slow.tRRD),
        "tFAW": _flt(slow.tFAW),
        "high_mark": max(1, int(controller.write_queue_entries
                                * controller.write_drain_high)),
        "low_mark": int(controller.write_queue_entries
                        * controller.write_drain_low),
        "io_delay": _flt(IO_DELAY_NS),
        "turnaround": _flt(TURNAROUND_NS),
        "energy_fast": _flt(energy.activate_fast_nj),
        "energy_slow": _flt(energy.activate_slow_nj),
        "energy_read": _flt(energy.read_nj),
        "energy_write": _flt(energy.write_nj),
        "rows_per_bank": config.geometry.rows_per_bank,
        "mapping": {
            "capacity_mask": mapping.capacity_mask,
            "chan_shift": mapping._chan_shift,
            "channel_mask": mapping._channel_mask,
            "channel_bits": mapping._channel_bits,
            "bank_mask": mapping._bank_mask,
            "bank_bits": mapping._bank_bits,
            "rank_mask": mapping._rank_mask,
            "rank_bits": mapping._rank_bits,
            "row_mask": mapping._row_mask,
            "per_channel": mapping._per_channel,
            "banks_per_rank": mapping._banks_per_rank,
            "hash_multiplier": AddressMapping._ROW_HASH_MULTIPLIER,
            "scatter": mapping.scatter_rows,
        },
        "translate_inline": translate_inline,
        "touch_lru": config.asym.replacement == "lru",
        "replacement_class": replacement_class,
        "direct_resolve": config.num_cores == 1,
        "inline_caches": all(
            level.replacement == "lru"
            for level in (hierarchy.l1, hierarchy.l2, hierarchy.llc)),
        "line_shift": log2_exact(hierarchy.l1.line_bytes),
        "line_align": ~(hierarchy.l1.line_bytes - 1),
        "l1_set_mask": hierarchy.l1.num_sets - 1,
        "l1_ways": hierarchy.l1.associativity,
        "l2_set_mask": hierarchy.l2.num_sets - 1,
        "l2_ways": hierarchy.l2.associativity,
        "llc_set_mask": hierarchy.llc.num_sets - 1,
        "llc_ways": hierarchy.llc.associativity,
        "hist_width": _flt(5.0),
        "hist_buckets": 400,
        "l1_latency": hierarchy.l1.latency_cycles,
        "l2_latency": hierarchy.l2.latency_cycles,
        "llc_latency": hierarchy.llc.latency_cycles,
        "cycle_ns": _flt(cycle_ns),
        "slot_ns": _flt(cycle_ns / core.issue_width),
        "rob": core.rob_entries,
        "l1_hit_ns": _flt(hierarchy.l1.latency_cycles * cycle_ns),
        "l2_hit_ns": _flt(hierarchy.l2.latency_cycles * cycle_ns),
        "llc_hit_ns": _flt(hierarchy.llc.latency_cycles * cycle_ns),
        "miss_lat_ns": _flt(hierarchy.llc.latency_cycles * cycle_ns),
    }


def kernel_key(config: SystemConfig) -> str:
    """The configuration identity of a kernel: the config hash sans seed.

    The seed reaches a run only through its traces and the seeded
    random state the kernel reads from the live system; no emitted
    literal depends on it, so every seed of one configuration shares
    one kernel.
    """
    return config.replace(seed=0).cache_key()


def kernel_source(config: SystemConfig) -> str:
    """Emit the kernel module source for one configuration.

    The module exposes ``install(memory, hierarchy, cores)``, which
    verifies the built system against the emitted literals and then
    swaps in the specialized drain loop (``memory._drain_channel``)
    and per-core stepping loops (``core.advance``).  Both classes are
    patchable instance-attribute points (neither defines
    ``__slots__``); everything reached *through* them (banks, caches,
    requests) is slotted and mutated in place, exactly as the
    interpreter mutates it.
    """
    ctx = _build_context(config)
    table_binds = "\n".join(
        f"    table_{cls} = memory._banks[0].tables[{cls!r}]"
        for cls in ctx["classes"])
    manager_binds = ""
    if ctx["managed"]:
        manager_binds = "    on_scheduled = memory.manager.on_scheduled\n"
        if ctx["translate_inline"] is None:
            manager_binds += "    translate = memory.manager.translate\n"
        else:
            manager_binds += _ind("""\
org = memory.manager.organization
group_rows = org.group_rows
fast_per_group = org.fast_per_group
slow_per_group = org.slow_per_group
fast_rows_per_bank = org.fast_rows_per_bank
table = memory.manager.table
tt_groups = table._groups
tt_identity = table._identity
groups_per_bank = table._groups_per_bank
""", 4)
        if ctx["translate_inline"] == "das":
            manager_binds += _ind("""\
tc = memory.manager.translation_cache
tc_entries = tc._entries
tc_hits = tc._hits
tc_misses = tc._misses
tc_capacity = tc.capacity_entries
part = memory.manager.llc_partition
part_lines = part._lines
part_hits = part._hits
part_misses = part._misses
part_capacity = part.capacity_lines
entries_per_line = part.entries_per_line
tfetch = memory.manager._table_fetches
table_row_for = org.table_row_for
llc_lat = memory.manager.llc_latency_ns
""", 4)
            if ctx["touch_lru"]:
                manager_binds += \
                    "    repl_recency = memory.manager.replacement._recency\n"
    refresh_binds = ""
    if ctx["refresh"]:
        refresh_binds = ("    refresh_min = memory._refresh_min\n"
                         "    refresh_due = memory._refresh_due\n")
    imports = "from repro.controller.request import Request\n"
    if ctx["managed"]:
        imports += "from repro.dram.bank import BankOp\n"
    if ctx["translate_inline"] is not None:
        imports = "from array import array as _array\n\n" + imports
    advance_installs = "\n".join(
        ["    for core in cores:",
         "        core.advance = make_advance(core)"])
    return f'''"""Generated repro kernel — DO NOT EDIT.

design={ctx["design"]} num_cores={ctx["num_cores"]} \
code_version={CODE_VERSION}
config={kernel_key(config)}

Emitted by repro.engine.codegen.kernel_source; regenerated whenever
(CODE_VERSION, codegen source, seed-free config) changes.  install()
raises RuntimeError if the live system's constants disagree with the
literals baked in here.
"""

import math

from repro.dram import channel as _channel_mod
{imports}
CONFIG_KEY = "{kernel_key(config)}"
CODE_VERSION = {CODE_VERSION}
DESIGN = "{ctx["design"]}"

_INF = math.inf


def _expect(condition, what):
    if not condition:
        raise RuntimeError(
            "compiled kernel does not match the built system: " + what)


def install(memory, hierarchy, cores):
    """Verify the system against the baked-in constants, then attach."""
{_ind(_check_source(ctx), 4)}
    banks = memory._banks
    read_qs = memory._read_q
    write_qs = memory._write_q
    clock = memory._clock
    draining = memory._draining
    pick = memory._scheduler.pick
    energy = memory.energy
{table_binds}
{manager_binds}{refresh_binds}
{_ind(_drain_source(ctx), 4)}
    memory._drain_channel = drain_channel

{_ind(_submit_source(ctx), 4)}
{_ind(_advance_source(ctx), 4)}
{advance_installs}
'''
