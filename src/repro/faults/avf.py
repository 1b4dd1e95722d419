"""Architectural Vulnerability Factor (AVF) analysis.

The paper justifies detector placement with AVF-style reasoning
("sequential elements which store data ... are the most vulnerable
architectural blocks", Sec III-B-1, citing the AVF Stressmark work [25]).
This module quantifies that: the AVF of a structure is the fraction of
its bit-cycles holding ACE (architecturally-correct-execution) state — an
upset in non-ACE state is masked for free.

Two estimators:

* **occupancy AVF** for queueing structures (ROB/IQ/LSQ/CB): mean
  occupancy over capacity — an entry in flight is ACE, an empty slot is
  not;
* **liveness AVF** for the register file: exact def-use interval analysis
  over the golden trace — a register is ACE from a write until its last
  read before the next write (or not at all if never read).

``effective_fit`` derates a raw FIT rate by the bit-weighted AVF, which
is the standard way raw circuit SER becomes an architectural failure
rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING

from repro.isa.golden import ArchState, step_state
from repro.isa.instructions import Opcode, REG_COUNT
from repro.isa.program import Program

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import Pipeline
    from repro.mem.hierarchy import MemPort


@dataclass(frozen=True)
class StructureAVF:
    """One structure's vulnerability estimate."""

    name: str
    bits: int
    avf: float

    @property
    def ace_bits(self) -> float:
        return self.bits * self.avf


def regfile_liveness_avf(program: Program,
                         max_instructions: int = 200_000) -> float:
    """Exact register-file AVF by def-use interval analysis.

    Replays the program functionally, recording for every architectural
    write the instruction index, and closing the interval at the last
    read before the next write. AVF = live register-instructions /
    (REG_COUNT x instructions). r0 is hardwired and never ACE.
    """
    state = ArchState()
    state.load_data(program)
    state.pc = program.entry_pc

    last_write: Dict[int, int] = {}     # reg -> index of defining write
    last_read: Dict[int, int] = {}      # reg -> index of last read since
    live_instructions = 0
    index = 0

    def close_interval(reg: int) -> int:
        """Live span of the current def of ``reg`` (0 if never read)."""
        if reg not in last_write:
            return 0
        if reg not in last_read or last_read[reg] < last_write[reg]:
            return 0
        return last_read[reg] - last_write[reg]

    while index < max_instructions:
        ins = program.fetch(state.pc)
        if ins is None or ins.op is Opcode.HALT:
            break
        for reg in ins.src_regs():
            if reg != 0:
                last_read[reg] = index
        if ins.writes_reg and ins.rd != 0:
            live_instructions += close_interval(ins.rd)
            last_write[ins.rd] = index
        step_state(state, ins)
        index += 1

    for reg in list(last_write):
        live_instructions += close_interval(reg)

    if index == 0:
        return 0.0
    return live_instructions / (REG_COUNT * index)


def occupancy_avf(mean_occupancy: float, capacity: int) -> float:
    """Queueing-structure AVF: occupied entries are ACE."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    return min(1.0, max(0.0, mean_occupancy / capacity))


def pipeline_avf_report(pipeline: "Pipeline", memport: "MemPort",
                        program: Optional[Program] = None,
                        cb_mean_occupancy: float = 0.0,
                        cb_capacity: int = 0) -> List[StructureAVF]:
    """Per-structure AVF from a finished run's statistics.

    Cache AVF uses end-of-run residency as the steady-state estimate
    (lines fill early and stay resident for kernel-scale runs).
    """
    cfg = pipeline.config
    rows = [
        StructureAVF("rob", cfg.rob_entries * 72,
                     occupancy_avf(pipeline.mean_occupancy(pipeline.rob),
                                   cfg.rob_entries)),
        StructureAVF("iq", cfg.iq_entries * 40,
                     occupancy_avf(pipeline.mean_occupancy(pipeline.iq),
                                   cfg.iq_entries)),
        StructureAVF("lsq", cfg.lsq_entries * 72,
                     occupancy_avf(pipeline.mean_occupancy(pipeline.lsq),
                                   cfg.lsq_entries)),
    ]
    if program is not None:
        rows.append(StructureAVF("regfile", REG_COUNT * 32,
                                 regfile_liveness_avf(program)))
    d = memport.dcache
    lines_total = d.config.size_bytes // d.config.line_bytes
    rows.append(StructureAVF(
        "l1d_data", d.config.size_bytes * 8,
        occupancy_avf(d.resident_count(), lines_total)))
    i = memport.icache
    lines_total = i.config.size_bytes // i.config.line_bytes
    rows.append(StructureAVF(
        "l1i_data", i.config.size_bytes * 8,
        occupancy_avf(i.resident_count(), lines_total)))
    if cb_capacity > 0:
        rows.append(StructureAVF("cb", cb_capacity * 66,
                                 occupancy_avf(cb_mean_occupancy,
                                               cb_capacity)))
    return rows


def effective_fit(raw_fit: float, report: List[StructureAVF]) -> float:
    """Derate a raw (circuit-level) FIT by the bit-weighted AVF."""
    if raw_fit < 0:
        raise ValueError("FIT must be non-negative")
    total_bits = sum(r.bits for r in report)
    if total_bits == 0:
        return 0.0
    weighted = sum(r.ace_bits for r in report) / total_bits
    return raw_fit * weighted
