"""Core facade: a single simulated core with its private memory port.

:class:`Core` is the unit the redundant systems compose in pairs; it also
runs standalone as the *unprotected baseline* configuration that Figures
4-6 normalise against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.config import CoreConfig, SystemConfig
from repro.core.pipeline import CommitGate, Pipeline, PipelineStats
from repro.isa.golden import ArchState
from repro.isa.program import Program
from repro.mem.bus import Bus
from repro.mem.hierarchy import MemPort
from repro.mem.l2 import SharedL2
from repro.mem.prewarm import prewarm_l2


@dataclass
class CoreResult:
    """Outcome of running one core to completion."""

    cycles: int
    instructions: int
    state: ArchState
    stats: PipelineStats
    mispredict_rate: float = 0.0
    l1d_miss_rate: float = 0.0
    rob_mean_occupancy: float = 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class Core:
    """One core = pipeline + memory port, steppable from outside."""

    def __init__(self,
                 program: Program,
                 config: Optional[SystemConfig] = None,
                 memport: Optional[MemPort] = None,
                 gate: Optional[CommitGate] = None,
                 name: str = "core0") -> None:
        self.config = config or SystemConfig.table1()
        if memport is None:
            bus = Bus(width_bytes=self.config.bus_width_bytes)
            l2 = SharedL2(config=self.config.l2, mshrs=self.config.l2_mshrs)
            prewarm_l2(l2, program)
            memport = MemPort(bus, l2,
                              icache_cfg=self.config.icache,
                              dcache_cfg=self.config.dcache,
                              itlb_cfg=self.config.itlb,
                              dtlb_cfg=self.config.dtlb,
                              l1_mshrs=self.config.l1_mshrs,
                              name=name)
        self.mem = memport
        self.pipeline = Pipeline(program, self.config.core, memport,
                                 gate=gate, name=name)
        self.name = name

    @property
    def done(self) -> bool:
        return self.pipeline.done

    def step(self, now: int) -> None:
        self.pipeline.step(now)

    def run(self, max_cycles: int = 2_000_000) -> CoreResult:
        """Run to HALT (single-core use); raises on cycle-budget overrun."""
        now = 0
        while not self.pipeline.done:
            if now >= max_cycles:
                raise RuntimeError(
                    f"{self.name}: exceeded {max_cycles} cycles "
                    f"({self.pipeline.stats.committed} committed)")
            self.pipeline.step(now)
            now += 1
        return self.result()

    def result(self) -> CoreResult:
        p = self.pipeline
        return CoreResult(
            cycles=p.stats.cycles,
            instructions=p.stats.committed,
            state=p.committed_state,
            stats=p.stats,
            mispredict_rate=p.predictor.mispredict_rate(),
            l1d_miss_rate=self.mem.dcache.miss_rate(),
            rob_mean_occupancy=p.mean_occupancy(p.rob),
        )
