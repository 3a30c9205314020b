"""Simulation execution backend: SimProgram behind the backend protocol.

The analyzer talks to this class exactly as it talks to the real
ptrace backend — submit a policy and a workload, observe a
:class:`RunResult`. Nothing about the program's failure policies or
fake reactions is visible through this interface.
"""

from __future__ import annotations

import dataclasses

from repro.appsim.program import SimProgram
from repro.appsim.runtime import SimProcess
from repro.core.policy import InterpositionPolicy
from repro.core.runner import BackendCapabilities, RunResult
from repro.core.workload import Workload


@dataclasses.dataclass
class SimBackend:
    """An :class:`ExecutionBackend` over one simulated application."""

    program: SimProgram

    def __post_init__(self) -> None:
        self._process = SimProcess(self.program)
        self.name = f"sim:{self.program.name}-{self.program.version}"
        #: Simulated runs are reproducible by construction (even the
        #: metric noise is a hash of the run identity), so the probe
        #: engine may answer repeats from its run cache.
        self.deterministic = True
        #: Runs share only SimProcess's memos of immutable values, which
        #: concurrent runs fill idempotently, so replicas may overlap.
        self.parallel_safe = True
        #: The whole backend is plain picklable data (a SimProgram of
        #: frozen dataclasses), so runs may be sharded out to worker
        #: *processes* — the simulation is CPU-bound pure Python, and
        #: process sharding is what lifts the GIL cap on it.
        self.process_safe = True

    def capabilities(self) -> BackendCapabilities:
        """The simulator's scheduling/feature contract.

        Reads through the instance attributes above (rather than
        returning a constant) so tests and embedders that tune a
        single flag on one backend object — say, withdrawing
        ``process_safe`` — get a contract that follows. Tune flags
        *before* handing the object to a scheduler: the probe engine
        resolves the contract once per backend object per analysis
        (:meth:`~repro.core.engine.ProbeEngine.capabilities_for`), so
        a mid-analysis flip is not observed until the next
        ``reset()``. Pseudo-files
        and sub-features are first-class in the program model, so both
        analysis modes are meaningful; ``real_execution`` stays False —
        this is a *model* of the application, which is exactly what
        cross-validation against the ptrace backend is meant to check.
        """
        return BackendCapabilities(
            deterministic=self.deterministic,
            parallel_safe=self.parallel_safe,
            process_safe=self.process_safe,
            supports_pseudo_files=True,
            supports_subfeatures=True,
            real_execution=False,
        )

    def run(
        self,
        workload: Workload,
        policy: InterpositionPolicy,
        *,
        replica: int = 0,
        deadline: float | None = None,
    ) -> RunResult:
        # A simulated run is a bounded computation: the deadline is
        # ignored.
        return self._process.run(workload, policy, replica=replica)
