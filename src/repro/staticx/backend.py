"""The ``static`` pseudo-backend: footprint extraction behind the
execution-backend protocol.

Static analysis never runs anything, but the paper's Section 5.1
comparison treats it as just another measurement method — so this
module puts the modeled static views (:meth:`SimProgram.static_view`)
behind :class:`~repro.core.runner.ExecutionBackend` and registers them
in :mod:`repro.api.registry`. ``loupe compare --backend static,appsim``
then lands static-vs-dynamic results in the ordinary
:class:`~repro.report.CrossValidationReport`, where the
``static_analysis`` capability routes the diff to the footprint
classes (``static-overapproximation`` / ``soundness-violation``).

A "run" reports the whole footprint as its trace and *fails* whenever
the policy stubs or fakes any footprint syscall: static analysis has
no evidence that any call site is avoidable, so its conservative
verdict is "implement everything". An analysis of this backend
therefore concludes ``required == footprint`` — exactly the static
bars of Figure 4.

Registered names:

* ``static`` — the binary-level footprint (the fullest
  over-approximation, the conventional static baseline);
* ``static:source`` / ``static:binary`` — an explicit level.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

from repro.api.registry import (
    BackendResolutionError,
    ResolvedTarget,
    register_backend,
)
from repro.appsim.program import SimProgram
from repro.core.policy import Action, InterpositionPolicy
from repro.core.runner import BackendCapabilities, RunResult
from repro.core.workload import Workload

#: The two static views of Section 5.1, weakest first.
STATIC_LEVELS = ("source", "binary")


@dataclasses.dataclass
class StaticBackend:
    """Footprint extraction over one simulated application.

    Deterministic and stateless by construction: the "run" is a pure
    function of the program model and the policy, so every scheduling
    capability holds. ``static_analysis`` is what routes this target's
    observations onto the footprint diff in cross-validation.
    """

    program: SimProgram
    level: str = "binary"

    def __post_init__(self) -> None:
        if self.level not in STATIC_LEVELS:
            raise ValueError(
                f"unknown static analysis level {self.level!r}; "
                f"choose from {', '.join(STATIC_LEVELS)}"
            )
        self.name = (
            f"static:{self.level}:{self.program.name}-{self.program.version}"
        )

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            deterministic=True,
            parallel_safe=True,
            process_safe=True,
            supports_pseudo_files=False,
            supports_subfeatures=False,
            real_execution=False,
            static_analysis=True,
        )

    def run(
        self,
        workload: Workload,
        policy: InterpositionPolicy,
        *,
        replica: int = 0,
        deadline: float | None = None,
    ) -> RunResult:
        # Reading a footprint cannot block: the deadline is ignored.
        footprint = sorted(self.program.static_view(self.level))
        blocked = [
            syscall for syscall in footprint
            if policy.action_for(syscall) is not Action.PASSTHROUGH
        ]
        traced = Counter({syscall: 1 for syscall in footprint})
        if blocked:
            return RunResult(
                success=False,
                traced=traced,
                failure_reason=(
                    f"static analysis cannot prove {blocked[0]} avoidable "
                    f"({len(blocked)} footprint syscall(s) not passed "
                    f"through)"
                ),
                exit_code=1,
            )
        return RunResult(success=True, traced=traced)


def _static_backend_factory(level: str):
    """A registry factory resolving corpus apps at one static level."""

    def factory(request) -> ResolvedTarget:
        from repro.appsim.corpus import HANDBUILT, build

        if request.app not in HANDBUILT:
            raise BackendResolutionError(
                f"static backend knows no app model {request.app!r}; "
                f"choose from {', '.join(sorted(HANDBUILT))}"
            )
        app = build(request.app)
        try:
            workload = app.workload(request.workload)
        except KeyError:
            raise BackendResolutionError(
                f"app {request.app!r} declares no workload "
                f"{request.workload!r}; choose from "
                f"{', '.join(sorted(app.workloads))}"
            ) from None
        return ResolvedTarget(
            backend=StaticBackend(app.program, level=level),
            workload=workload,
            app=app.name,
            app_version=app.version,
        )

    return factory


#: Module-import registration, like the appsim/ptrace packages: the
#: registry's bootstrap imports :mod:`repro.staticx`, which pulls in
#: this module. Identical factory objects make re-imports harmless.
STATIC_FACTORIES = {
    f"static:{level}": _static_backend_factory(level)
    for level in STATIC_LEVELS
}
for _name, _factory in STATIC_FACTORIES.items():
    register_backend(_name, _factory)
#: The unqualified spelling is the binary-level footprint.
register_backend("static", STATIC_FACTORIES["static:binary"])
