"""Tests for the backend capability contract (BackendCapabilities)."""

import contextlib
import warnings

import pytest

from repro.appsim.backend import SimBackend
from repro.appsim.corpus import build
from repro.core.engine import ProbeEngine
from repro.core.runner import (
    BackendCapabilities,
    capabilities_of,
    process_shardable,
)
from repro.core.workload import benchmark
from repro.core.policy import stubbing
from repro.ptracer.backend import PtraceBackend


@contextlib.contextmanager
def _no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


class TestDescriptor:
    def test_defaults_are_all_false(self):
        caps = BackendCapabilities()
        assert not any(caps.to_dict().values())

    def test_dict_round_trip(self):
        caps = BackendCapabilities(
            deterministic=True, supports_pseudo_files=True,
            real_execution=True,
        )
        assert BackendCapabilities.from_dict(caps.to_dict()) == caps

    def test_from_dict_ignores_unknown_fields(self):
        caps = BackendCapabilities.from_dict(
            {"deterministic": 1, "from_the_future": True}
        )
        assert caps == BackendCapabilities(deterministic=True)


class TestBuiltinContracts:
    def test_sim_backend_contract(self):
        backend = build("weborf").backend()
        with _no_warnings():
            caps = capabilities_of(backend)
        assert caps.deterministic
        assert caps.parallel_safe
        assert caps.process_safe
        assert caps.supports_pseudo_files
        assert caps.supports_subfeatures
        assert not caps.real_execution

    def test_sim_backend_contract_follows_instance_flags(self):
        backend = build("weborf").backend()
        backend.process_safe = False
        assert not capabilities_of(backend).process_safe
        assert not process_shardable(backend)

    def test_ptrace_backend_contract(self):
        # Bypass __post_init__ (which probes live ptrace availability):
        # the contract is pure attribute logic.
        backend = object.__new__(PtraceBackend)
        backend.subfeature_level = True
        backend.track_pseudofiles = False
        backend.deterministic = False
        backend.parallel_safe = False
        backend.process_safe = False
        caps = backend.capabilities()
        assert caps.real_execution
        assert caps.supports_subfeatures
        assert not caps.supports_pseudo_files
        assert not caps.deterministic
        assert not caps.parallel_safe
        assert not caps.process_safe


class TestLegacyShim:
    """How ``capabilities_of`` reads backends that declare their
    contract oddly or not at all."""

    def test_bare_attributes_are_not_a_contract(self):
        class _Legacy:
            name = "legacy"
            deterministic = True
            parallel_safe = True
            process_safe = True

        with _no_warnings():
            caps = capabilities_of(_Legacy())
        assert caps == BackendCapabilities()

    def test_undeclared_backend_gets_no_capabilities_silently(self):
        class _Bare:
            name = "bare"

        with _no_warnings():
            caps = capabilities_of(_Bare())
        assert caps == BackendCapabilities()

    def test_wrong_return_type_rejected(self):
        class _Broken:
            name = "broken"

            def capabilities(self):
                return {"deterministic": True}

        with pytest.raises(TypeError, match="BackendCapabilities"):
            capabilities_of(_Broken())

    def test_descriptor_attribute_accepted(self):
        """Declaring the descriptor as a plain attribute (natural
        dataclass style) is an honest contract and must not be
        silently read as 'no capabilities'."""

        class _AttrStyle:
            name = "attr-style"
            capabilities = BackendCapabilities(
                deterministic=True, parallel_safe=True
            )

        with _no_warnings():
            caps = capabilities_of(_AttrStyle())
        assert caps.deterministic and caps.parallel_safe

    def test_non_callable_non_descriptor_attribute_rejected(self):
        class _Broken:
            name = "broken"
            capabilities = {"deterministic": True}

        with pytest.raises(TypeError, match="must be a method"):
            capabilities_of(_Broken())

    def test_process_shardable_honors_prepared_descriptor(self):
        backend = build("weborf").backend()
        assert process_shardable(
            backend, capabilities=BackendCapabilities(process_safe=True)
        )
        assert not process_shardable(
            backend, capabilities=BackendCapabilities()
        )


class TestEngineIntegration:
    def test_engine_resolves_capabilities_once_per_backend(self):
        class _Counting:
            name = "sim:caps-counting"

            def __init__(self):
                self.resolutions = 0

            def capabilities(self):
                self.resolutions += 1
                return BackendCapabilities(
                    deterministic=True, parallel_safe=True
                )

            def run(self, workload, policy, *, replica=0):
                from collections import Counter

                from repro.core.runner import RunResult

                return RunResult(success=True, traced=Counter({"read": 1}))

        backend = _Counting()
        with ProbeEngine(parallel=2) as engine:
            for _ in range(3):
                engine.run_replicas(
                    backend, benchmark("b", "m"), stubbing("close"), 2
                )
            assert backend.resolutions == 1
            engine.reset()
            engine.run_replicas(
                backend, benchmark("b", "m"), stubbing("close"), 2
            )
            assert backend.resolutions == 2  # reset dropped the memo

    def test_no_capability_sniffing_outside_the_shim(self):
        """The acceptance gate: nothing in ``src/`` sniffs capability
        attributes with getattr; ``capabilities_of`` is the only
        reader, and it calls ``capabilities()``."""
        import pathlib
        import re

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        pattern = re.compile(
            r"getattr\([^)]*(?:process_safe|parallel_safe|deterministic)"
        )
        offenders = []
        for path in src.rglob("*.py"):
            for number, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if pattern.search(line):
                    offenders.append(f"{path}:{number}: {line.strip()}")
        assert not offenders, offenders

    def test_cacheability_follows_contract(self):
        """A deterministic contract caches; a silent backend never does."""
        from collections import Counter

        from repro.core.runner import RunResult

        class _Backend:
            name = "sim:contract"

            def __init__(self, deterministic):
                self._deterministic = deterministic
                self.calls = 0

            def capabilities(self):
                return BackendCapabilities(
                    deterministic=self._deterministic
                )

            def run(self, workload, policy, *, replica=0):
                self.calls += 1
                return RunResult(success=True, traced=Counter({"read": 1}))

        cached = _Backend(deterministic=True)
        engine = ProbeEngine()
        engine.run(cached, benchmark("b", "m"), stubbing("close"))
        engine.run(cached, benchmark("b", "m"), stubbing("close"))
        assert cached.calls == 1

        uncached = _Backend(deterministic=False)
        engine.reset()
        engine.run(uncached, benchmark("b", "m"), stubbing("close"))
        engine.run(uncached, benchmark("b", "m"), stubbing("close"))
        assert uncached.calls == 2

    def test_sim_backend_is_an_execution_backend(self):
        from repro.core.runner import ExecutionBackend

        assert isinstance(SimBackend(build("weborf").program), ExecutionBackend)

    def test_unsupported_observation_modes_warn(self):
        """pseudo_files/subfeature_level on a backend whose contract
        lacks the matching supports_* capability must signal instead
        of silently finding nothing."""
        from repro.core.analyzer import Analyzer, AnalyzerConfig
        from repro.core.workload import health_check

        app = build("weborf")
        backend = app.backend()

        class Limited:
            name = backend.name

            def capabilities(self):
                return BackendCapabilities(
                    deterministic=True, parallel_safe=True,
                    supports_pseudo_files=False,
                    supports_subfeatures=False,
                )

            def run(self, workload, policy, *, replica=0):
                return backend.run(workload, policy, replica=replica)

        with pytest.warns(UserWarning, match="pseudo-file"):
            Analyzer(AnalyzerConfig(pseudo_files=True)).analyze(
                Limited(), app.workload("health")
            )
        with pytest.warns(UserWarning, match="sub-feature"):
            Analyzer(AnalyzerConfig(subfeature_level=True)).analyze(
                Limited(), app.workload("health")
            )
        # Supporting backends stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            Analyzer(AnalyzerConfig(pseudo_files=True)).analyze(
                app.backend(), app.workload("health")
            )
        # A backend with no contract gets the benefit of the doubt:
        # it cannot express supports_*, so no misleading warning fires.
        class Legacy:
            name = backend.name

            def run(self, workload, policy, *, replica=0):
                return backend.run(workload, policy, replica=replica)

        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            Analyzer(AnalyzerConfig(pseudo_files=True)).analyze(
                Legacy(), app.workload("health")
            )

    def test_ptrace_contract_follows_instance_flags(self):
        backend = object.__new__(PtraceBackend)
        backend.subfeature_level = True
        backend.track_pseudofiles = True
        backend.deterministic = False
        backend.process_safe = False
        backend.parallel_safe = True  # embedder tuning: contract follows
        assert backend.capabilities().parallel_safe
