"""Interposition policies: what to do with each OS feature during a run.

A policy maps features to one of three actions:

* ``PASSTHROUGH`` — let the kernel execute the syscall normally.
* ``STUB``        — do not execute; return ``-ENOSYS``.
* ``FAKE``        — do not execute; return a syscall-specific success code.

Features are addressed at three granularities, mirroring the paper:

* whole syscalls (``"futex"``),
* sub-features of vectored syscalls (``"fcntl:F_SETFD"``, Section 5.4),
* pseudo-file path prefixes (``"/proc"``, ``"/dev/random"``, Section 3.3).

Sub-feature actions take precedence over their parent syscall's action,
so a policy can pass ``fcntl`` through while stubbing only ``F_SETFD``.
"""

from __future__ import annotations

import dataclasses
import enum
from collections.abc import Iterable, Mapping

from repro.errors import PolicyError
from repro.syscalls import exists, parse_qualified


class Action(enum.Enum):
    """What the interposition layer does when the feature is invoked."""

    PASSTHROUGH = "passthrough"
    STUB = "stub"
    FAKE = "fake"


class FakeStrategy(enum.Enum):
    """How to forge a success return value for a faked syscall.

    The paper fakes with "a success code (typically system-call
    specific)". Returning 0 is right for most calls, but e.g. a faked
    ``write`` must claim it wrote the requested byte count or callers
    will loop forever, and a faked ``brk`` must echo the requested
    break address or the libc will conclude it failed.
    """

    ZERO = "zero"              # return 0
    FIRST_ARG = "first-arg"    # echo argument 0 (brk)
    LENGTH_ARG3 = "arg3"       # echo argument 2, the usual length slot (write, send)
    FAKE_FD = "fake-fd"        # return a plausibly-valid descriptor number
    FAKE_PID = "fake-pid"      # return a plausibly-valid pid/tid


#: Per-syscall fake strategies; anything absent uses ``ZERO``.
FAKE_STRATEGIES: dict[str, FakeStrategy] = {
    "brk": FakeStrategy.FIRST_ARG,
    "write": FakeStrategy.LENGTH_ARG3,
    "pwrite64": FakeStrategy.LENGTH_ARG3,
    "send": FakeStrategy.LENGTH_ARG3,
    "sendto": FakeStrategy.LENGTH_ARG3,
    "writev": FakeStrategy.LENGTH_ARG3,
    "read": FakeStrategy.ZERO,
    "socket": FakeStrategy.FAKE_FD,
    "accept": FakeStrategy.FAKE_FD,
    "accept4": FakeStrategy.FAKE_FD,
    "openat": FakeStrategy.FAKE_FD,
    "open": FakeStrategy.FAKE_FD,
    "epoll_create": FakeStrategy.FAKE_FD,
    "epoll_create1": FakeStrategy.FAKE_FD,
    "eventfd2": FakeStrategy.FAKE_FD,
    "timerfd_create": FakeStrategy.FAKE_FD,
    "dup": FakeStrategy.FAKE_FD,
    "clone": FakeStrategy.FAKE_PID,
    "fork": FakeStrategy.FAKE_PID,
    "vfork": FakeStrategy.FAKE_PID,
    "getpid": FakeStrategy.FAKE_PID,
    "gettid": FakeStrategy.FAKE_PID,
    "set_tid_address": FakeStrategy.FAKE_PID,
}


def fake_strategy(syscall: str) -> FakeStrategy:
    """The forged-success strategy for *syscall*."""
    return FAKE_STRATEGIES.get(syscall, FakeStrategy.ZERO)


def _validate_feature(feature: str) -> None:
    syscall, _ = parse_qualified(feature)
    if not syscall.startswith("/") and not exists(syscall):
        raise PolicyError(f"policy references unknown syscall {syscall!r}")


@dataclasses.dataclass(frozen=True)
class InterpositionPolicy:
    """Immutable assignment of actions to features.

    ``syscall_actions`` keys are syscall names; ``subfeature_actions``
    keys are ``syscall:OPERATION`` strings; ``pseudofile_actions`` keys
    are absolute path prefixes. Unlisted features pass through.
    """

    syscall_actions: Mapping[str, Action] = dataclasses.field(default_factory=dict)
    subfeature_actions: Mapping[str, Action] = dataclasses.field(default_factory=dict)
    pseudofile_actions: Mapping[str, Action] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        for feature in self.syscall_actions:
            if ":" in feature:
                raise PolicyError(
                    f"sub-feature {feature!r} belongs in subfeature_actions"
                )
            _validate_feature(feature)
        for feature in self.subfeature_actions:
            if ":" not in feature:
                raise PolicyError(f"{feature!r} is not a syscall:OPERATION key")
            _validate_feature(feature)
        for path in self.pseudofile_actions:
            if not path.startswith("/"):
                raise PolicyError(f"pseudo-file prefix {path!r} must be absolute")

    # -- lookups ---------------------------------------------------------

    def action_for(self, syscall: str, subfeature: str | None = None) -> Action:
        """Action for one invocation; sub-feature entries take precedence."""
        if subfeature is not None:
            qualified = f"{syscall}:{subfeature}"
            action = self.subfeature_actions.get(qualified)
            if action is not None:
                return action
        return self.syscall_actions.get(syscall, Action.PASSTHROUGH)

    def action_for_path(self, path: str) -> Action:
        """Action for an open-family access to *path* (longest prefix wins)."""
        best: tuple[int, Action] | None = None
        for prefix, action in self.pseudofile_actions.items():
            if path == prefix or path.startswith(prefix.rstrip("/") + "/"):
                candidate = (len(prefix), action)
                if best is None or candidate[0] > best[0]:
                    best = candidate
        return best[1] if best is not None else Action.PASSTHROUGH

    def action_for_feature(self, feature: str) -> Action:
        """Action for a qualified feature name of any granularity."""
        if feature.startswith("/"):
            return self.action_for_path(feature)
        syscall, operation = parse_qualified(feature)
        return self.action_for(syscall, operation)

    # -- derivation ------------------------------------------------------

    def with_feature(self, feature: str, action: Action) -> "InterpositionPolicy":
        """A copy of this policy with one extra feature assignment."""
        policy = self._with(((feature, action),))
        if action is not Action.PASSTHROUGH:
            # Seed the memo: every simulated run asks for it.
            object.__setattr__(
                policy, "_altered", self.altered_features() | {feature}
            )
        return policy

    def _with(
        self, assignments: Iterable[tuple[str, Action]]
    ) -> "InterpositionPolicy":
        """A copy with *assignments* applied in order. Only their keys
        are validated: this policy's own were when it was built."""
        fields = {f: dict(getattr(self, f)) for f in self.__dataclass_fields__}
        for feature, action in assignments:
            if feature.startswith("/"):
                field = "pseudofile_actions"
            else:
                _validate_feature(feature)
                field = "subfeature_actions" if ":" in feature else "syscall_actions"
            fields[field][feature] = action
        policy = object.__new__(type(self))
        for name, mapping in fields.items():
            object.__setattr__(policy, name, mapping)
        return policy

    def altered_features(self) -> frozenset[str]:
        """Every feature this policy stubs or fakes (memoized, like
        :meth:`fingerprint`: every simulated run asks for it)."""
        cached = self.__dict__.get("_altered")
        if cached is not None:
            return cached
        altered = set()
        for mapping in (
            self.syscall_actions,
            self.subfeature_actions,
            self.pseudofile_actions,
        ):
            altered.update(f for f, a in mapping.items() if a is not Action.PASSTHROUGH)
        frozen = frozenset(altered)
        object.__setattr__(self, "_altered", frozen)
        return frozen

    def _shadowing_passthrough(self, kind: str, feature: str) -> bool:
        """Would dropping this explicit PASSTHROUGH entry change lookups?

        A sub-feature entry takes precedence over its parent syscall's
        action, and the longest pseudo-file prefix wins — so an explicit
        PASSTHROUGH at the finer granularity is behaviorally meaningful
        exactly when a coarser entry would otherwise stub or fake it.
        """
        if kind == "sub":
            parent = feature.partition(":")[0]
            return (
                self.syscall_actions.get(parent, Action.PASSTHROUGH)
                is not Action.PASSTHROUGH
            )
        if kind == "path":
            return any(
                action is not Action.PASSTHROUGH
                and prefix != feature
                and feature.startswith(prefix.rstrip("/") + "/")
                for prefix, action in self.pseudofile_actions.items()
            )
        return False

    def fingerprint(self) -> str:
        """A stable identity string for run-result caching.

        Two policies fingerprint identically iff they act identically on
        every feature: entries are sorted (construction order never
        matters) and explicit ``PASSTHROUGH`` assignments are dropped
        when they are indistinguishable from absence at run time — but
        kept when they shadow a coarser STUB/FAKE (a sub-feature
        overriding its parent syscall, a longer pseudo-path prefix
        overriding a shorter one). The three granularities are tagged
        so a syscall, a sub-feature and a pseudo-file path can never
        collide. Memoized: policies are immutable (a derivation builds
        a new policy and never touches this one), and probe engines ask
        for the same policy's fingerprint once per probe.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is not None:
            return cached
        parts = []
        for tag, mapping in (
            ("sys", self.syscall_actions),
            ("sub", self.subfeature_actions),
            ("path", self.pseudofile_actions),
        ):
            for feature, action in sorted(mapping.items()):
                if action is not Action.PASSTHROUGH or self._shadowing_passthrough(
                    tag, feature
                ):
                    parts.append(f"{tag}:{feature}={action.value}")
        fingerprint = ";".join(parts) if parts else "passthrough"
        object.__setattr__(self, "_fingerprint", fingerprint)
        return fingerprint

    def describe(self) -> str:
        """Human-readable one-line summary (used in logs and reports,
        and hashed into every simulated run's metric noise; memoized)."""
        cached = self.__dict__.get("_description")
        if cached is not None:
            return cached
        altered = sorted(self.altered_features())
        description = ", ".join(
            f"{feature}={self.action_for_feature(feature).value}"
            for feature in altered
        ) or "passthrough"
        object.__setattr__(self, "_description", description)
        return description

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Lossless JSON form — unlike :meth:`fingerprint`, which is a
        one-way digest. Stored alongside cached run results so a
        record can be independently *re-executed* (``loupe cache
        verify``), not just matched."""
        return {
            "syscalls": {
                feature: action.value
                for feature, action in sorted(self.syscall_actions.items())
            },
            "subfeatures": {
                feature: action.value
                for feature, action in sorted(self.subfeature_actions.items())
            },
            "pseudofiles": {
                path: action.value
                for path, action in sorted(self.pseudofile_actions.items())
            },
        }

    @staticmethod
    def from_dict(data: Mapping) -> "InterpositionPolicy":
        """Rebuild a policy from its :meth:`to_dict` form."""
        return InterpositionPolicy(
            syscall_actions={
                feature: Action(value)
                for feature, value in dict(data.get("syscalls", {})).items()
            },
            subfeature_actions={
                feature: Action(value)
                for feature, value in dict(data.get("subfeatures", {})).items()
            },
            pseudofile_actions={
                path: Action(value)
                for path, value in dict(data.get("pseudofiles", {})).items()
            },
        )


def passthrough() -> InterpositionPolicy:
    """The baseline policy: every feature runs for real."""
    return InterpositionPolicy()


def stubbing(feature: str) -> InterpositionPolicy:
    """A policy that stubs exactly one feature."""
    return passthrough().with_feature(feature, Action.STUB)


def faking(feature: str) -> InterpositionPolicy:
    """A policy that fakes exactly one feature."""
    return passthrough().with_feature(feature, Action.FAKE)


def combined(
    stubs: Iterable[str] = (), fakes: Iterable[str] = ()
) -> InterpositionPolicy:
    """A policy stubbing *stubs* and faking *fakes* simultaneously.

    Used by the analyzer's final confirmation run. A feature listed in
    both collections is a contradiction and raises :class:`PolicyError`.
    """
    stub_set = set(stubs)
    fake_set = set(fakes)
    overlap = stub_set & fake_set
    if overlap:
        raise PolicyError(f"features both stubbed and faked: {sorted(overlap)}")
    # One pass, in the order a with_feature chain would assign them.
    return passthrough()._with(
        [(feature, Action.STUB) for feature in sorted(stub_set)]
        + [(feature, Action.FAKE) for feature in sorted(fake_set)]
    )
