"""Tests for interposition policies."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policy import (
    Action,
    FakeStrategy,
    InterpositionPolicy,
    combined,
    fake_strategy,
    faking,
    passthrough,
    stubbing,
)
from repro.errors import PolicyError

syscall_names = st.sampled_from(
    ["read", "write", "futex", "openat", "close", "brk", "mmap", "ioctl"]
)


class TestConstruction:
    def test_passthrough_alters_nothing(self):
        policy = passthrough()
        assert policy.altered_features() == frozenset()
        assert policy.action_for("write") is Action.PASSTHROUGH

    def test_stubbing_one_feature(self):
        policy = stubbing("futex")
        assert policy.action_for("futex") is Action.STUB
        assert policy.action_for("read") is Action.PASSTHROUGH

    def test_faking_one_feature(self):
        policy = faking("brk")
        assert policy.action_for("brk") is Action.FAKE

    def test_unknown_syscall_rejected(self):
        with pytest.raises(PolicyError):
            stubbing("not_a_syscall")

    def test_subfeature_key_in_syscall_map_rejected(self):
        with pytest.raises(PolicyError):
            InterpositionPolicy(syscall_actions={"fcntl:F_SETFL": Action.STUB})

    def test_plain_key_in_subfeature_map_rejected(self):
        with pytest.raises(PolicyError):
            InterpositionPolicy(subfeature_actions={"fcntl": Action.STUB})

    def test_relative_pseudofile_prefix_rejected(self):
        with pytest.raises(PolicyError):
            InterpositionPolicy(pseudofile_actions={"proc/meminfo": Action.STUB})


class TestSubfeaturePrecedence:
    def test_subfeature_overrides_parent(self):
        policy = passthrough().with_feature("fcntl:F_SETFD", Action.STUB)
        assert policy.action_for("fcntl", "F_SETFD") is Action.STUB
        assert policy.action_for("fcntl", "F_SETFL") is Action.PASSTHROUGH
        assert policy.action_for("fcntl") is Action.PASSTHROUGH

    def test_parent_action_applies_without_override(self):
        policy = stubbing("fcntl")
        assert policy.action_for("fcntl", "F_SETFL") is Action.STUB

    def test_mixed_granularity(self):
        policy = stubbing("fcntl").with_feature("fcntl:F_SETFL", Action.PASSTHROUGH)
        assert policy.action_for("fcntl", "F_SETFL") is Action.PASSTHROUGH
        assert policy.action_for("fcntl", "F_GETFL") is Action.STUB


class TestPseudoFiles:
    def test_prefix_match(self):
        policy = passthrough().with_feature("/proc", Action.STUB)
        assert policy.action_for_path("/proc/meminfo") is Action.STUB
        assert policy.action_for_path("/dev/null") is Action.PASSTHROUGH

    def test_longest_prefix_wins(self):
        policy = (
            passthrough()
            .with_feature("/proc", Action.STUB)
            .with_feature("/proc/self", Action.FAKE)
        )
        assert policy.action_for_path("/proc/self/status") is Action.FAKE
        assert policy.action_for_path("/proc/meminfo") is Action.STUB

    def test_exact_path(self):
        policy = passthrough().with_feature("/dev/urandom", Action.FAKE)
        assert policy.action_for_path("/dev/urandom") is Action.FAKE
        assert policy.action_for_path("/dev/urandom2") is Action.PASSTHROUGH

    def test_action_for_feature_dispatch(self):
        policy = (
            passthrough()
            .with_feature("/dev/null", Action.STUB)
            .with_feature("futex", Action.FAKE)
            .with_feature("fcntl:F_SETFD", Action.STUB)
        )
        assert policy.action_for_feature("/dev/null") is Action.STUB
        assert policy.action_for_feature("futex") is Action.FAKE
        assert policy.action_for_feature("fcntl:F_SETFD") is Action.STUB


class TestCombined:
    def test_combined_policy(self):
        policy = combined(stubs=["read"], fakes=["write"])
        assert policy.action_for("read") is Action.STUB
        assert policy.action_for("write") is Action.FAKE

    def test_overlap_rejected(self):
        with pytest.raises(PolicyError):
            combined(stubs=["read"], fakes=["read"])

    def test_empty_combined_is_passthrough(self):
        assert combined().altered_features() == frozenset()

    @given(
        st.sets(syscall_names, max_size=4),
        st.sets(syscall_names, max_size=4),
    )
    def test_altered_features_match_inputs(self, stubs, fakes):
        fakes = fakes - stubs
        policy = combined(stubs=stubs, fakes=fakes)
        assert policy.altered_features() == frozenset(stubs | fakes)


class TestDescribeAndImmutability:
    def test_describe_passthrough(self):
        assert passthrough().describe() == "passthrough"

    def test_describe_lists_actions(self):
        text = combined(stubs=["futex"], fakes=["brk"]).describe()
        assert "futex=stub" in text
        assert "brk=fake" in text

    def test_with_feature_does_not_mutate(self):
        base = stubbing("read")
        derived = base.with_feature("write", Action.FAKE)
        assert base.action_for("write") is Action.PASSTHROUGH
        assert derived.action_for("write") is Action.FAKE


class TestMemoizedSummaries:
    """``altered_features()`` and ``describe()`` are memoized on the
    frozen policy, like ``fingerprint()``."""

    def _policy(self):
        return combined(stubs=["futex", "fcntl:F_SETFD"], fakes=["/proc/self"])

    def test_memo_changes_no_identity(self):
        warm = self._policy()
        cold = self._policy()
        warm.altered_features()
        warm.describe()
        assert warm == cold
        assert repr(warm) == repr(cold)
        assert warm.to_dict() == cold.to_dict()
        assert warm.fingerprint() == cold.fingerprint()

    def test_repeat_calls_return_the_memo(self):
        policy = self._policy()
        assert policy.altered_features() is policy.altered_features()
        assert policy.describe() is policy.describe()
        assert policy.describe() == "/proc/self=fake, fcntl:F_SETFD=stub, futex=stub"

    def test_derivative_computes_its_own(self):
        base = self._policy()
        assert base.describe() == "/proc/self=fake, fcntl:F_SETFD=stub, futex=stub"
        derived = base.with_feature("brk", Action.FAKE)
        assert derived.altered_features() == base.altered_features() | {"brk"}
        assert derived.describe() == (
            "/proc/self=fake, brk=fake, fcntl:F_SETFD=stub, futex=stub"
        )
        restored = derived.with_feature("brk", Action.PASSTHROUGH)
        assert restored.altered_features() == base.altered_features()
        assert restored.describe() == base.describe()
        assert base.altered_features() == {"futex", "fcntl:F_SETFD", "/proc/self"}

    def test_passthrough_memo(self):
        policy = passthrough()
        assert policy.describe() == "passthrough"
        assert policy.describe() == "passthrough"
        assert policy.altered_features() == frozenset()


#: Feature keys of every granularity, including pseudo-file prefixes
#: that nest (the longest prefix wins) and an explicit trailing slash.
FEATURES = [
    "read", "write", "futex", "close", "fcntl", "ioctl",
    "fcntl:F_SETFD", "fcntl:F_GETFL", "ioctl:TCGETS",
    "/proc", "/proc/self", "/proc/self/", "/dev/random",
]
feature_names = st.sampled_from(FEATURES)
actions = st.sampled_from(list(Action))


def _built(assignments):
    """The policy the constructor builds from *assignments*, applied
    in order (a later assignment of a key replaces the earlier one)."""
    fields = {"syscall_actions": {}, "subfeature_actions": {},
              "pseudofile_actions": {}}
    for feature, action in assignments:
        if feature.startswith("/"):
            field = "pseudofile_actions"
        elif ":" in feature:
            field = "subfeature_actions"
        else:
            field = "syscall_actions"
        fields[field][feature] = action
    return InterpositionPolicy(**fields)


def _assert_same_policy(derived, built):
    assert derived == built
    assert derived.fingerprint() == built.fingerprint()
    assert derived.describe() == built.describe()
    assert derived.to_dict() == built.to_dict()
    assert derived.altered_features() == built.altered_features()
    for name in FEATURES + [
        "/proc/self/status", "/dev/null", "fcntl:F_DUPFD",
    ]:
        assert derived.action_for_feature(name) is \
            built.action_for_feature(name), name


class TestDerivationMatchesConstructor:
    """``with_feature`` and ``combined`` skip re-validating the keys a
    policy already holds; what they build must still equal the policy
    the validating constructor builds from the same assignments."""

    @given(
        st.lists(st.tuples(feature_names, actions), max_size=5),
        st.lists(st.tuples(feature_names, actions), max_size=6),
    )
    def test_with_feature_chain(self, initial, steps):
        base = _built(initial)
        before = (base.to_dict(), base.fingerprint(), base.describe())
        derived = base
        for feature, action in steps:
            derived = derived.with_feature(feature, action)
        _assert_same_policy(derived, _built(initial + steps))
        # The base is never mutated, memos included.
        assert (base.to_dict(), base.fingerprint(), base.describe()) == before
        assert base == _built(initial)

    @given(st.sets(feature_names, max_size=5), st.sets(feature_names, max_size=5))
    def test_combined(self, stubs, fakes):
        fakes = fakes - stubs
        policy = combined(stubs=stubs, fakes=fakes)
        steps = [(f, Action.STUB) for f in sorted(stubs)]
        steps += [(f, Action.FAKE) for f in sorted(fakes)]
        _assert_same_policy(policy, _built(steps))
        chained = passthrough()
        for feature, action in steps:
            chained = chained.with_feature(feature, action)
        _assert_same_policy(policy, chained)

    @pytest.mark.parametrize("feature", ["notasyscall", "bogus:OP"])
    def test_unknown_syscall_error_is_unchanged(self, feature):
        with pytest.raises(PolicyError) as built:
            _built([(feature, Action.STUB)])
        with pytest.raises(PolicyError) as derived:
            stubbing("read").with_feature(feature, Action.STUB)
        with pytest.raises(PolicyError) as joined:
            combined(stubs=["read"], fakes=[feature])
        assert str(derived.value) == str(built.value) == str(joined.value)
        assert str(built.value) == (
            f"policy references unknown syscall {feature.split(':')[0]!r}"
        )


class TestFakeStrategies:
    def test_paper_motivated_strategies(self):
        assert fake_strategy("brk") is FakeStrategy.FIRST_ARG
        assert fake_strategy("write") is FakeStrategy.LENGTH_ARG3
        assert fake_strategy("socket") is FakeStrategy.FAKE_FD
        assert fake_strategy("clone") is FakeStrategy.FAKE_PID

    def test_default_is_zero(self):
        assert fake_strategy("setsid") is FakeStrategy.ZERO
