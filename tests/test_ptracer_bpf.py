"""Tests for the seccomp-BPF filter builder and for what each traced
run's filter traps (pure, no installation)."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.policy import (
    Action,
    InterpositionPolicy,
    combined,
    passthrough,
)
from repro.core.pseudofiles import OPEN_FAMILY
from repro.ptracer.seccomp_bpf import (
    AUDIT_ARCH_X86_64,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_KILL,
    SECCOMP_RET_TRACE,
    build_trace_filter,
    pack_program,
    simulate,
)
from repro.ptracer.tracer import SyscallTracer
from repro.syscalls import TABLE_X86_64, number_of

syscall_numbers = st.sets(
    st.sampled_from([0, 1, 2, 9, 12, 59, 202, 257, 302]), min_size=0, max_size=6
)


class TestFilterSemantics:
    def test_traced_numbers_trace(self):
        program = build_trace_filter([number_of("futex"), number_of("brk")])
        assert simulate(program, nr=number_of("futex")) == SECCOMP_RET_TRACE
        assert simulate(program, nr=number_of("brk")) == SECCOMP_RET_TRACE

    def test_other_numbers_allow(self):
        program = build_trace_filter([number_of("futex")])
        assert simulate(program, nr=number_of("read")) == SECCOMP_RET_ALLOW

    def test_wrong_arch_kills(self):
        program = build_trace_filter([1, 2, 3])
        assert simulate(program, nr=1, arch=0xDEAD) == SECCOMP_RET_KILL

    def test_wrong_arch_allow_mode(self):
        program = build_trace_filter([1, 2, 3], kill_on_wrong_arch=False)
        assert simulate(program, nr=1, arch=0xDEAD) == SECCOMP_RET_ALLOW

    def test_empty_filter_allows_everything(self):
        program = build_trace_filter([])
        assert simulate(program, nr=0) == SECCOMP_RET_ALLOW
        assert simulate(program, nr=450) == SECCOMP_RET_ALLOW

    @given(syscall_numbers, st.integers(min_value=0, max_value=460))
    def test_filter_matches_specification(self, traced, probe):
        program = build_trace_filter(traced)
        expected = SECCOMP_RET_TRACE if probe in traced else SECCOMP_RET_ALLOW
        assert simulate(program, nr=probe) == expected

    @given(syscall_numbers)
    def test_arch_guard_always_first(self, traced):
        program = build_trace_filter(traced)
        assert simulate(program, nr=0, arch=0x1234) == SECCOMP_RET_KILL


class TestEncoding:
    def test_instruction_size(self):
        program = build_trace_filter([202])
        packed = pack_program(program)
        assert len(packed) == len(program) * 8

    def test_packed_layout_little_endian(self):
        program = build_trace_filter([])
        code, jt, jf, k = struct.unpack_from("<HBBI", pack_program(program), 0)
        assert code == 0x20          # BPF_LD | BPF_W | BPF_ABS
        assert k == 4                # offsetof(seccomp_data, arch)

    def test_program_length_scales(self):
        small = build_trace_filter([1])
        large = build_trace_filter(range(50))
        assert len(large) == len(small) + 49

    def test_duplicates_removed(self):
        assert len(build_trace_filter([5, 5, 5])) == len(build_trace_filter([5]))

    def test_arch_constant(self):
        assert AUDIT_ARCH_X86_64 == 0xC000003E


class TestLargeFilters:
    def test_every_table_number_packs_and_traces(self):
        """A trace-everything filter is longer than one 8-bit jump."""
        numbers = sorted(TABLE_X86_64.by_number)
        program = build_trace_filter(numbers)
        assert len(pack_program(program)) == len(program) * 8
        for number in numbers:
            assert simulate(program, nr=number) == SECCOMP_RET_TRACE
        unlisted = max(numbers) + 1
        assert simulate(program, nr=unlisted) == SECCOMP_RET_ALLOW
        assert simulate(program, nr=0, arch=0x1234) == SECCOMP_RET_KILL

    @pytest.mark.parametrize("count", [255, 256, 257, 512, 513, 1000])
    def test_filters_across_jump_boundaries(self, count):
        traced = set(range(0, 2 * count, 2))
        program = build_trace_filter(traced)
        pack_program(program)
        for probe in range(2 * count + 1):
            expected = (
                SECCOMP_RET_TRACE if probe in traced else SECCOMP_RET_ALLOW
            )
            assert simulate(program, nr=probe) == expected


class TestTrappedNumbers:
    """What each run's filter traps (pure: nothing is traced)."""

    def test_baseline_traps_every_syscall(self):
        assert SyscallTracer(passthrough()).trapped_numbers() is None
        program = build_trace_filter(None)
        for number in (0, max(TABLE_X86_64.by_number), 1000):
            assert simulate(program, nr=number) == SECCOMP_RET_TRACE
        assert simulate(program, nr=0, arch=0x1234) == SECCOMP_RET_KILL

    def test_probe_traps_only_its_altered_syscalls(self):
        policy = combined(stubs=["write"], fakes=["brk"])
        assert SyscallTracer(policy).trapped_numbers() == {
            number_of("write"), number_of("brk"),
        }

    def test_subfeature_rule_traps_its_parent(self):
        policy = InterpositionPolicy(
            subfeature_actions={"fcntl:F_SETFD": Action.STUB}
        )
        assert SyscallTracer(policy).trapped_numbers() == {number_of("fcntl")}
        assert SyscallTracer(
            policy, subfeature_level=False
        ).trapped_numbers() == frozenset()

    def test_path_rule_traps_the_open_family(self):
        policy = InterpositionPolicy(pseudofile_actions={"/proc": Action.FAKE})
        assert SyscallTracer(policy).trapped_numbers() == {
            number_of(name) for name in OPEN_FAMILY
        }
        assert SyscallTracer(
            policy, track_pseudofiles=False
        ).trapped_numbers() == frozenset()
