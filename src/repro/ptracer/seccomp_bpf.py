"""Classic-BPF filter builder for seccomp-assisted tracing.

The paper's Loupe pairs ptrace with seccomp: a BPF filter makes the
kernel raise a ptrace event only for the syscalls under interposition,
so untouched syscalls run at full speed. This module assembles exactly
that filter program — ``SECCOMP_RET_TRACE`` for the listed syscall
numbers, ``SECCOMP_RET_ALLOW`` for everything else — as raw bytes that
``seccomp(2)``/``prctl(2)`` accept.

The builder is a pure function, unit-tested through :func:`simulate`.
Every traced run installs its output: the tracer
(:mod:`repro.ptracer.tracer`) compiles one filter per run, over every
syscall for a baseline and over the altered ones for a probe, and
the child that :func:`repro.ptracer.spawn.spawn` starts installs it
before exec.
"""

from __future__ import annotations

import dataclasses
import struct
from collections.abc import Iterable, Sequence

# -- BPF instruction set (the subset classic seccomp filters use) -----------

BPF_LD = 0x00
BPF_JMP = 0x05
BPF_RET = 0x06
BPF_W = 0x00
BPF_ABS = 0x20
BPF_JEQ = 0x10
BPF_K = 0x00

SECCOMP_RET_ALLOW = 0x7FFF0000
SECCOMP_RET_TRACE = 0x7FF00000
SECCOMP_RET_KILL = 0x00000000

#: Offsets into ``struct seccomp_data``.
SECCOMP_DATA_NR = 0
SECCOMP_DATA_ARCH = 4

AUDIT_ARCH_X86_64 = 0xC000003E

_INSTRUCTION = struct.Struct("<HBBI")


@dataclasses.dataclass(frozen=True)
class BpfInstruction:
    """One ``struct sock_filter``."""

    code: int
    jt: int
    jf: int
    k: int

    def pack(self) -> bytes:
        return _INSTRUCTION.pack(self.code, self.jt, self.jf, self.k)


def load_word(offset: int) -> BpfInstruction:
    return BpfInstruction(BPF_LD | BPF_W | BPF_ABS, 0, 0, offset)


def jump_eq(value: int, jt: int, jf: int) -> BpfInstruction:
    return BpfInstruction(BPF_JMP | BPF_JEQ | BPF_K, jt, jf, value)


def ret(value: int) -> BpfInstruction:
    return BpfInstruction(BPF_RET | BPF_K, 0, 0, value)


#: Numbers one block of ``jeq``s compares before its own ``ret TRACE``:
#: a conditional jump's offset is 8 bits, so it reaches 255 ahead.
_BLOCK = 256


def build_trace_filter(
    traced_numbers: "Iterable[int] | None",
    *,
    kill_on_wrong_arch: bool = True,
) -> list[BpfInstruction]:
    """Build the filter: TRACE listed syscalls, ALLOW the rest.

    ``None`` traces every syscall: the arch guard, then one ``ret
    TRACE``. The kernel compiles a filter each time one is installed,
    and this one compiles far faster than a compare per syscall number.

    Layout::

        ld  arch
        jeq AUDIT_ARCH_X86_64 ? +1 : +0
        ret KILL                (ALLOW when kill_on_wrong_arch is off)
        ld  nr
        jeq nr_0 -> TRACE       \
        ...                      | one block per 256 numbers, so every
        jeq nr_k ? +0 : +1       | jump stays within 8 bits
        ret TRACE               /
        ...
        ret ALLOW
    """
    program = [
        load_word(SECCOMP_DATA_ARCH),
        # Jump offsets are relative to the *next* instruction.
        jump_eq(AUDIT_ARCH_X86_64, 1, 0),
        ret(SECCOMP_RET_KILL if kill_on_wrong_arch else SECCOMP_RET_ALLOW),
    ]
    if traced_numbers is None:
        program.append(ret(SECCOMP_RET_TRACE))
        return program
    numbers = sorted(set(int(n) for n in traced_numbers))
    program.append(load_word(SECCOMP_DATA_NR))
    for first in range(0, len(numbers), _BLOCK):
        block = numbers[first:first + _BLOCK]
        for position, number in enumerate(block[:-1]):
            # Jump straight to the block's RET TRACE.
            program.append(jump_eq(number, len(block) - 1 - position, 0))
        # The block's last compare falls into RET TRACE or skips it.
        program.append(jump_eq(block[-1], 0, 1))
        program.append(ret(SECCOMP_RET_TRACE))
    program.append(ret(SECCOMP_RET_ALLOW))
    return program


def pack_program(program: Sequence[BpfInstruction]) -> bytes:
    """Serialize to the bytes ``struct sock_fprog.filter`` points at."""
    return b"".join(instruction.pack() for instruction in program)


def simulate(program: Sequence[BpfInstruction], *, nr: int, arch: int = AUDIT_ARCH_X86_64) -> int:
    """Interpret the filter against a seccomp_data — used by tests.

    Implements the handful of classic-BPF opcodes the builder emits.
    Returns the SECCOMP_RET_* action value.
    """
    accumulator = 0
    pc = 0
    data = {SECCOMP_DATA_NR: nr, SECCOMP_DATA_ARCH: arch}
    while pc < len(program):
        instruction = program[pc]
        code = instruction.code
        if code == BPF_LD | BPF_W | BPF_ABS:
            accumulator = data.get(instruction.k, 0)
            pc += 1
        elif code == BPF_JMP | BPF_JEQ | BPF_K:
            if accumulator == instruction.k:
                pc += 1 + instruction.jt
            else:
                pc += 1 + instruction.jf
            continue
        elif code == BPF_RET | BPF_K:
            return instruction.k
        else:
            raise ValueError(f"unsupported BPF opcode {code:#x}")
    raise ValueError("BPF program fell off the end")
