"""Tests for the classic-BPF VM and seccomp data loads."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import KernelError
from repro.kernel.bpf import (
    AUDIT_ARCH_X86_64,
    BPF_ABS,
    BPF_ADD,
    BPF_ALU,
    BPF_AND,
    BPF_IMM,
    BPF_JA,
    BPF_JEQ,
    BPF_JGE,
    BPF_JGT,
    BPF_JMP,
    BPF_JSET,
    BPF_K,
    BPF_LD,
    BPF_LDX,
    BPF_MEM,
    BPF_RET,
    BPF_ST,
    BPF_W,
    BPFProgram,
    SECCOMP_DATA_ARCH,
    SECCOMP_DATA_ARGS,
    SECCOMP_DATA_NR,
    SeccompData,
    jump,
    stmt,
)


def run(instructions, nr=0, args=(0,) * 6, ip=0):
    program = BPFProgram(instructions)
    action, _count = program.run(
        SeccompData(nr=nr, instruction_pointer=ip, args=args)
    )
    return action


class TestSeccompData:
    def test_nr_and_arch(self):
        data = SeccompData(nr=59)
        assert data.load32(SECCOMP_DATA_NR) == 59
        assert data.load32(SECCOMP_DATA_ARCH) == AUDIT_ARCH_X86_64

    def test_ip_split(self):
        data = SeccompData(nr=0, instruction_pointer=0x1234_5678_9ABC_DEF0)
        assert data.load32(8) == 0x9ABC_DEF0
        assert data.load32(12) == 0x1234_5678

    def test_args_lo_hi(self):
        data = SeccompData(nr=0, args=(0xAAAA_BBBB_CCCC_DDDD, 7, 0, 0, 0, 0))
        assert data.load32(SECCOMP_DATA_ARGS) == 0xCCCC_DDDD
        assert data.load32(SECCOMP_DATA_ARGS + 4) == 0xAAAA_BBBB
        assert data.load32(SECCOMP_DATA_ARGS + 8) == 7

    def test_bad_offset(self):
        with pytest.raises(KernelError):
            SeccompData(nr=0).load32(100)


class TestExecution:
    def test_ret_constant(self):
        assert run([stmt(BPF_RET | BPF_K, 0x1234)]) == 0x1234

    def test_load_nr_and_jeq(self):
        program = [
            stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_NR),
            jump(BPF_JMP | BPF_JEQ | BPF_K, 59, 0, 1),
            stmt(BPF_RET | BPF_K, 1),  # matched
            stmt(BPF_RET | BPF_K, 2),  # fell through
        ]
        assert run(program, nr=59) == 1
        assert run(program, nr=60) == 2

    def test_jgt_jge_jset(self):
        def mk(op, k):
            return [
                stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_NR),
                jump(BPF_JMP | op | BPF_K, k, 0, 1),
                stmt(BPF_RET | BPF_K, 1),
                stmt(BPF_RET | BPF_K, 0),
            ]

        assert run(mk(BPF_JGT, 10), nr=11) == 1
        assert run(mk(BPF_JGT, 10), nr=10) == 0
        assert run(mk(BPF_JGE, 10), nr=10) == 1
        assert run(mk(BPF_JSET, 0b100), nr=0b110) == 1
        assert run(mk(BPF_JSET, 0b100), nr=0b011) == 0

    def test_unconditional_jump(self):
        program = [
            stmt(BPF_LD | BPF_IMM, 0),
            jump(BPF_JMP | BPF_JA | BPF_K, 1, 0, 0),
            stmt(BPF_RET | BPF_K, 111),  # skipped
            stmt(BPF_RET | BPF_K, 222),
        ]
        assert run(program) == 222

    def test_alu_and_scratch(self):
        program = [
            stmt(BPF_LD | BPF_IMM, 40),
            stmt(BPF_ALU | BPF_ADD | BPF_K, 2),
            stmt(BPF_ST, 3),  # scratch[3] = 42
            stmt(BPF_LD | BPF_IMM, 0),
            stmt(BPF_LD | BPF_W | BPF_MEM, 3),
            stmt(BPF_ALU | BPF_AND | BPF_K, 0xFF),
            stmt(BPF_RET | 0x10, 0),  # BPF_RET|BPF_A
        ]
        assert run(program) == 42

    def test_alu_is_32bit(self):
        program = [
            stmt(BPF_LD | BPF_IMM, 0xFFFFFFFF),
            stmt(BPF_ALU | BPF_ADD | BPF_K, 1),
            stmt(BPF_RET | 0x10, 0),
        ]
        assert run(program) == 0

    def test_instruction_count_reported(self):
        program = BPFProgram(
            [stmt(BPF_LD | BPF_IMM, 1), stmt(BPF_RET | BPF_K, 0)]
        )
        _action, count = program.run(SeccompData(nr=0))
        assert count == 2


class TestValidation:
    def test_empty_program_rejected(self):
        with pytest.raises(KernelError):
            BPFProgram([])

    def test_jump_out_of_range_rejected(self):
        with pytest.raises(KernelError):
            BPFProgram(
                [
                    jump(BPF_JMP | BPF_JEQ | BPF_K, 1, 5, 0),
                    stmt(BPF_RET | BPF_K, 0),
                ]
            )

    @pytest.mark.parametrize(
        "first, message",
        [
            (jump(BPF_JMP | BPF_JA | BPF_K, 100, 0, 0), "jump out of range"),
            (stmt(BPF_LD | BPF_W | BPF_MEM, 16), "scratch slot 16"),
            (stmt(BPF_LDX | BPF_W | BPF_MEM, 16), "scratch slot 16"),
            (stmt(BPF_ST, 16), "scratch slot 16"),
            (stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_NR + 2), "offset 2"),
            (stmt(BPF_LD | BPF_W | BPF_ABS, 64), "offset 64"),
        ],
        ids=["ja-past-end", "ld-mem", "ldx-mem", "st", "abs-unaligned", "abs-past-data"],
    )
    def test_malformed_instruction_rejected_at_load(self, first, message):
        """Linux's classic-BPF checker rejects these at load; none may
        wait for evaluation (or a bare IndexError) to show."""
        with pytest.raises(KernelError, match=message):
            BPFProgram([first, stmt(BPF_RET | BPF_K, 0)])

    def test_boundary_instructions_accepted(self):
        program = [
            stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_ARGS + 44),  # args[5].hi
            stmt(BPF_ST, 15),
            stmt(BPF_LDX | BPF_W | BPF_MEM, 15),
            jump(BPF_JMP | BPF_JA | BPF_K, 0, 0, 0),
            stmt(BPF_RET | 0x10, 0),  # BPF_RET|BPF_A
        ]
        assert run(program, args=(0, 0, 0, 0, 0, 0x7 << 32)) == 7

    def test_must_end_in_ret(self):
        with pytest.raises(KernelError):
            BPFProgram([stmt(BPF_LD | BPF_IMM, 1)])

    def test_too_long_rejected(self):
        instructions = [stmt(BPF_LD | BPF_IMM, 0)] * 5000 + [
            stmt(BPF_RET | BPF_K, 0)
        ]
        with pytest.raises(KernelError):
            BPFProgram(instructions)

    @given(nr=st.integers(min_value=0, max_value=1000))
    def test_always_terminates_with_action(self, nr):
        program = [
            stmt(BPF_LD | BPF_W | BPF_ABS, SECCOMP_DATA_NR),
            jump(BPF_JMP | BPF_JGE | BPF_K, 500, 0, 1),
            stmt(BPF_RET | BPF_K, 1),
            stmt(BPF_RET | BPF_K, 2),
        ]
        assert run(program, nr=nr) in (1, 2)
