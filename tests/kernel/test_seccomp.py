"""Tests for seccomp filters: generation, precedence, evaluation."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.attacks.runner import _target_module
from repro.bench.harness import CONFIGS
from repro.kernel import seccomp
from repro.kernel.bpf import BPF_JEQ, BPF_JMP, BPF_K, BPFProgram, SeccompData
from repro.kernel.kernel import Kernel
from repro.kernel.seccomp import (
    SECCOMP_RET_ACTION_FULL,
    SECCOMP_RET_ALLOW,
    SECCOMP_RET_ERRNO,
    SECCOMP_RET_KILL_PROCESS,
    SECCOMP_RET_TRACE,
    SECCOMP_RET_TRAP,
    SeccompFilter,
    action_name,
    build_action_filter,
    combine_actions,
    compute_action_cache,
    evaluate_filters,
)
from repro.policy import artifact
from repro.syscalls.table import SYSCALLS

ALL_NRS = tuple(entry.nr for entry in SYSCALLS)
ACTIONS = {59: SECCOMP_RET_TRACE, 10: SECCOMP_RET_KILL_PROCESS, 2: SECCOMP_RET_ERRNO | 13}


class TestActionFilterGeneration:
    def test_actions_honored(self):
        filt = build_action_filter(
            {59: SECCOMP_RET_TRACE, 10: SECCOMP_RET_KILL_PROCESS}
        )
        assert evaluate_filters([filt], 59)[0] == SECCOMP_RET_TRACE
        assert evaluate_filters([filt], 10)[0] == SECCOMP_RET_KILL_PROCESS
        assert evaluate_filters([filt], 0)[0] == SECCOMP_RET_ALLOW

    def test_custom_default(self):
        filt = build_action_filter({}, default_action=SECCOMP_RET_KILL_PROCESS)
        assert evaluate_filters([filt], 123)[0] == SECCOMP_RET_KILL_PROCESS

    def test_empty_filter_list_allows(self):
        assert evaluate_filters([], 59) == (SECCOMP_RET_ALLOW, 0)

    def test_instruction_count_scales_with_entries(self):
        small = build_action_filter({1: SECCOMP_RET_TRACE})
        big = build_action_filter(
            {nr: SECCOMP_RET_TRACE for nr in range(1, 60)}
        )
        _a1, c1 = evaluate_filters([small], 500)
        _a2, c2 = evaluate_filters([big], 500)
        assert c2 > c1

    @given(
        entries=st.dictionaries(
            st.integers(min_value=0, max_value=450),
            st.sampled_from(
                [SECCOMP_RET_TRACE, SECCOMP_RET_KILL_PROCESS, SECCOMP_RET_ERRNO | 13]
            ),
            max_size=40,
        ),
        nr=st.integers(min_value=0, max_value=460),
    )
    def test_generated_filter_matches_action_map(self, entries, nr):
        """Property: the compiled cBPF program implements the map exactly."""
        filt = build_action_filter(entries)
        action, _count = evaluate_filters([filt], nr)
        assert action == entries.get(nr, SECCOMP_RET_ALLOW)


class TestPrecedence:
    def test_kill_beats_everything(self):
        assert (
            combine_actions([SECCOMP_RET_ALLOW, SECCOMP_RET_KILL_PROCESS])
            == SECCOMP_RET_KILL_PROCESS
        )

    def test_trap_beats_errno_beats_trace(self):
        assert (
            combine_actions([SECCOMP_RET_TRACE, SECCOMP_RET_ERRNO])
            & 0xFFFF0000
            == SECCOMP_RET_ERRNO
        )
        assert (
            combine_actions([SECCOMP_RET_ERRNO, SECCOMP_RET_TRAP])
            & 0xFFFF0000
            == SECCOMP_RET_TRAP
        )

    def test_multiple_filters_strictest_wins(self):
        allow_all = build_action_filter({})
        kill_59 = build_action_filter({59: SECCOMP_RET_KILL_PROCESS})
        action, _ = evaluate_filters([allow_all, kill_59], 59)
        assert action == SECCOMP_RET_KILL_PROCESS

    def test_errno_data_preserved(self):
        filt = build_action_filter({2: SECCOMP_RET_ERRNO | 13})
        action, _ = evaluate_filters([filt], 2)
        assert action & 0xFFFF == 13


class TestNames:
    def test_action_names(self):
        assert action_name(SECCOMP_RET_ALLOW) == "ALLOW"
        assert action_name(SECCOMP_RET_TRACE) == "TRACE"
        assert action_name(SECCOMP_RET_KILL_PROCESS) == "KILL_PROCESS"
        assert action_name(SECCOMP_RET_ERRNO | 5) == "ERRNO"


class TestActionCacheMemo:
    def test_action_cache_runs_bpf_once_per_chain_content(self, monkeypatch):
        """Two separately built but equal chains share one BPF pass."""
        evaluated = []
        evaluate = seccomp.evaluate_filters

        def counting(filters, nr, *args, **kwargs):
            evaluated.append(nr)
            return evaluate(filters, nr, *args, **kwargs)

        monkeypatch.setattr(seccomp, "_action_caches", {})
        monkeypatch.setattr(seccomp, "evaluate_filters", counting)
        kernel = Kernel()
        first, second = kernel.create_process("a"), kernel.create_process("b")
        kernel.install_seccomp(first, build_action_filter(ACTIONS))
        kernel.install_seccomp(second, build_action_filter(ACTIONS))
        assert first.seccomp_filters[0] is not second.seccomp_filters[0]
        assert evaluated == list(ALL_NRS)
        assert first.seccomp_action_cache == second.seccomp_action_cache

    def test_changed_jeq_constant_gets_its_own_bitmap(self):
        """Flipping one JEQ ``k`` as the fault injector does yields a new
        program whose bitmap is computed afresh, never the original's."""
        original = build_action_filter(ACTIONS)
        compute_action_cache([original], ALL_NRS)
        insns = original.program.instructions
        jeqs = [i for i, ins in enumerate(insns) if ins.code == BPF_JMP | BPF_JEQ | BPF_K]
        assert len(jeqs) == 1 + len(ACTIONS)  # the arch check, then one per nr
        for i in jeqs:
            flipped = list(insns)
            flipped[i] = dataclasses.replace(insns[i], k=insns[i].k ^ 1)
            filt = SeccompFilter(program=BPFProgram(flipped), label="flipped")
            cache = compute_action_cache([filt], ALL_NRS)
            assert cache.allow_nrs == {
                nr
                for nr in ALL_NRS
                if evaluate_filters([filt], nr)[0] & SECCOMP_RET_ACTION_FULL
                == SECCOMP_RET_ALLOW
            }


class TestSharedPrograms:
    def test_program_is_immutable(self):
        program = build_action_filter(ACTIONS).program
        assert type(program.instructions) is tuple
        assert type(BPFProgram(list(program.instructions)).instructions) is tuple

    def test_equal_programs_hash_alike(self):
        program = build_action_filter(ACTIONS).program
        copy = BPFProgram(list(program.instructions))
        assert copy is not program and copy == program and hash(copy) == hash(program)
        assert copy != build_action_filter({59: SECCOMP_RET_TRACE}).program

    @pytest.mark.parametrize(
        "name, filters",
        [
            ("seccomp_allowlist", 1),
            ("temporal", 2),  # the launch allowlist and the serving phase's
            ("binary_only", 1),
            ("sfip", 1),
            ("sfip_origin", 1),
        ],
    )
    def test_launches_build_one_program_per_filter(self, monkeypatch, name, filters):
        """A second launch of a presence-filter mechanism gets fresh filters
        on the programs the first one built."""
        monkeypatch.setattr(seccomp, "_programs", {})
        monkeypatch.setattr(artifact, "_presence_programs", {})
        built = []
        init = BPFProgram.__init__

        def counting(program, instructions):
            built.append(program)
            init(program, instructions)

        monkeypatch.setattr(BPFProgram, "__init__", counting)
        module = _target_module("nginx")
        procs = []
        for _ in range(2):
            mechanism = CONFIGS[name].mechanism()
            procs.append(mechanism.launch(Kernel(), "nginx", module)[0])
        assert len(built) == filters
        first, second = (proc.seccomp_filters[0] for proc in procs)
        assert first is not second and first.program is second.program


def _launched_programs():
    """Every program a launch attaches: each defense config (and BASTION
    without its call-type context, which filters differently) over every
    attack target and application, plus an argument pin."""
    from repro.attacks.runner import TARGETS
    from repro.bench.harness import DefenseConfig, build_app
    from repro.monitor.policy import ContextPolicy

    configs = list(CONFIGS.values()) + [
        DefenseConfig("cf", cet=True, policy=ContextPolicy.cf_only()),
        DefenseConfig("cf_fs", cet=True, policy=ContextPolicy.cf_only(), extend_filesystem=True),
    ]
    targets = [(name, _target_module(name)) for name in sorted(TARGETS)]
    targets += [(app, build_app(app)) for app in ("nginx", "sqlite", "vsftpd")]
    programs = {}
    for app, module in targets:
        for config in configs:
            proc, _cpu = config.mechanism().launch(Kernel(), app, module)
            for filt in proc.seccomp_filters:
                programs[id(filt.program)] = filt.program
    pin = seccomp.build_arg_constraint_filter("mprotect", 3, (1, 3)).program
    programs[id(pin)] = pin
    return list(programs.values())


class TestVerdictMemo:
    """An nr-only program answers from its ``(nr, arch)`` memo exactly what
    the interpreter computes, and a fault-flipped copy starts empty."""

    NRS = ALL_NRS + (9999,)

    def _check(self, program):
        for nr in self.NRS:
            for data in (SeccompData(nr), SeccompData(nr, arch=0)):
                expected = program.interpret(data)
                assert program.run(data) == expected  # fills the memo
                assert program.run(data) == expected  # answers from it

    def test_memo_matches_the_interpreter_on_every_launched_program(self):
        programs = _launched_programs()
        assert sum(p.nr_only for p in programs) >= 10
        assert not all(p.nr_only for p in programs)  # the argument pin
        for program in programs:
            self._check(program)
            if not program.nr_only:
                data = SeccompData(10, args=(0, 0, 7, 0, 0, 0))
                assert program.run(data) == program.interpret(data)

    def test_fault_flipped_copy_keeps_its_own_memo(self):
        """The fault injector's copy-on-fault program is new: it answers
        with its flipped JEQ, never from the original's memo."""
        for program in _launched_programs():
            if not program.nr_only:
                continue
            self._check(program)
            insns = program.instructions
            jeqs = [i for i, ins in enumerate(insns) if ins.code == BPF_JMP | BPF_JEQ | BPF_K]
            for i in jeqs[:2]:  # the arch check (the injector's pick), then an nr
                flipped = list(insns)
                flipped[i] = dataclasses.replace(insns[i], k=(insns[i].k ^ (1 << 3)) & 0xFFFFFFFF)
                flipped = BPFProgram(flipped)
                assert flipped != program and flipped.nr_only
                self._check(flipped)
