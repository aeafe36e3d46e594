"""Tests for the dataflow utilities backing the validator and the analyzer."""

import pytest

from repro.ir.builder import ModuleBuilder
from repro.ir.dataflow import (
    build_block_graph,
    def_use_chains,
    definitely_assigned,
    dominators,
)
from repro.ir.instructions import Branch, Const, Imm, Jump, Label, Ret, Syscall


def _func(module, name="main"):
    return module.functions[name]


class TestBlockGraph:
    def test_straight_line_is_one_block(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        a = f.const(1)
        b = f.const(2)
        f.ret(f.add(a, b))
        graph = build_block_graph(_func(mb.build()))
        assert len(graph.blocks) == 1
        assert graph.succs[0] == []
        assert graph.entry().start == 0

    def test_branch_builds_diamond(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["c"])
        f.branch(f.p("c"), "then", "else")
        f.label("then")
        f.const(1, dst="x")
        f.jump("join")
        f.label("else")
        f.const(2, dst="x")
        f.jump("join")
        f.label("join")
        f.ret(0)
        graph = build_block_graph(_func(mb.build()))
        assert len(graph.blocks) == 4
        assert sorted(graph.succs[0]) == [1, 2]
        assert graph.succs[1] == [3]
        assert graph.succs[2] == [3]
        assert sorted(graph.preds[3]) == [1, 2]

    def test_fallthrough_edge(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["c"])
        f.const(1, dst="x")
        f.label("next")  # label in the middle: new leader, fallthrough edge
        f.ret(0)
        graph = build_block_graph(_func(mb.build()))
        assert len(graph.blocks) == 2
        assert graph.succs[0] == [1]
        assert graph.preds[1] == [0]

    def test_loop_back_edge(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["n"])
        f.label("head")
        c = f.lt(f.const(0), f.p("n"))
        f.branch(c, "head", "done")
        f.label("done")
        f.ret(0)
        graph = build_block_graph(_func(mb.build()))
        head = graph.block_of(0).index
        assert head in graph.succs[head]  # self back-edge

    def test_block_of_raises_outside_body(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        f.ret(0)
        graph = build_block_graph(_func(mb.build()))
        with pytest.raises(IndexError):
            graph.block_of(99)

    def test_unreachable_block_not_in_reachable_set(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        f.jump("end")
        f.label("island")  # nothing jumps here
        f.const(1, dst="dead")
        f.jump("end")
        f.label("end")
        f.ret(0)
        graph = build_block_graph(_func(mb.build()))
        island = graph.block_of(2).index
        assert island not in graph.reachable()

    def test_ret_blocks_are_exits(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["c"])
        f.branch(f.p("c"), "a", "b")
        f.label("a")
        f.ret(0)
        f.label("b")
        f.ret(1)
        graph = build_block_graph(_func(mb.build()))
        assert graph.exits == {1, 2}


class TestBareRuns:
    """Instruction runs recovered from a binary image carry no validation:
    a jump may leave the run, and merged functions may repeat a label."""

    def test_jump_outside_run_is_an_exit(self):
        run = (
            Syscall("r", "getpid", []),
            Jump("elsewhere"),
            Label("tail"),
            Const("x", 1),
        )
        graph = build_block_graph(run)
        assert graph.func is run
        assert len(graph.blocks) == 2
        assert graph.succs[0] == []
        assert graph.exits == {0, 1}  # block 1 falls off the end of the run

    def test_branch_with_missing_label_keeps_the_other_target(self):
        run = (Branch(Imm(1), "gone", "here"), Label("here"), Ret())
        graph = build_block_graph(run)
        assert graph.succs[0] == [1]
        assert 0 in graph.exits

    def test_repeated_label_makes_every_copy_a_successor(self):
        run = (
            Jump("again"),
            Label("again"),
            Const("x", 1),
            Ret(),
            Label("again"),
            Ret(),
        )
        graph = build_block_graph(run)
        assert graph.succs[0] == [1, 2]
        assert graph.preds[1] == [0] and graph.preds[2] == [0]
        assert graph.exits == {1, 2}


class TestDominators:
    def test_diamond_join_dominated_by_entry_only(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["c"])
        f.branch(f.p("c"), "then", "else")
        f.label("then")
        f.jump("join")
        f.label("else")
        f.jump("join")
        f.label("join")
        f.ret(0)
        graph = build_block_graph(_func(mb.build()))
        dom = dominators(graph)
        join = graph.block_of(len(_func(mb.build()).body) - 1).index
        assert dom[join] == {0, join}  # neither arm dominates the join

    def test_linear_chain_dominance(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        f.label("a")
        f.jump("b")
        f.label("b")
        f.jump("c")
        f.label("c")
        f.ret(0)
        graph = build_block_graph(_func(mb.build()))
        dom = dominators(graph)
        last = len(graph.blocks) - 1
        assert dom[last] == set(range(len(graph.blocks)))

    def test_unreachable_block_self_dominates(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        f.jump("end")
        f.label("island")
        f.jump("end")
        f.label("end")
        f.ret(0)
        graph = build_block_graph(_func(mb.build()))
        dom = dominators(graph)
        island = graph.block_of(2).index
        assert dom[island] == {island}


class TestDefUseChains:
    def test_positions_recorded_in_order(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["p"])
        x = f.const(1, dst="x")  # def of x at 0
        f.add(x, f.p("p"), dst="y")  # use of x at 1, def of y
        f.add(x, x, dst="x")  # use + redef of x at 2
        f.ret(0)
        defs, uses = def_use_chains(_func(mb.build()))
        assert defs["x"] == [0, 2]
        assert uses["x"] == [1, 2, 2]
        assert defs["y"] == [1]
        assert uses["p"] == [1]

    def test_params_have_no_defs(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["p"])
        f.ret(f.p("p"))
        defs, uses = def_use_chains(_func(mb.build()))
        assert "p" not in defs
        assert uses["p"]


class TestDefinitelyAssigned:
    def test_straight_line_clean(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        x = f.const(1, dst="x")
        f.ret(f.add(x, x))
        assert definitely_assigned(_func(mb.build())) == []

    def test_use_before_def_in_entry_block(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        f.func.body.append(_raw_move_use("ghost", "y"))
        f.ret(0)
        violations = definitely_assigned(_func(mb.build()))
        assert [v.var for v in violations] == ["ghost"]
        assert violations[0].index == 0

    def test_defined_on_one_arm_only_is_flagged(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["c"])
        f.branch(f.p("c"), "then", "join")
        f.label("then")
        f.const(1, dst="x")
        f.jump("join")
        f.label("join")
        f.func.body.append(_raw_move_use("x", "out"))
        f.ret(0)
        violations = definitely_assigned(_func(mb.build()))
        assert [v.var for v in violations] == ["x"]

    def test_defined_on_both_arms_is_clean(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["c"])
        f.branch(f.p("c"), "then", "else")
        f.label("then")
        f.const(1, dst="x")
        f.jump("join")
        f.label("else")
        f.const(2, dst="x")
        f.jump("join")
        f.label("join")
        f.func.body.append(_raw_move_use("x", "out"))
        f.ret(0)
        assert definitely_assigned(_func(mb.build())) == []

    def test_loop_carried_def_is_clean(self):
        # x defined before the loop, redefined inside: every path to the
        # backedge use has a definition.
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["n"])
        f.const(0, dst="x")
        f.label("head")
        f.func.body.append(_raw_move_use("x", "x"))
        c = f.lt(f.p("n"), f.const(10))
        f.branch(c, "head", "done")
        f.label("done")
        f.ret(0)
        assert definitely_assigned(_func(mb.build())) == []

    def test_def_only_inside_loop_body_flagged_at_head_use(self):
        # The loop head uses x; the only def is later in the body, so the
        # first iteration arrives undefined.
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["n"])
        f.label("head")
        f.func.body.append(_raw_move_use("x", "sink"))
        f.const(1, dst="x")
        c = f.lt(f.p("n"), f.const(10))
        f.branch(c, "head", "done")
        f.label("done")
        f.ret(0)
        violations = definitely_assigned(_func(mb.build()))
        assert [v.var for v in violations] == ["x"]

    def test_params_count_as_assigned(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["p"])
        f.ret(f.add(f.p("p"), f.p("p")))
        assert definitely_assigned(_func(mb.build())) == []

    def test_address_taken_local_exempt(self):
        # Memory-backed idiom: &r taken, so r may be initialized via Store.
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        f.func.body.append(_raw_move_use("r", "out"))
        f.addr_local("r")
        f.ret(0)
        assert definitely_assigned(_func(mb.build())) == []

    def test_unreachable_block_not_checked(self):
        mb = ModuleBuilder("m")
        f = mb.function("main", params=[])
        f.jump("end")
        f.label("island")
        f.func.body.append(_raw_move_use("never_defined", "out"))
        f.jump("end")
        f.label("end")
        f.ret(0)
        assert definitely_assigned(_func(mb.build())) == []


def _raw_move_use(src_name, dst_name):
    """A ``Move dst <- %src`` built directly, bypassing builder bookkeeping."""
    from repro.ir.instructions import Move, Var

    return Move(dst_name, Var(src_name))
