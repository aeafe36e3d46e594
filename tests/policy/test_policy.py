"""The transition-flow engine and the CompiledPolicy artifact.

Engine tests drive :func:`build_transition_graph` directly over a
:class:`ProgramGraph` of hand-built IR (the shape both producers build);
artifact tests
pin the byte-stable serialization contract the precision fixtures rely
on.
"""

import json

import pytest

from repro.ir.builder import ModuleBuilder
from repro.policy import (
    START,
    CompiledPolicy,
    ProgramGraph,
    build_presence_filter,
    build_transition_graph,
    policy_json,
)
from tests.conftest import make_wrapper


def graph_of(mb, entry="main", indirect=(), threads=()):
    module = mb.build()
    functions = {
        name: (name, tuple(fn.body)) for name, fn in module.functions.items()
    }
    return build_transition_graph(
        ProgramGraph(
            functions=functions,
            entry=entry,
            thread_entries=threads,
            address_taken=indirect,
            resolve=lambda n: n if n in functions else None,
        )
    )


def edges(graph):
    """{(prev, next): set(origins)} for terse assertions."""
    return {
        (prev, nxt): set(origins)
        for prev, nexts in graph.transitions.items()
        for nxt, origins in nexts.items()
    }


class TestEngine:
    def test_linear_adjacencies(self):
        mb = ModuleBuilder("m")
        f = mb.function("main")
        f.syscall("open", [0, 0])
        f.syscall("read", [0, 0, 0])
        f.syscall("write", [1, 0, 0])
        f.ret(0)
        got = edges(graph_of(mb))
        assert got == {
            (START, "open"): {"main"},
            ("open", "read"): {"main"},
            ("read", "write"): {"main"},
        }

    def test_branch_merge_unions_paths(self):
        """Both sides of a branch contribute adjacencies; the sides do
        not leak into each other (read -> write is NOT admitted)."""
        mb = ModuleBuilder("m")
        f = mb.function("main", params=["flag"])
        f.syscall("open", [0, 0])
        f.branch(f.p("flag"), "then", "else")
        f.label("then")
        f.syscall("read", [0, 0, 0])
        f.jump("merge")
        f.label("else")
        f.syscall("write", [1, 0, 0])
        f.jump("merge")
        f.label("merge")
        f.syscall("close", [0])
        f.ret(0)
        got = edges(graph_of(mb))
        assert ("open", "read") in got and ("open", "write") in got
        assert ("read", "close") in got and ("write", "close") in got
        assert ("read", "write") not in got
        assert ("write", "read") not in got

    def test_loop_back_edge_self_adjacency(self):
        mb = ModuleBuilder("m")
        f = mb.function("main")
        f.syscall("open", [0, 0])
        n = f.const(4)
        f.loop_range(n, lambda i: f.syscall("read", [0, 0, 0]))
        f.syscall("close", [0])
        f.ret(0)
        got = edges(graph_of(mb))
        assert ("read", "read") in got  # the back edge
        assert ("open", "read") in got
        # the loop may run zero times: open -> close must survive
        assert ("open", "close") in got
        assert ("read", "close") in got

    def test_call_composition_and_origins(self):
        """Adjacencies through a call are annotated with the *callee*
        (where the syscall instruction lives), not the caller."""
        mb = ModuleBuilder("m")
        make_wrapper(mb, "write", 3)
        f = mb.function("main")
        f.syscall("open", [0, 0])
        f.call("write", [1, 0, 0])
        f.syscall("close", [0])
        f.ret(0)
        got = edges(graph_of(mb))
        assert got[("open", "write")] == {"write"}
        assert got[("write", "close")] == {"main"}
        assert ("open", "close") not in got  # write always fires

    def test_syscall_free_callee_is_transparent(self):
        mb = ModuleBuilder("m")
        helper = mb.function("helper", params=["x"])
        helper.ret(0)
        f = mb.function("main")
        f.syscall("open", [0, 0])
        f.call("helper", [0])
        f.syscall("close", [0])
        f.ret(0)
        assert ("open", "close") in edges(graph_of(mb))

    def test_conditionally_empty_callee_keeps_both_paths(self):
        """A callee with a syscall-free path (EMPTY) both passes the
        caller's state through and contributes its own adjacencies."""
        mb = ModuleBuilder("m")
        helper = mb.function("maybe_log", params=["flag"])
        helper.branch(helper.p("flag"), "do", "skip")
        helper.label("do")
        helper.syscall("write", [2, 0, 0])
        helper.ret(0)
        helper.label("skip")
        helper.ret(0)
        f = mb.function("main", params=["flag"])
        f.syscall("open", [0, 0])
        f.call("maybe_log", [f.p("flag")])
        f.syscall("close", [0])
        f.ret(0)
        got = edges(graph_of(mb))
        assert got[("open", "write")] == {"maybe_log"}
        assert ("write", "close") in got
        assert ("open", "close") in got  # the skip path

    def test_recursive_wrapper_converges(self):
        """Self-recursion reaches a fixpoint: retry-until-success around
        a syscall yields the self edge, without path enumeration."""
        mb = ModuleBuilder("m")
        retry = mb.function("retry_read", params=["fd"])
        rc = retry.syscall("read", [retry.p("fd"), 0, 0])
        again = retry.lt(rc, 0)
        retry.branch(again, "again", "done")
        retry.label("again")
        retry.call("retry_read", [retry.p("fd")])
        retry.ret(0)
        retry.label("done")
        retry.ret(0)
        f = mb.function("main")
        f.syscall("open", [0, 0])
        f.call("retry_read", [0])
        f.syscall("close", [0])
        f.ret(0)
        got = edges(graph_of(mb))
        assert got[("read", "read")] == {"retry_read"}
        assert ("open", "read") in got
        assert ("read", "close") in got
        assert ("open", "close") not in got  # read always fires first

    def test_mutual_recursion_converges(self):
        mb = ModuleBuilder("m")
        ping = mb.function("ping", params=["n"])
        ping.syscall("read", [0, 0, 0])
        ping.branch(ping.p("n"), "rec", "out")
        ping.label("rec")
        ping.call("pong", [0])
        ping.ret(0)
        ping.label("out")
        ping.ret(0)
        pong = mb.function("pong", params=["n"])
        pong.syscall("write", [1, 0, 0])
        pong.call("ping", [0])
        pong.ret(0)
        f = mb.function("main")
        f.call("ping", [1])
        f.ret(0)
        got = edges(graph_of(mb))
        assert ("read", "write") in got and ("write", "read") in got
        assert (START, "read") in got

    def test_indirect_call_fans_out_to_address_taken(self):
        """An indirect callsite reaches every address-taken function —
        and only those (handler_c exists but is never taken)."""
        mb = ModuleBuilder("m")
        for name, sc in (("handler_a", "read"), ("handler_b", "write")):
            h = mb.function(name, params=["x"], sig="h")
            h.syscall(sc, [0, 0, 0])
            h.ret(0)
        h = mb.function("handler_c", params=["x"], sig="h")
        h.syscall("execve", [0, 0, 0])
        h.ret(0)
        f = mb.function("main")
        f.syscall("open", [0, 0])
        t = f.funcaddr("handler_a")
        f.icall(t, [0], sig="h")
        f.ret(0)
        graph = graph_of(mb, indirect=("handler_a", "handler_b"))
        got = edges(graph)
        assert got[("open", "read")] == {"handler_a"}
        assert got[("open", "write")] == {"handler_b"}
        assert "execve" not in graph.nodes
        assert "handler_c" not in graph.reachable

    def test_unresolvable_callee_is_passthrough(self):
        mb = ModuleBuilder("m")
        f = mb.function("main")
        f.syscall("open", [0, 0])
        f.call("extern_not_linked", [0])
        f.syscall("close", [0])
        f.ret(0)
        assert ("open", "close") in edges(graph_of(mb))

    def test_dead_function_syscalls_excluded(self):
        """Reachability roots at entry: a linked-but-never-called
        function contributes nothing (what an attacker jumping into dead
        code runs into)."""
        mb = ModuleBuilder("m")
        dead = mb.function("maintenance_mode")
        dead.syscall("chmod", [0, 0])
        dead.ret(0)
        f = mb.function("main")
        f.syscall("write", [1, 0, 0])
        f.ret(0)
        graph = graph_of(mb)
        assert "chmod" not in graph.nodes
        assert "maintenance_mode" not in graph.reachable

    def test_clone_row_from_thread_entries(self):
        """clone's successors include every thread entry's first syscall
        (the child state is snapshotted from the parent at the spawn)."""
        mb = ModuleBuilder("m")
        worker = mb.function("worker", params=["arg"])
        worker.syscall("read", [0, 0, 0])
        worker.ret(0)
        f = mb.function("main")
        f.syscall("clone", [0])
        f.syscall("wait4", [0, 0, 0])
        f.ret(0)
        got = edges(graph_of(mb, threads=("worker",)))
        assert got[("clone", "read")] == {"worker"}
        assert ("clone", "wait4") in got

    def test_start_row_is_entry_first(self):
        mb = ModuleBuilder("m")
        make_wrapper(mb, "open", 2)
        f = mb.function("main", params=["flag"])
        f.branch(f.p("flag"), "a", "b")
        f.label("a")
        f.call("open", [0, 0])
        f.ret(0)
        f.label("b")
        f.syscall("getpid", [])
        f.ret(0)
        graph = graph_of(mb)
        assert set(graph.transitions[START]) == {"open", "getpid"}


class TestCompiledPolicy:
    def _policy(self):
        return CompiledPolicy(
            producer="flowgraph",
            program="prog",
            entry="main",
            presence=("open", "read"),
            call_kinds={"open": ("direct",)},
            transitions={
                START: {"open": ("main",)},
                "open": {"read": ("main", "rdr")},
            },
            provenance={"functions": 3},
        )

    def test_queries(self):
        p = self._policy()
        assert p.allows_transition("open", "read")
        assert not p.allows_transition("read", "open")
        assert p.origins_of("open", "read") == ("main", "rdr")
        assert p.origins_of("read", "open") is None
        assert p.start_syscalls == ("open",)
        assert p.edge_count() == 2
        assert p.origin_count() == 3
        # 2 nodes -> 4 + 2 possible edges, 2 present
        assert p.density_pct() == round(100.0 * 2 / 6, 2)

    def test_serialization_roundtrip_and_byte_stability(self):
        p = self._policy()
        text = policy_json(p)
        # canonical: re-encoding the parsed payload is byte-identical
        assert text == json.dumps(
            json.loads(text), indent=2, sort_keys=True
        )
        clone = CompiledPolicy.from_payload(json.loads(text))
        assert policy_json(clone) == text
        assert clone.transitions["open"]["read"] == ("main", "rdr")

    def test_from_payload_rejects_wrong_schema(self):
        with pytest.raises(ValueError):
            CompiledPolicy.from_payload({"schema": "bogus/v0"})

    def test_presence_filter_kills_outside_presence(self):
        from repro.kernel.seccomp import (
            SECCOMP_RET_ALLOW,
            SECCOMP_RET_KILL_PROCESS,
            evaluate_filters,
        )
        from repro.syscalls.table import nr_of

        filt = build_presence_filter(self._policy().presence, "sfip")
        assert evaluate_filters([filt], nr_of("open"))[0] == SECCOMP_RET_ALLOW
        assert evaluate_filters([filt], nr_of("read"))[0] == SECCOMP_RET_ALLOW
        assert (
            evaluate_filters([filt], nr_of("execve"))[0]
            == SECCOMP_RET_KILL_PROCESS
        )


class TestProducers:
    def test_flowgraph_producer_on_compiled_module(self):
        from repro.analyze.flowgraph import compile_policy
        from repro.compiler.pipeline import BastionCompiler

        mb = ModuleBuilder("prog")
        make_wrapper(mb, "open", 2)
        make_wrapper(mb, "read", 3)
        f = mb.function("main")
        f.call("open", [0, 0])
        f.call("read", [0, 0, 0])
        f.ret(0)
        artifact = BastionCompiler().compile(mb.build())
        policy = compile_policy(artifact)
        assert policy.producer == "flowgraph"
        assert policy.schema == "repro-policy/v1"
        assert policy.program == "prog"
        assert set(policy.presence) == {"open", "read"}
        assert policy.allows_transition(START, "open")
        assert policy.allows_transition("open", "read")
        assert policy.provenance["source"] == "compiler-metadata"

    def test_both_producers_agree_on_bench_app(self):
        """The binary producer may be coarser, never tighter: every
        flowgraph edge is admitted by the binary-recovered graph too."""
        from repro.analyze.binary import (
            compile_policy as compile_binary_policy,
        )
        from repro.analyze.binary import recover_image_for
        from repro.analyze.flowgraph import compile_policy
        from repro.apps import build_app_module
        from repro.compiler.pipeline import BastionCompiler

        module = build_app_module("vsftpd")
        artifact = BastionCompiler().compile(module)
        flow = compile_policy(artifact)
        binary = compile_binary_policy(
            recover_image_for(artifact.module),
            program=artifact.metadata.program,
        )
        flow_edges = {
            (prev, nxt)
            for prev, nexts in flow.transitions.items()
            for nxt in nexts
        }
        binary_edges = {
            (prev, nxt)
            for prev, nexts in binary.transitions.items()
            for nxt in nexts
        }
        assert flow_edges <= binary_edges
        assert set(flow.presence) <= set(binary.presence)
