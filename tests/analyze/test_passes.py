"""Unit tests for the four analysis passes, via targeted artifact tampering.

Each test compiles a small clean program, plants exactly one defect, and
asserts the pass suite reports exactly that defect (and nothing else) —
the same discipline the broken fixture app enforces end-to-end.
"""


from repro.analyze import analyze_artifact
from repro.analyze.calltypes import recompute_call_types
from repro.analyze.flowgraph import ChainCounter, program_graph, reachable_args
from repro.compiler.pipeline import BastionCompiler
from repro.compiler.metadata import ArgBindingMeta, SiteKey
from repro.ir.builder import ModuleBuilder
from repro.ir.instructions import AddrLocal, Imm, Intrinsic, CTX_WRITE_MEM
from tests.conftest import make_wrapper


def compile_module(mb):
    return BastionCompiler().compile(mb.build())


def analyze(artifact):
    return analyze_artifact(artifact, waivers=())


def single_wrapper_app(extra=None):
    """main calls setuid(uid) with a locally-computed uid."""
    mb = ModuleBuilder("app")
    make_wrapper(mb, "setuid", 1)
    f = mb.function("main", params=[])
    uid = f.const(0, dst="uid")
    f.call("setuid", [uid])
    if extra is not None:
        extra(mb, f)
    f.ret(0)
    return compile_module(mb)


def replace_intrinsic(func, name, occurrence=0, when=None):
    """Swap the n-th matching intrinsic for an inert cycle_burn, in place."""
    seen = 0
    for idx, instr in enumerate(func.body):
        if isinstance(instr, Intrinsic) and instr.name == name:
            if when is not None and not when(func.body, idx):
                continue
            if seen == occurrence:
                func.body[idx] = Intrinsic("cycle_burn", [Imm(0)])
                return idx
            seen += 1
    raise AssertionError("no %s intrinsic to replace" % name)


def codes(report):
    return sorted(d.code for d in report.diagnostics)


class TestCompleteness:
    def test_clean_app_has_no_findings(self):
        report = analyze(single_wrapper_app())
        assert report.clean
        assert report.metrics["completeness"]["sensitive_sites"] == 1
        assert report.metrics["completeness"]["tainted_locals"] >= 1

    def test_missing_write_shadow_detected(self):
        artifact = single_wrapper_app()
        main = artifact.module.functions["main"]
        replace_intrinsic(main, CTX_WRITE_MEM)
        report = analyze(artifact)
        assert codes(report) == ["missing-write-shadow"]
        (diag,) = report.diagnostics
        assert diag.func == "main"
        assert diag.severity == "error"
        assert "%uid" in diag.message

    def test_missing_bind_detected(self):
        artifact = single_wrapper_app()
        main = artifact.module.functions["main"]
        replace_intrinsic(main, "ctx_bind_const")
        report = analyze(artifact)
        assert codes(report) == ["missing-bind"]
        (diag,) = report.diagnostics
        assert diag.syscall == "setuid"

    def test_bind_kind_mismatch_detected(self):
        artifact = single_wrapper_app()
        (site,) = [
            k for k, m in artifact.metadata.callsites.items() if m.syscall
        ]
        meta = artifact.metadata.callsites[site]
        meta.binds = tuple(
            ArgBindingMeta(b.position, "mem", None) for b in meta.binds
        )
        report = analyze(artifact)
        assert codes(report) == ["bind-kind-mismatch"]

    def test_unprotected_site_detected(self):
        artifact = single_wrapper_app()
        (site,) = [
            k for k, m in artifact.metadata.callsites.items() if m.syscall
        ]
        del artifact.metadata.callsites[site]
        report = analyze(artifact)
        assert codes(report) == ["unprotected-site"]
        (diag,) = report.diagnostics
        assert (diag.func, diag.index) == (site.func, site.index)

    def test_missing_param_refresh_detected(self):
        mb = ModuleBuilder("app")
        make_wrapper(mb, "setuid", 1)
        helper = mb.function("drop_priv", params=["uid"])
        helper.call("setuid", [helper.p("uid")])
        helper.ret(0)
        f = mb.function("main", params=[])
        f.call("drop_priv", [f.const(0)])
        f.ret(0)
        artifact = compile_module(mb)
        assert analyze(artifact).clean

        helper = artifact.module.functions["drop_priv"]

        def targets_param(body, idx):
            prev = body[idx - 1] if idx > 0 else None
            return isinstance(prev, AddrLocal) and prev.var == "uid"

        replace_intrinsic(helper, CTX_WRITE_MEM, when=targets_param)
        report = analyze(artifact)
        assert "missing-param-refresh" in codes(report)
        assert all(d.func == "drop_priv" for d in report.diagnostics)

    def test_sensitive_store_shadow_tracked(self):
        # A global holding a sensitive value: stores must be shadowed.
        mb = ModuleBuilder("app")
        make_wrapper(mb, "execve", 3)
        mb.global_string("g_path", "/bin/true")
        f = mb.function("main", params=[])
        p = f.addr_global("g_path")
        path = f.load(p)
        f.call("execve", [path, f.const(0), f.const(0)])
        f.ret(0)
        artifact = compile_module(mb)
        report = analyze(artifact)
        assert report.clean
        assert "g_path" in artifact.metadata.sensitive_globals


class TestCallTypeAudit:
    def test_recomputation_matches_compiler_on_clean_app(self):
        artifact = single_wrapper_app()
        recomputed = recompute_call_types(artifact.module)
        assert recomputed == artifact.metadata.call_types

    def test_over_permissive_entry_detected(self):
        artifact = single_wrapper_app()
        artifact.metadata.call_types["setuid"]["indirect"] = True
        report = analyze(artifact)
        assert codes(report) == ["over-permissive"]
        (diag,) = report.diagnostics
        assert diag.syscall == "setuid"

    def test_phantom_syscall_entry_detected(self):
        artifact = single_wrapper_app()
        artifact.metadata.call_types["execve"] = {
            "direct": True,
            "indirect": False,
        }
        report = analyze(artifact)
        assert codes(report) == ["over-permissive"]
        assert report.diagnostics[0].syscall == "execve"

    def test_missing_call_type_detected(self):
        artifact = single_wrapper_app()
        del artifact.metadata.call_types["setuid"]
        report = analyze(artifact)
        assert codes(report) == ["missing-call-type"]

    def test_metrics_count_table(self):
        artifact = single_wrapper_app()
        report = analyze(artifact)
        m = report.metrics["call-type"]
        assert m["used_syscalls"] == len(artifact.metadata.call_types)
        assert m["not_callable"] == m["table_size"] - m["used_syscalls"]


class TestFlow:
    def test_single_chain_app(self):
        artifact = single_wrapper_app()
        report = analyze(artifact)
        flow = report.metrics["flow"]
        assert flow["sensitive_sites"] == 1
        assert flow["chains"] == 1
        assert flow["attack_surface"] == reachable_args("setuid")
        assert flow["per_syscall"]["setuid"]["sites"] == 1

    def test_two_paths_double_the_chains(self):
        mb = ModuleBuilder("app")
        make_wrapper(mb, "setuid", 1)
        mid = mb.function("drop_priv", params=["uid"])
        mid.call("setuid", [mid.p("uid")])
        mid.ret(0)
        f = mb.function("main", params=[])
        f.call("drop_priv", [f.const(0)])
        f.call("drop_priv", [f.const(1)])
        f.ret(0)
        artifact = compile_module(mb)
        report = analyze(artifact)
        assert report.metrics["flow"]["chains"] == 2

    def test_recursive_caller_terminates_and_counts_once(self):
        mb = ModuleBuilder("app")
        make_wrapper(mb, "setuid", 1)
        rec = mb.function("retry", params=["n"])
        rec.call("setuid", [rec.p("n")])
        rec.call("retry", [rec.p("n")])  # direct recursion
        rec.ret(0)
        f = mb.function("main", params=[])
        f.call("retry", [f.const(0)])
        f.ret(0)
        artifact = compile_module(mb)
        report = analyze(artifact)
        # the recursive edge adds no new stack shape: one chain via main
        assert report.metrics["flow"]["chains"] == 1
        assert report.clean

    def test_unreachable_site_warned(self):
        mb = ModuleBuilder("app")
        make_wrapper(mb, "setuid", 1)
        dead = mb.function("never_called", params=[])
        dead.call("setuid", [dead.const(0)])
        dead.ret(0)
        f = mb.function("main", params=[])
        f.call("setuid", [f.const(0)])
        f.ret(0)
        artifact = compile_module(mb)
        report = analyze(artifact)
        assert codes(report) == ["unreachable-site"]
        (diag,) = report.diagnostics
        assert diag.severity == "warning"
        assert diag.func == "never_called"

    def test_address_taken_callee_gets_indirect_terminus_chains(self):
        mb = ModuleBuilder("app")
        make_wrapper(mb, "setuid", 1)
        h = mb.function("hook", params=["x"], sig="fn1")
        h.call("setuid", [h.p("x")])
        h.ret(0)
        f = mb.function("main", params=[])
        fp = f.funcaddr("hook")
        f.icall(fp, [f.const(0)], sig="fn1")
        f.ret(0)
        artifact = compile_module(mb)
        report = analyze(artifact)
        # one indirect callsite in the program = one valid chain terminus
        assert report.metrics["flow"]["chains"] == 1
        assert report.clean

    def test_chain_counter_roots_at_thread_entries(self):
        artifact = single_wrapper_app()
        artifact.metadata.thread_entries = ("main",)  # idempotent: main is root
        counter = ChainCounter(program_graph(artifact))
        assert counter.chains_to("main") == 1


class TestConsistency:
    def test_dangling_valid_caller_site(self):
        artifact = single_wrapper_app()
        callee = next(iter(artifact.metadata.valid_callers))
        artifact.metadata.valid_callers[callee] += (SiteKey("main", 999),)
        report = analyze(artifact)
        assert "dangling-site" in codes(report)

    def test_edge_not_derivable(self):
        artifact = single_wrapper_app()
        callee = next(iter(artifact.metadata.valid_callers))
        # index 0 of main holds a Const, not a Call to the callee
        artifact.metadata.valid_callers[callee] += (SiteKey("main", 0),)
        report = analyze(artifact)
        assert "edge-not-derivable" in codes(report)

    def test_edge_not_accepted(self):
        artifact = single_wrapper_app()
        target = "setuid"
        assert artifact.metadata.valid_callers[target]
        artifact.metadata.valid_callers[target] = ()
        report = analyze(artifact)
        assert "edge-not-accepted" in codes(report)

    def test_indirect_site_missing(self):
        mb = ModuleBuilder("app")
        make_wrapper(mb, "setuid", 1)
        h = mb.function("hook", params=["x"], sig="fn1")
        h.call("setuid", [h.p("x")])
        h.ret(0)
        f = mb.function("main", params=[])
        fp = f.funcaddr("hook")
        f.icall(fp, [f.const(0)], sig="fn1")
        f.ret(0)
        artifact = compile_module(mb)
        artifact.metadata.indirect_sites = ()
        report = analyze(artifact)
        assert "indirect-site-missing" in codes(report)

    def test_address_taken_extra_and_missing(self):
        mb = ModuleBuilder("app")
        make_wrapper(mb, "setuid", 1)
        h = mb.function("hook", params=["x"], sig="fn1")
        h.call("setuid", [h.p("x")])
        h.ret(0)
        f = mb.function("main", params=[])
        fp = f.funcaddr("hook")
        f.icall(fp, [f.const(0)], sig="fn1")
        f.ret(0)
        artifact = compile_module(mb)
        artifact.metadata.address_taken = ("phantom_fn",)
        report = analyze(artifact)
        assert "address-taken-extra" in codes(report)
        assert "address-taken-missing" in codes(report)

    def test_unknown_global(self):
        artifact = single_wrapper_app()
        artifact.metadata.sensitive_globals = ("no_such_global",)
        report = analyze(artifact)
        assert "unknown-global" in codes(report)

    def test_syscall_function_mismatch(self):
        artifact = single_wrapper_app()
        artifact.metadata.syscall_functions["main"] = ("execve",)
        report = analyze(artifact)
        assert "syscall-function-mismatch" in codes(report)

    def test_provenance_mismatch(self):
        artifact = single_wrapper_app()
        artifact.metadata.provenance["instrumented_instructions"] = 1
        report = analyze(artifact)
        assert "provenance-mismatch" in codes(report)

    def test_missing_provenance_warns(self):
        artifact = single_wrapper_app()
        artifact.metadata.provenance = {}
        report = analyze(artifact)
        assert codes(report) == ["no-provenance"]
        assert report.ok and not report.clean


class TestReportShape:
    def test_counts_by_pass_zero_filled(self):
        report = analyze(single_wrapper_app())
        assert report.counts_by_pass() == {
            "completeness": 0,
            "call-type": 0,
            "flow": 0,
            "consistency": 0,
        }

    def test_json_round_trip_keys(self):
        import json

        artifact = single_wrapper_app()
        artifact.metadata.call_types["setuid"]["indirect"] = True
        report = analyze(artifact)
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["counts_by_pass"]["call-type"] == 1
        (diag,) = payload["diagnostics"]
        assert diag["code"] == "over-permissive"
        assert diag["syscall"] == "setuid"
        assert "metrics" in payload

    def test_metadata_json_round_trip_keeps_provenance(self):
        from repro.compiler.metadata import BastionMetadata

        artifact = single_wrapper_app()
        text = artifact.metadata.to_json()
        back = BastionMetadata.from_json(text)
        assert back.provenance == artifact.metadata.provenance
        report = analyze_artifact(artifact, waivers=())
        assert report.clean
