"""Tests for the call-type context analysis (§6.1)."""

from repro.compiler.calltype import analyze_call_types
from repro.ir.builder import ModuleBuilder
from repro.ir.callgraph import build_callgraph, wrapper_map
from tests.conftest import make_wrapper


def _module(direct_call=True, take_address=False, inline=False):
    mb = ModuleBuilder("m")
    make_wrapper(mb, "mprotect", 3)
    make_wrapper(mb, "execve", 3)
    f = mb.function("main")
    if direct_call:
        f.call("mprotect", [0, 0, 0])
    if take_address:
        fp = f.funcaddr("mprotect")
        f.icall(fp, [0, 0, 0], sig="fn3")
    if inline:
        f.syscall("getpid", [])
    f.ret(0)
    return mb.build()


def _analyze(module):
    return analyze_call_types(module, build_callgraph(module))


class TestWrapperMap:
    def test_detects_flagged_wrappers(self):
        module = _module()
        wrappers = wrapper_map(module)
        assert wrappers["mprotect"] == ("mprotect",)
        assert wrappers["execve"] == ("execve",)
        assert "main" not in wrappers

    def test_unflagged_tiny_function_counts(self):
        mb = ModuleBuilder("m")
        w = mb.function("raw_getpid")
        w.syscall("getpid", [])
        w.ret(0)  # 2 instructions, no flag
        mb.function("main").ret(0)
        assert "raw_getpid" in wrapper_map(mb.build())

    def test_large_function_is_not_a_wrapper(self):
        mb = ModuleBuilder("m")
        f = mb.function("busy")
        for _ in range(5):
            f.const(0)
        f.syscall("getpid", [])
        f.ret(0)
        mb.function("main").ret(0)
        assert "busy" not in wrapper_map(mb.build())


class TestClassification:
    def test_directly_callable(self):
        info = _analyze(_module(direct_call=True))
        assert info.allows("mprotect", "direct")
        assert not info.allows("mprotect", "indirect")

    def test_indirectly_callable(self):
        info = _analyze(_module(direct_call=False, take_address=True))
        assert info.allows("mprotect", "indirect")

    def test_both(self):
        info = _analyze(_module(direct_call=True, take_address=True))
        assert info.allows("mprotect", "direct")
        assert info.allows("mprotect", "indirect")

    def test_not_callable_when_never_called(self):
        info = _analyze(_module(direct_call=True))
        # execve's wrapper exists but nothing calls it
        assert not info.is_used("execve")
        assert not info.allows("execve", "direct")

    def test_inline_syscall_is_direct(self):
        info = _analyze(_module(inline=True))
        assert info.allows("getpid", "direct")
        assert "main" in info.inline_sites

    def test_unknown_syscall_not_callable(self):
        info = _analyze(_module())
        assert not info.is_used("ptrace")
        assert not info.allows("ptrace", "direct")


class TestRealApps:
    def test_nginx_profile(self):
        from repro.apps.nginx import build_nginx

        info = _analyze(build_nginx())
        # Table 5's key finding: sensitive syscalls never indirectly callable
        for name in ("execve", "mprotect", "mmap", "accept4", "setuid"):
            assert info.allows(name, "direct"), name
            assert not info.allows(name, "indirect"), name
        # never used at all in nginx
        assert not info.is_used("ptrace")
        assert not info.is_used("chmod")
