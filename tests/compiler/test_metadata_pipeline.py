"""Tests for metadata serialization and the compiler pipeline facade."""


from repro.compiler.metadata import (
    ArgBindingMeta,
    BastionMetadata,
    CallsiteMeta,
    SiteKey,
)
from repro import protect
from repro.compiler.pipeline import BastionCompiler
from repro.ir.builder import ModuleBuilder
from repro.syscalls.sensitive import FILESYSTEM_EXTENSION, SENSITIVE_SYSCALLS
from tests.conftest import make_wrapper


def _small_module():
    mb = ModuleBuilder("prog")
    make_wrapper(mb, "mprotect", 3)
    make_wrapper(mb, "open", 3)
    mb.global_string("g_path", "/etc/app.conf")
    f = mb.function("main")
    prot = f.const(1, dst="prot")
    f.call("mprotect", [0x10000000, 4096, prot])
    p = f.addr_global("g_path")
    f.call("open", [p, 0, 0])
    f.ret(0)
    return mb.build()


class TestPipeline:
    def test_protect_produces_artifact(self):
        artifact = protect(_small_module())
        assert artifact.original is not artifact.module
        assert artifact.metadata.program == "prog"
        assert artifact.image().entry_addr

    def test_metadata_call_types(self):
        artifact = protect(_small_module())
        assert artifact.metadata.call_types["mprotect"]["direct"]
        assert not artifact.metadata.call_types["mprotect"]["indirect"]
        assert "open" in artifact.metadata.call_types
        assert "execve" not in artifact.metadata.call_types

    def test_sensitive_set_default_and_extended(self):
        default = BastionCompiler().sensitive_names
        assert set(default) == set(SENSITIVE_SYSCALLS)
        extended = BastionCompiler(extend_filesystem=True).sensitive_names
        assert set(FILESYSTEM_EXTENSION).issubset(set(extended))

    def test_custom_sensitive_set(self):
        compiler = BastionCompiler(sensitive=("mprotect",))
        artifact = compiler.compile(_small_module())
        syscalls = {
            meta.syscall
            for meta in artifact.metadata.callsites.values()
            if meta.syscall
        }
        assert syscalls == {"mprotect"}

    def test_table5_stats_present(self):
        stats = protect(_small_module()).metadata.stats
        for key in (
            "total_callsites",
            "direct_callsites",
            "indirect_callsites",
            "sensitive_callsites",
            "sensitive_indirect_syscalls",
            "ctx_write_mem",
            "ctx_bind_mem",
            "ctx_bind_const",
            "total_instrumentation",
        ):
            assert key in stats
        assert stats["sensitive_callsites"] == 1  # only mprotect is sensitive
        assert stats["total_callsites"] == 2

    def test_sitekeys_reference_instrumented_module(self):
        artifact = protect(_small_module())
        for site in artifact.metadata.callsites:
            func = artifact.module.functions[site.func]
            assert 0 <= site.index < len(func.body)

    def test_fs_extension_adds_callsites(self):
        plain = protect(_small_module())
        extended = BastionCompiler(extend_filesystem=True).compile(_small_module())
        assert len(extended.metadata.callsites) > len(plain.metadata.callsites)

    def test_global_field_slots_for_struct_globals(self):
        mb = ModuleBuilder("m")
        mb.struct("ctx_t", ["path", "mode"])
        mb.global_var("g_ctx", size=2, struct="ctx_t")
        make_wrapper(mb, "execve", 3)
        f = mb.function("main")
        g = f.addr_global("g_ctx")
        pp = f.gep(g, "ctx_t", "path")
        f.store(pp, 0x1234)
        path = f.load(pp)
        f.call("execve", [path, 0, 0])
        f.ret(0)
        artifact = protect(mb.build())
        assert ("g_ctx", 0) in artifact.metadata.global_field_slots


class TestSerialization:
    def test_json_roundtrip(self):
        artifact = protect(_small_module())
        text = artifact.metadata.to_json()
        restored = BastionMetadata.from_json(text)
        assert restored.program == artifact.metadata.program
        assert restored.call_types == artifact.metadata.call_types
        assert restored.valid_callers == artifact.metadata.valid_callers
        assert restored.indirect_sites == artifact.metadata.indirect_sites
        assert set(restored.callsites) == set(artifact.metadata.callsites)
        assert restored.sensitive_globals == artifact.metadata.sensitive_globals
        assert restored.global_field_slots == artifact.metadata.global_field_slots
        assert restored.stats == artifact.metadata.stats

    def test_roundtrip_preserves_binds(self):
        artifact = protect(_small_module())
        restored = BastionMetadata.from_json(artifact.metadata.to_json())
        for site, meta in artifact.metadata.callsites.items():
            other = restored.callsites[site]
            assert other.binds == meta.binds
            assert other.syscall == meta.syscall

    def test_callsite_meta_bind_at(self):
        meta = CallsiteMeta(
            SiteKey("f", 0),
            "mmap",
            (ArgBindingMeta(1, "const", 0), ArgBindingMeta(3, "mem")),
        )
        assert meta.bind_at(1).kind == "const"
        assert meta.bind_at(3).kind == "mem"
        assert meta.bind_at(2) is None

    def test_real_app_roundtrip(self):
        from repro.apps.vsftpd import build_vsftpd

        artifact = protect(build_vsftpd())
        restored = BastionMetadata.from_json(artifact.metadata.to_json())
        assert len(restored.callsites) == len(artifact.metadata.callsites)
