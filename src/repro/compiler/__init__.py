"""The BASTION compiler pass (the paper's §6, an LLVM module pass).

Stages, mirroring Figure 1:

1. :mod:`repro.compiler.calltype` — classify every syscall as not-callable /
   directly-callable / indirectly-callable (§6.1);
2. :mod:`repro.compiler.cfg` — record callee→valid-caller relations on every
   path reaching a sensitive syscall callsite (§6.2);
3. :mod:`repro.compiler.argint` — field-sensitive, inter-procedural backward
   use-def analysis identifying sensitive variables and planning the
   argument bindings per callsite (§6.3);
4. :mod:`repro.compiler.instrument` — insert ``ctx_write_mem`` /
   ``ctx_bind_mem_X`` / ``ctx_bind_const_X`` intrinsics into a *clone* of
   the module (§6.3.3);
5. :mod:`repro.compiler.metadata` — the serialized context metadata the
   runtime monitor loads (§6.3.4);
6. :mod:`repro.compiler.pipeline` — the ``BastionCompiler`` facade tying it
   all together and computing the Table 5 instrumentation statistics.
"""

from repro.compiler.calltype import CallTypeInfo, analyze_call_types
from repro.compiler.cfg import ControlFlowInfo, analyze_control_flow
from repro.compiler.argint import ArgIntInfo, BindPlan, analyze_argument_integrity
from repro.compiler.instrument import instrument_module
from repro.compiler.metadata import (
    BastionMetadata,
    CallsiteMeta,
    ArgBindingMeta,
    SiteKey,
)
from repro.compiler.pipeline import BastionCompiler, BastionArtifact, protect

__all__ = [
    "CallTypeInfo",
    "analyze_call_types",
    "ControlFlowInfo",
    "analyze_control_flow",
    "ArgIntInfo",
    "BindPlan",
    "analyze_argument_integrity",
    "instrument_module",
    "BastionMetadata",
    "CallsiteMeta",
    "ArgBindingMeta",
    "SiteKey",
    "BastionCompiler",
    "BastionArtifact",
    "protect",
]
