"""The BASTION runtime library (the paper's §6.3.2 / Table 2 API).

The library maintains, *inside the protected application's address space*,
an open-addressing shadow-memory hash table holding:

- the shadow copy (last legitimate value) of every sensitive variable, and
- per-callsite argument bindings (which address/constant feeds which
  argument position).

The application-side half (:class:`repro.runtime.bastion_rt.BastionRuntime`)
is driven by the compiler-inserted ``ctx_write_mem`` / ``ctx_bind_mem_X`` /
``ctx_bind_const_X`` intrinsics.  The monitor-side half reads the same
region through ptrace (:func:`repro.runtime.shadow_table.lookup`, which
:class:`~repro.runtime.shadow_table.ShadowTableReader` wraps) — it shares
only the *layout*, never Python object state, preserving the process
boundary.
"""

from repro.runtime.shadow_table import (
    ShadowTableLayout,
    ShadowTable,
    ShadowTableReader,
    BIND_EMPTY,
    BIND_MEM,
    BIND_CONST,
    COPIES_LAYOUT,
    BINDINGS_LAYOUT,
)
from repro.runtime.bastion_rt import BastionRuntime

__all__ = [
    "ShadowTableLayout",
    "ShadowTable",
    "ShadowTableReader",
    "BastionRuntime",
    "BIND_EMPTY",
    "BIND_MEM",
    "BIND_CONST",
    "COPIES_LAYOUT",
    "BINDINGS_LAYOUT",
]
