"""Frame-pointer stack unwinding over the ptrace transport (§7.3).

The monitor walks the tracee's rbp chain: each frame holds
``[saved_fp, return_address]`` at ``[fp, fp+8]``.  Every hop is one real
``process_vm_readv`` with its cycle cost — the paper's dominant runtime
expense when the protected set grows (Table 7).

The walk also *decodes the call instruction* at ``return_address - 4`` in
the program image, classifying each hop as a direct call, an indirect call,
or not-a-callsite (the smoking gun of a ROP return).  Every call in the
image is decoded once, into its image's return-site table
(:func:`code_sites`), so a hop costs its read and one lookup; a return
address that is no return site (a smashed or pivoted chain) is decoded
from the image as it comes, and never added to the table.
"""

from dataclasses import dataclass

from repro.errors import PtraceError
from repro.ir.instructions import Call, CallIndirect, Syscall
from repro.vm.loader import INSTR_STRIDE
from repro.vm.memory import WORD


@dataclass
class Frame:
    """One unwound stack frame.

    Attributes:
        func: name of the function this frame belongs to (None if the frame
            pointer was hijacked to garbage).
        fp: the frame pointer value.
        return_addr: saved return address (0 at the main sentinel).
        callsite_addr: ``return_addr - 4`` (None at the bottom).
        kind: 'direct' | 'indirect' | None (not a call, or an unreadable frame:
            then ``callsite_addr`` is None too) | 'bottom' (main sentinel reached).
    """

    func: str
    fp: int
    return_addr: int
    callsite_addr: int = None
    kind: str = None


def code_sites(image):
    """``(return sites, syscall sites)`` of ``image``, decoded once per
    image: ``{return address: (call kind, caller function)}`` for every
    call instruction, and ``{address: function}`` for every syscall
    instruction (where a stop's ``rip`` points)."""
    return image.derive("monitor.code_sites", _decode_sites)


def _decode_sites(image):
    returns = {}
    syscalls = {}
    for name, func in image.module.functions.items():
        base = image.func_base[name]
        for index, instr in enumerate(func.body):
            if isinstance(instr, (Call, CallIndirect)):
                kind = "direct" if isinstance(instr, Call) else "indirect"
                returns[base + (index + 1) * INSTR_STRIDE] = (kind, name)
            elif isinstance(instr, Syscall):
                syscalls[base + index * INSTR_STRIDE] = name
    return returns, syscalls


def unwind_stack(pt, regs, image, max_frames=64):
    """Unwind the tracee stack from a syscall stop; returns ``[Frame, ...]``.

    The first frame is the one containing the trapped syscall instruction
    (its ``callsite_addr`` is the call that *invoked* that function).  The
    walk stops at the main sentinel (return address 0), at a hijacked chain
    (unresolvable return address or unreadable frame), or at ``max_frames``.
    """
    sites, syscalls = code_sites(image)
    readv = pt.readv
    frames = []
    fp = regs.rbp
    func = syscalls.get(regs.rip)
    if func is None:
        func = image.func_containing(regs.rip)
    while len(frames) < max_frames:
        try:
            saved_fp, return_addr = readv(fp, 2)
        except PtraceError:
            frames.append(Frame(func, fp, 0))
            break
        if return_addr == 0:
            frames.append(Frame(func, fp, 0, None, "bottom"))
            break
        callsite_addr = return_addr - INSTR_STRIDE
        site = sites.get(return_addr)
        if site is None:
            kind = image.call_kind_at(callsite_addr)
            frames.append(Frame(func, fp, return_addr, callsite_addr, kind))
            if kind is None:
                break  # corrupted chain: nothing above can be trusted
            func = image.func_containing(callsite_addr)
            if func is None:
                break
        else:
            kind, caller = site
            frames.append(Frame(func, fp, return_addr, callsite_addr, kind))
            func = caller
        fp = saved_fp
    return frames


def callee_param_slot(frame, position):
    """Address of the callee's ``position``-th (1-based) parameter slot."""
    return frame.fp - WORD * position
