"""A deterministic preemptive round-robin scheduler over Process PCBs.

Without a scheduler a clone()d child gets a PCB and never runs, so a
multi-worker server is its master alone.  This module runs children: it
timeslices one simulated CPU across every runnable process by **cycle
quantum**:

- the run queue holds :class:`Task` objects (a PCB plus its interpreter
  CPU); each pick runs at most ``quantum`` cycles before being preempted
  back to the tail;
- ``accept``/``read``/``wait4`` **block**: the kernel raises
  :class:`~repro.errors.WouldBlock` (before seccomp, so the monitor sees
  each syscall stop exactly once) and the scheduler parks the task until
  its wake predicate — backlog non-empty, data arrived, child exited —
  turns true;
- ``clone`` **enqueues** the child at its start routine; its stack
  comes from the collision-checked
  :class:`~repro.sched.stackalloc.StackSlotAllocator` and is released on
  exit;
- a **global cycle clock** (:meth:`Scheduler.now`) advances with whichever
  task is running, giving workloads a single timeline for per-request
  latency measurements.

Everything is deterministic: the queue order, the wake scan order, and the
clock are pure functions of simulated state, so a run at ``quantum=1`` and
a run at ``quantum=10**6`` visit different interleavings but identical
program states — the monitor must (and tests assert it does) produce the
same verdicts for both.
"""

from collections import deque
from dataclasses import dataclass

from repro.errors import KernelError, WouldBlock
from repro.telemetry import BusCounter, BusView
from repro.vm.cpu import ExitStatus

#: default preemption quantum, in cycles (~17 us of simulated time)
DEFAULT_QUANTUM = 50_000

#: PCB states the scheduler moves processes through
RUNNABLE = "runnable"
RUNNING = "running"
BLOCKED = "blocked"
ZOMBIE = "zombie"
REAPED = "reaped"


class SchedStats(BusView):
    """Observability counters for one scheduler run.

    A view over the telemetry bus (``sched.*`` counter keys): the
    scheduler constructs it bound to its kernel's bus, so scheduler
    observability shares the one spine with the kernel and monitor.
    """

    slices = BusCounter("sched.slices")
    preemptions = BusCounter("sched.preemptions")
    blocks = BusCounter("sched.blocks")
    wakes = BusCounter("sched.wakes")
    forced_wakes = BusCounter("sched.forced_wakes")
    spawned = BusCounter("sched.spawned")
    completed = BusCounter("sched.completed")
    switch_cycles = BusCounter("sched.switch_cycles")

    def as_dict(self):
        return {
            "slices": self.slices,
            "preemptions": self.preemptions,
            "blocks": self.blocks,
            "wakes": self.wakes,
            "forced_wakes": self.forced_wakes,
            "spawned": self.spawned,
            "completed": self.completed,
            "switch_cycles": self.switch_cycles,
        }


@dataclass
class Task:
    """One schedulable process: its PCB, its CPU, and its wait state."""

    proc: object
    cpu: object
    #: final ExitStatus once the task completes
    status: object = None
    #: the WouldBlock this task is parked on (None while runnable)
    wait: object = None
    #: whether the scheduler allocated this task's stack slot
    owns_stack: bool = False
    block_count: int = 0


class Scheduler:
    """Round-robin, cycle-quantum preemptive scheduler for one kernel."""

    def __init__(self, kernel, quantum=DEFAULT_QUANTUM):
        if quantum < 1:
            raise KernelError("quantum must be >= 1 cycle")
        self.kernel = kernel
        self.quantum = quantum
        self.tasks = {}  # pid -> Task (all tasks ever added)
        self._runq = deque()
        self._blocked = []  # parked Tasks, in block order (deterministic)
        self.statuses = {}  # pid -> ExitStatus
        self.stats = SchedStats(bus=kernel.telemetry)
        #: set when no task can progress; blocking is disabled from then on
        #: so parked syscalls complete via their non-blocking fallbacks
        self.draining = False
        self._elapsed = 0  # cycles consumed by finished slices
        self._current = None
        self._slice_base = 0
        kernel.scheduler = self

    # ------------------------------------------------------------------
    # clock
    # ------------------------------------------------------------------

    def now(self):
        """The global cycle clock, valid inside and between slices."""
        ticks = self._elapsed
        if self._current is not None:
            ticks += self._current.proc.ledger.cycles - self._slice_base
        return ticks

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def add(self, proc, cpu, owns_stack=False):
        """Enqueue a process with an already-constructed CPU."""
        if proc.pid in self.tasks:
            raise KernelError("pid %d already scheduled" % proc.pid)
        task = Task(proc=proc, cpu=cpu, owns_stack=owns_stack)
        self.tasks[proc.pid] = task
        proc.state = RUNNABLE
        self._runq.append(task)
        return task

    def spawn(self, parent, child, entry_addr, entry_arg=0):
        """Enqueue a clone()d child at its start routine (kernel calls this).

        The child shares the parent's image, CPU options, seccomp filters,
        tracer, and BASTION runtime (inheritance happens in
        ``Kernel._spawn_child``); only the stack region is new, taken from
        the collision-checked slot allocator and released when the child
        exits.
        """
        from repro.vm.cpu import CPU

        parent_task = self.tasks.get(parent.pid)
        if parent_task is None:
            raise KernelError("clone from unscheduled pid %d" % parent.pid)
        image = parent_task.cpu.image
        entry_name = image.func_containing(entry_addr)
        self.stats.spawned += 1
        if entry_name is None or image.func_base[entry_name] != entry_addr:
            # A corrupted start-routine pointer: the child faults at its
            # first fetch, exactly as the CPU would on a bad jump.
            child.kill("clone entry %#x not a function" % entry_addr)
            self._finish(
                Task(proc=child, cpu=None),
                ExitStatus("fault", 139, "clone entry %#x" % entry_addr),
            )
            return None
        stack_base = self.kernel.stacks.allocate(child.pid)
        cpu = CPU(
            image,
            child,
            self.kernel,
            parent_task.cpu.options,
            entry=entry_name,
            entry_args=(entry_arg,),
            stack_base=stack_base,
        )
        # the child executes the same binary: hooks staged before the
        # fork (attack trampolines included) are inherited like the shared
        # text image, so verdicts do not depend on which task wins the
        # accept race.  A snapshot copy, not the same dict: hooks installed
        # on a specific task after spawn stay private to it.
        cpu.hooks = dict(parent_task.cpu.hooks)
        return self.add(child, cpu, owns_stack=True)

    # ------------------------------------------------------------------
    # the scheduling loop
    # ------------------------------------------------------------------

    def run(self, max_slices=50_000_000):
        """Run every task to completion; returns ``{pid: ExitStatus}``."""
        while self._runq or self._blocked:
            self._wake_ready()
            if not self._runq:
                # Every task is parked and no predicate is satisfiable:
                # drain mode force-wakes everyone and disables further
                # blocking, so accept returns EAGAIN, read returns EOF,
                # and wait4 reaps or returns ECHILD — guaranteeing exit.
                self.draining = True
                while self._blocked:
                    task = self._blocked.pop(0)
                    self.stats.forced_wakes += 1
                    self._make_runnable(task)
                continue
            task = self._runq.popleft()
            self.stats.slices += 1
            if self.stats.slices > max_slices:
                raise KernelError("scheduler slice budget exhausted")
            outcome = self._run_slice(task)
            if isinstance(outcome, ExitStatus):
                self._finish(task, outcome)
            elif isinstance(outcome, WouldBlock):
                task.wait = outcome
                task.block_count += 1
                task.proc.state = BLOCKED
                self._blocked.append(task)
                self.stats.blocks += 1
                self._charge_switch(task)
            else:  # quantum expired
                task.proc.state = RUNNABLE
                self._runq.append(task)
                self.stats.preemptions += 1
                self._charge_switch(task)
        return dict(self.statuses)

    def _run_slice(self, task):
        task.proc.state = RUNNING
        self._current = task
        self._slice_base = task.proc.ledger.cycles
        try:
            return task.cpu.run_slice(self.quantum)
        finally:
            self._elapsed += task.proc.ledger.cycles - self._slice_base
            self._current = None

    def _wake_ready(self):
        """Move every parked task whose wake predicate holds to the queue."""
        still = []
        for task in self._blocked:
            wake = task.wait.wake if task.wait is not None else None
            if wake is None or wake():
                self.stats.wakes += 1
                self._make_runnable(task)
            else:
                still.append(task)
        self._blocked = still

    def _make_runnable(self, task):
        task.wait = None
        task.proc.state = RUNNABLE
        self._runq.append(task)

    def _charge_switch(self, task):
        cost = task.proc.ledger_costs.context_switch
        task.proc.ledger.charge(cost, "sched")
        self.stats.switch_cycles += cost
        self._elapsed += cost  # switch overhead is wall-clock time too

    def _finish(self, task, status):
        proc = task.proc
        task.status = status
        self.statuses[proc.pid] = status
        self.stats.completed += 1
        if proc.parent is not None and proc.alive and status.kind in (
            "returned",
            "halt",
        ):
            # Returning from the start routine terminates the child.
            proc.exit(status.code)
        proc.state = REAPED if proc.reaped else ZOMBIE
        if task.owns_stack:
            self.kernel.stacks.release(proc.pid)
