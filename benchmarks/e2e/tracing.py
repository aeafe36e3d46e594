"""Host-time spans around each layer's public entry points.

The traced run replaces each layer entry point, where its caller looks it
up, with a wrapper that pushes a span on a stack.  A span's *self* time is
its duration minus the time of the spans it encloses, aggregated online
per span name, so per-layer self times add up to the traced run time.
Raw spans go to a bounded in-memory list (overflow is counted, never
dropped silently) and can be written as Chrome trace-event JSON, which
Perfetto and chrome://tracing open.

Nothing inside ``repro`` changes: every wrapper is installed from here.
"""

import functools
import importlib
import time

#: raw spans kept per process; later spans only count in ``dropped``
SPAN_LIMIT = 200_000

#: (module, attribute path, span name) for every wrapped entry point.
#: Functions are patched in the module their caller resolves them from.
LAYER_ENTRY_POINTS = (
    ("repro.vm.cpu", "CPU.run_slice", "vm"),
    ("repro.kernel.dispatch", "DispatchPipeline.run", "dispatch"),
    ("repro.monitor.monitor", "BastionMonitor.on_syscall_stop", "monitor.stop"),
    ("repro.monitor.monitor", "unwind_stack", "monitor.unwind"),
    ("repro.monitor.verify", "ContextVerifier.verify_call_type", "monitor.verify.call_type"),
    ("repro.monitor.verify", "ContextVerifier.verify_control_flow",
     "monitor.verify.control_flow"),
    ("repro.monitor.verify", "ContextVerifier.verify_arg_integrity",
     "monitor.verify.arg_integrity"),
    ("repro.runtime.bastion_rt", "BastionRuntime.ctx_write_mem", "runtime"),
    ("repro.runtime.bastion_rt", "BastionRuntime.ctx_bind_mem", "runtime"),
    ("repro.runtime.bastion_rt", "BastionRuntime.ctx_bind_const", "runtime"),
    ("repro.kernel.net", "Epoll.poll", "net.epoll"),
    ("repro.kernel.net", "NetStack.next_connection", "net.backlog"),
    ("repro.kernel.net", "NetStack.poll_backlog", "net.backlog"),
    ("repro.sched.scheduler", "Scheduler.run", "sched"),
    ("benchmarks.e2e.drivers", "PlannedDriver.next_connection", "driver"),
    ("benchmarks.e2e.drivers", "PlannedDriver._on_write", "driver"),
    ("repro.bench.harness", "build_app", "setup.build"),
    ("repro.compiler.pipeline", "BastionCompiler.compile", "setup.compile"),
    ("repro.analyze.flowgraph", "compile_policy", "setup.policy"),
    ("repro.analyze.binary", "compile_policy", "setup.policy"),
    ("repro.mechanisms.base", "ProtectionMechanism.launch", "setup.launch"),
    ("repro.mechanisms.bastion", "BastionMechanism.launch", "setup.launch"),
    ("repro.monitor.monitor", "BastionMonitor.launch", "setup.launch"),
    ("repro.kernel.kernel", "Kernel.__init__", "boot.kernel"),
    ("repro.attacks.runner", "AttackTarget.prepare_env", "boot.env"),
    ("repro.fuzz.engine", "evaluate_genome", "fuzz.genome"),
    ("repro.fuzz.engine", "FuzzCampaign._next_genome", "fuzz.next"),
    ("repro.fuzz.engine", "mutate", "fuzz.mutate"),
    ("repro.fuzz.engine", "minimize_divergence", "fuzz.minimize"),
    ("repro.fuzz.oracle", "run_attack", "fuzz.attack"),
)


class SpanRecorder:
    """Stack-based span timing with online self-time aggregation.

    ``stats[name]`` is ``[calls, self_ns, inclusive_ns]``; inclusive time
    counts only the outermost span of a name, so recursion (one launch
    calling another) is not counted twice.
    """

    def __init__(self, limit=SPAN_LIMIT, clock=time.perf_counter_ns):
        self.clock = clock
        self.limit = limit
        self.stats = {}
        self.spans = []
        self.dropped = 0
        self._stack = []
        self._depth = {}

    def wrap(self, fn, name):
        """``fn`` timed as a span called ``name``."""
        clock = self.clock
        stack = self._stack
        depth = self._depth
        stats = self.stats
        spans = self.spans
        limit = self.limit
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [clock(), 0]
            stack.append(frame)
            outer = depth.get(name, 0)
            depth[name] = outer + 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[name] = outer
                start, children = frame
                duration = end - start
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration - children
                if not outer:
                    entry[2] += duration
                if stack:
                    stack[-1][1] += duration
                if len(spans) < limit:
                    spans.append((name, start, duration))
                else:
                    recorder.dropped += 1

        return span

    def calls(self, name):
        return self.stats.get(name, (0, 0, 0))[0]

    def self_s(self, *names):
        return sum(self.stats.get(n, (0, 0, 0))[1] for n in names) / 1e9

    def inclusive_s(self, *names):
        return sum(self.stats.get(n, (0, 0, 0))[2] for n in names) / 1e9

    def names_with_prefix(self, prefix):
        return [n for n in self.stats if n == prefix or n.startswith(prefix + ".")]

    def chrome_events(self, pid):
        """The raw spans as Chrome trace-event ``X`` records (microseconds)."""
        return [
            {"name": name, "cat": name.split(".")[0], "ph": "X", "pid": pid, "tid": 0,
             "ts": start / 1000.0, "dur": duration / 1000.0}
            for name, start, duration in self.spans
        ]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder):
    """Wrap every entry point for the rest of this process."""
    for module_name, path, name in LAYER_ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        setattr(owner, attr, recorder.wrap(owner.__dict__[attr], name))
