"""The benchmark's four workloads, and one measured round of one of them.

A *round* runs one workload's seeded plan once, in this process, and
prints one JSON object: host times, modeled values from the deterministic
cost model, a digest of everything the simulation decided, and — in a
traced round — the per-layer metrics.  Host times are CPU seconds of this
process (``time.process_time``), so time spent waiting for the machine is
not counted; co-tenants still slow it through shared caches in bursts,
which is why serving throughput is the median over windows of the plan.
``run.py`` starts every round in a fresh interpreter, so set-up is
measured from interpreter start::

    python3 -m benchmarks.e2e.workloads NAME SEED [--scale X] [--traced] [--probe] [--spans]

``--probe`` stops at the first unit of measured work (a set-up sample);
``--spans`` adds the raw spans as Chrome trace events.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

from repro import api
from repro.apps.nginx import NginxConfig
from repro.fuzz import engine, oracle
from repro.fuzz.genome import seed_genomes
from repro.kernel.kernel import Kernel

from benchmarks.e2e.drivers import PlannedDbt2, PlannedWrk, exp_plan, uniform_plan
from benchmarks.e2e.tracing import SpanRecorder, install

#: CPU seconds from interpreter start until the workload code was imported
IMPORT_S = time.process_time()

#: genomes per fuzz campaign, and campaigns per round.  Campaign cost varies
#: with the target mix its mutants draw (an nginx genome costs ~2.5x a
#: browser one), so a round pools several short campaigns.
FUZZ_BUDGET = 40
FUZZ_CAMPAIGNS = 6
#: campaign seeds in [0, 64) that finish at FUZZ_BUDGET in a few seconds;
#: seed 6 was still running after 30 s, stuck in a single genome
FUZZ_SEED_RANGE = 64
FUZZ_CLEAN_SEEDS = tuple(s for s in range(FUZZ_SEED_RANGE) if s != 6)

STEP_BUDGET_REASON = "step budget exhausted"


class SetupDone(Exception):
    """Raised at the first unit of measured work in a set-up probe."""


@dataclass
class Serving:
    """One serving workload: an app build, a defense and a seeded driver."""

    app: str
    config: str
    app_config: object
    driver: object
    scheduled: bool


@dataclass
class Fuzzing:
    """Fuzz campaigns run back to back."""

    seeds: list
    budget: int


def _scaled(count, scale):
    return max(1, round(count * scale))


def nginx_blocking_bastion(seed, scale=1.0, host_clock=None):
    """nginx, 2 blocking workers, full BASTION with the verdict cache off.

    300 connections, each sending 1 + floor(Exp(mean 60)) requests.

    Why: the paper's headline setting.  ``repro.vm`` does most of the work
    and ``repro.monitor`` almost none, because nginx's steady-state
    syscalls are mostly not traced: a VM speed-up shows here and a monitor
    speed-up should not.
    """
    plan = exp_plan(seed, _scaled(300, scale), 60)
    return Serving(
        "nginx",
        "cet_ct_cf_ai",
        NginxConfig(workers=2, master_serves=False),
        PlannedWrk(plan, max_inflight=2, host_clock=host_clock),
        scheduled=True,
    )


def nginx_c10k_cache(seed, scale=1.0, host_clock=None):
    """One epoll event-loop nginx worker under BASTION with the cache on.

    10,000 connections, at most 8,000 in flight, each sending a uniform
    1-4 requests.  A connection's first request waits for the accept burst
    and later ones do not, so latency is bimodal; with 2.5 requests per
    connection on average the median lies well inside the fast mode.

    Why: the epoll harvest, the scheduler, the load driver, dispatch volume and
    the verdict-cache hit path do their most work here, and host cost per
    request grows with the connection count.
    """
    plan = uniform_plan(seed, _scaled(10_000, scale), 1, 4)
    return Serving(
        "nginx",
        "cache_on",
        NginxConfig(workers=1, master_serves=False, event_loop=True),
        PlannedWrk(plan, max_inflight=_scaled(8_000, scale), host_clock=host_clock),
        scheduled=True,
    )


def sqlite_fs_bastion(seed, scale=1.0, host_clock=None):
    """mini-SQLite under BASTION with the filesystem extension, cache off.

    16 DBT2 terminals, each sending a uniform 90-150 NEWORDERs.  The server
    serves terminals one after another, so only the total matters; a
    uniform draw keeps it (and the file sizes it leaves) steady across
    seeds.

    Why: the same dispatch and monitor layers used differently.  Every
    file pwrite/pread/fsync stops in the monitor (unwind and argument
    checks on each), where nginx does socket I/O with almost no stops.  No
    scheduler and no epoll run, so those layers should not move it.
    """
    plan = uniform_plan(seed, _scaled(16, scale), 90, 150)
    return Serving("sqlite", "fs_full", None, PlannedDbt2(plan, host_clock=host_clock),
                   scheduled=False)


def fuzz_differential(seed, scale=1.0, host_clock=None):
    """Differential fuzzing over undefended plus the 9-mechanism matrix.

    FUZZ_CAMPAIGNS campaigns of FUZZ_BUDGET genomes, their seeds drawn from
    FUZZ_CLEAN_SEEDS by ``seed``.

    Why: per-run boot (kernel, environment, launch, attack staging), the
    attack runner, the oracle and minimization do their most work here,
    and the steady-state VM the least.
    """
    clean = FUZZ_CLEAN_SEEDS
    campaigns = _scaled(FUZZ_CAMPAIGNS, scale)
    seeds = [clean[(seed * campaigns + i) % len(clean)] for i in range(campaigns)]
    return Fuzzing(seeds, max(2, _scaled(FUZZ_BUDGET, scale)))


WORKLOADS = {
    "nginx-blocking-bastion": nginx_blocking_bastion,
    "nginx-c10k-cache": nginx_c10k_cache,
    "sqlite-fs-bastion": sqlite_fs_bastion,
    "fuzz-differential": fuzz_differential,
}


def _digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _percentile(ordered, p):
    """Nearest-rank percentile, as ``repro.apps.workloads.LatencyStats``."""
    if not ordered:
        return 0
    return ordered[min(int(round(p / 100.0 * (len(ordered) - 1))), len(ordered) - 1)]


def _steps(kernel):
    return sum(p.cpu.stats.steps for p in kernel.processes.values() if p.cpu is not None)


def log_kernels():
    """A list that receives every :class:`Kernel` built from now on."""
    kernels = []
    original = Kernel.__init__

    def init(kernel, *args, **kwargs):
        original(kernel, *args, **kwargs)
        kernels.append(kernel)

    Kernel.__init__ = init
    return kernels


class AttackLog:
    """Modeled cost of every attack run, read from the kernel the run booted.

    Every campaign first evaluates the same seed corpus; the modeled cost of
    those runs (outside minimization) is kept apart because it does not
    depend on the campaign seed.
    """

    def __init__(self):
        self.cycles = []
        self.corpus_cycles = []
        self.corpus_genomes = 0
        self.steps = 0
        self.counters = {}
        self.violations = 0
        self.step_budget_runs = 0
        corpus = {genome.key() for genome in seed_genomes()}
        state = {"corpus": False, "minimizing": False}
        kernels = log_kernels()
        run_attack = oracle.run_attack
        evaluate_genome = engine.evaluate_genome
        minimize_divergence = engine.minimize_divergence

        def observed_evaluate(genome):
            if not state["minimizing"]:
                state["corpus"] = genome.key() in corpus
                self.corpus_genomes += state["corpus"]
            try:
                return evaluate_genome(genome)
            finally:
                state["corpus"] = False

        def observed_minimize(result):
            state["minimizing"] = True
            try:
                return minimize_divergence(result)
            finally:
                state["minimizing"] = False

        def observed_run(spec, *args, **kwargs):
            first = len(kernels)
            outcome = run_attack(spec, *args, **kwargs)
            kernel = kernels[first]
            del kernels[first:]
            cycles = sum(p.ledger.cycles for p in kernel.processes.values())
            self.cycles.append(cycles)
            if state["corpus"]:
                self.corpus_cycles.append(cycles)
            self.steps += _steps(kernel)
            for key, value in kernel.telemetry.counters.items():
                self.counters[key] = self.counters.get(key, 0) + value
            self.violations += len(outcome.violations)
            if outcome.status.reason == STEP_BUDGET_REASON:
                self.step_budget_runs += 1
            return outcome

        engine.evaluate_genome = observed_evaluate
        engine.minimize_divergence = observed_minimize
        oracle.run_attack = observed_run


def _setup_metrics(stats, accept_s):
    """Set-up split from the span totals at the first unit of work."""

    def inclusive(name):
        return stats.get(name, (0, 0, 0))[2] / 1e9

    metrics = {
        "setup.build_s": inclusive("setup.build"),
        "setup.compile_s": inclusive("setup.compile"),
        "setup.policy_s": inclusive("setup.policy"),
        "setup.launch_s": stats.get("setup.launch", (0, 0, 0))[1] / 1e9
        + inclusive("boot.kernel"),
    }
    metrics["setup.app_init_s"] = max(accept_s - sum(metrics.values()), 0.0)
    return metrics


def serve_round(case, recorder, probe):
    """Run one serving plan; returns the round record."""
    driver = case.driver
    marks = {}

    def first_accept():
        if probe:
            raise SetupDone()
        marks["accept_ns"] = time.perf_counter_ns()
        if recorder is not None:
            marks["stats"] = {name: list(entry) for name, entry in recorder.stats.items()}

    driver.on_first_accept = first_accept
    kernels = log_kernels()

    def call():
        return api.run(case.app, case.config, workload=driver,
                       app_config=case.app_config, scheduled=case.scheduled)

    if recorder is not None:
        call = recorder.wrap(call, "run")
    start_ns = time.perf_counter_ns()
    try:
        result = call()
    except SetupDone:
        return {"setup_s": driver.first_accept_cpu}
    bench = result.bench
    kernel = kernels[-1]
    ops = driver.answered
    latency = sorted(driver.latency.samples)
    bad = {pid for pid, proc in kernel.processes.items() if proc.kill_reason}
    bad |= {pid for pid, kind in bench.statuses.items() if kind in ("killed", "fault")}
    if not bench.status.ok:
        bad.add("root")
    exact = {
        "status": bench.status.kind,
        "statuses": sorted(bench.statuses.values()),
        "ops": ops,
        "total_cycles": bench.total_cycles,
        "steady_cycles": bench.steady_cycles,
        "syscalls": bench.syscall_counts,
        "stage_cycles": bench.stage_cycles,
        "latency": latency,
        "violations": len(bench.violations),
    }
    record = {
        "setup_s": driver.first_accept_cpu,
        "ops": ops,
        "attempted": driver.planned,
        "failed": driver.planned - ops + len(bad),
        "ops_per_s": driver.window_rate(),
        "cycles_per_op": bench.steady_cycles / ops if ops else 0.0,
        "lat_p50_kcycles": _percentile(latency, 50) / 1000.0,
        "lat_p99_kcycles": _percentile(latency, 99) / 1000.0,
        "lat_samples": len(latency),
        "status": bench.status.kind,
        "violations": len(bench.violations),
        "step_budget_runs": 0,
        "digest": _digest(exact),
    }
    if recorder is not None:
        host = sorted(driver.host_latency_ns)
        extra = _setup_metrics(marks["stats"], (marks["accept_ns"] - start_ns) / 1e9)
        extra.update({
            "monitor.violations": len(bench.violations),
            "driver.peak_inflight": driver.peak_inflight,
            "driver.host_lat_p50_us": _percentile(host, 50) / 1000.0,
            "driver.host_lat_p99_us": _percentile(host, 99) / 1000.0,
            "net.backlog.wait_ratio": driver.backlog_waits / driver.backlog_calls,
        })
        record["layers"] = layer_metrics(
            recorder, kernel.telemetry.counters, ops, _steps(kernel), extra
        )
    return record


def fuzz_round(case, recorder, probe):
    """Run the seeded campaigns; returns the round record."""
    attacks = AttackLog()
    setup_s = time.process_time()
    if probe:
        return {"setup_s": setup_s}
    campaigns = []

    def call():
        for seed in case.seeds:
            campaigns.append(engine.FuzzCampaign(seed=seed, budget=case.budget).run())

    if recorder is not None:
        call = recorder.wrap(call, "run")
    call()
    busy_s = time.process_time() - setup_s
    genomes = sum(c.executed for c in campaigns)
    corpus = sorted(attacks.corpus_cycles)
    exact = [
        {
            "seed": c.seed,
            "executed": c.executed,
            "kept": len(c.kept),
            "coverage": len(c.coverage),
            "divergences": [repr(r.divergence_key()) for r in c.divergences],
        }
        for c in campaigns
    ]
    record = {
        "campaign_seeds": case.seeds,
        "setup_s": setup_s,
        "ops": genomes,
        "attempted": genomes,
        "failed": attacks.step_budget_runs,
        "ops_per_s": genomes / busy_s,
        "cycles_per_op": sum(corpus) / attacks.corpus_genomes,
        "lat_p50_kcycles": _percentile(corpus, 50) / 1000.0,
        "lat_p99_kcycles": _percentile(corpus, 99) / 1000.0,
        "lat_samples": len(corpus),
        "status": "returned",
        "violations": 0,
        "step_budget_runs": attacks.step_budget_runs,
        "digest": _digest([exact, attacks.cycles]),
    }
    if recorder is not None:
        boot_s = recorder.inclusive_s("boot.kernel", "boot.env") + recorder.self_s("setup.launch")
        attempts = recorder.calls("fuzz.next")
        extra = {
            "monitor.violations": attacks.violations,
            "fuzz.attack_runs": len(attacks.cycles),
            "fuzz.boot_s": boot_s,
            "fuzz.exec_s": recorder.inclusive_s("fuzz.attack") - boot_s
            - recorder.inclusive_s("setup.compile", "setup.policy"),
            "fuzz.oracle_self_s": recorder.self_s("fuzz.genome"),
            "fuzz.mutate_s": recorder.inclusive_s("fuzz.mutate"),
            "fuzz.minimize_s": recorder.inclusive_s("fuzz.minimize"),
            "fuzz.kept_ratio": sum(len(c.kept) for c in campaigns) / genomes,
            "fuzz.dup_ratio": (attempts - genomes) / attempts,
            "fuzz.divergences": sum(len(c.divergences) for c in campaigns),
            "fuzz.step_budget_runs": attacks.step_budget_runs,
        }
        record["layers"] = layer_metrics(recorder, attacks.counters, genomes, attacks.steps, extra)
    return record


def layer_metrics(rec, counters, ops, steps, extra):
    """Every per-layer metric of one traced round; ``extra`` holds the ones
    only the workload knows.  A layer the workload does not run reads 0."""

    def ratio(num, den):
        return num / den if den else 0.0

    run_s = rec.inclusive_s("run")
    vm_s = rec.self_s("vm")
    dispatch_s = rec.self_s("dispatch")
    monitor_s = rec.self_s(*rec.names_with_prefix("monitor"))
    runtime_s = rec.self_s("runtime")
    epoll_s = rec.self_s("net.epoll")
    hits = counters.get("monitor.cache_hits", 0)
    misses = counters.get("monitor.cache_misses", 0)
    stage = {key[len("stage.cycles."):]: value for key, value in counters.items()
             if key.startswith("stage.cycles.")}
    metrics = {
        "vm.self_s": vm_s,
        "vm.share": ratio(vm_s, run_s),
        "vm.steps": steps,
        "vm.ns_per_step": ratio(vm_s * 1e9, steps),
        "dispatch.calls": rec.calls("dispatch"),
        "dispatch.self_s": dispatch_s,
        "dispatch.share": ratio(dispatch_s, run_s),
        "dispatch.us_per_call": ratio(dispatch_s * 1e6, rec.calls("dispatch")),
        "model.syscalls_per_req": ratio(counters.get("dispatch.syscalls", 0), ops),
        "monitor.stops": rec.calls("monitor.stop"),
        "monitor.self_s": monitor_s,
        "monitor.share": ratio(monitor_s, run_s),
        "monitor.us_per_stop": ratio(monitor_s * 1e6, rec.calls("monitor.stop")),
        "monitor.unwind_s": rec.self_s("monitor.unwind"),
        "monitor.verify.call_type_s": rec.self_s("monitor.verify.call_type"),
        "monitor.verify.control_flow_s": rec.self_s("monitor.verify.control_flow"),
        "monitor.verify.arg_integrity_s": rec.self_s("monitor.verify.arg_integrity"),
        "monitor.violations": 0,
        "monitor.cache_hits": hits,
        "monitor.cache_misses": misses,
        "monitor.cache_hit_rate": ratio(hits, hits + misses),
        "monitor.invalidations": counters.get("monitor.invalidations", 0),
        "runtime.calls": rec.calls("runtime"),
        "runtime.self_s": runtime_s,
        "runtime.share": ratio(runtime_s, run_s),
        "net.epoll.polls": rec.calls("net.epoll"),
        "net.epoll.events_per_poll": ratio(counters.get("epoll.events", 0),
                                           counters.get("epoll.waits", 0)),
        "net.epoll.self_s": epoll_s,
        "net.epoll.us_per_poll": ratio(epoll_s * 1e6, rec.calls("net.epoll")),
        "net.backlog.calls": rec.calls("net.backlog"),
        "net.backlog.wait_ratio": 0.0,
        "sched.self_s": rec.self_s("sched"),
        "sched.slices": counters.get("sched.slices", 0),
        "sched.preemptions": counters.get("sched.preemptions", 0),
        "sched.blocks": counters.get("sched.blocks", 0),
        "sched.forced_wakes": counters.get("sched.forced_wakes", 0),
        "sched.switch_kcycles": counters.get("sched.switch_cycles", 0) / 1000.0,
        "driver.self_s": rec.self_s("driver"),
        "driver.peak_inflight": 0,
        "driver.host_lat_p50_us": 0.0,
        "driver.host_lat_p99_us": 0.0,
        "setup.import_s": IMPORT_S,
        "setup.build_s": 0.0,
        "setup.compile_s": 0.0,
        "setup.policy_s": 0.0,
        "setup.launch_s": 0.0,
        "setup.app_init_s": 0.0,
        "fuzz.attack_runs": 0,
        "fuzz.boot_s": 0.0,
        "fuzz.exec_s": 0.0,
        "fuzz.oracle_self_s": 0.0,
        "fuzz.mutate_s": 0.0,
        "fuzz.minimize_s": 0.0,
        "fuzz.kept_ratio": 0.0,
        "fuzz.dup_ratio": 0.0,
        "fuzz.divergences": 0,
        "fuzz.step_budget_runs": 0,
        "model.seccomp_cpr": ratio(stage.get("seccomp", 0), ops),
        "model.trace_stop_cpr": ratio(stage.get("trace_stop", 0), ops),
        "model.verify_cpr": ratio(
            sum(value for key, value in stage.items() if key.startswith("verify")), ops
        ),
        "trace.spans": sum(entry[0] for entry in rec.stats.values()),
        "trace.spans_dropped": rec.dropped,
        "trace.unattributed_share": ratio(rec.self_s("run"), run_s),
    }
    metrics.update(extra)
    return metrics


def run_round(name, seed, scale=1.0, traced=False, probe=False, spans=False):
    """One round of workload ``name``; returns the record ``main`` prints."""
    recorder = None
    if traced:
        recorder = SpanRecorder()
        install(recorder)
    case = WORKLOADS[name](seed, scale, time.perf_counter_ns if traced else None)
    if isinstance(case, Fuzzing):
        record = fuzz_round(case, recorder, probe)
    else:
        record = serve_round(case, recorder, probe)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans and recorder is not None:
        record["trace_events"] = recorder.chrome_events(pid=os.getpid())
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one benchmark round.")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--scale", type=float, default=1.0, help="plan size multiplier")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", action="store_true")
    args = parser.parse_args(argv)
    record = run_round(args.workload, args.seed, args.scale, args.traced, args.probe,
                       args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
