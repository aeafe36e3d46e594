"""Seeded, layer-resolved end-to-end benchmark: the command line.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
    PYTHONPATH=src:. python -m benchmarks.e2e [--workload NAME] [--seed N] ...

Every round runs in a fresh interpreter (``benchmarks/e2e/workloads.py``),
one at a time.  An untraced run (``--trace 0``) takes set-up samples, then
repeats the seeded plan while another round fits in ``--seconds``, and
reports the end-to-end metrics named in ``BENCHMARK.json``: medians for
host times, exact values for modeled ones.  A traced run (``--trace 1``)
runs one untraced and one traced round and reports the per-layer metrics;
``--trace-out FILE`` also writes the traced spans as Chrome trace-event
JSON.  Every run checks the outputs: all planned work answered, no benign
process killed, no monitor violation, no attack run out of step budget,
and one result digest across every round, traced or not.  The last line
of output is one JSON object; the exit code is 0 only when every check
passed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
SRC = os.path.join(ROOT, "src")

#: set-up-only rounds per untraced run (set-up time is reported as a median)
SETUP_PROBES = 5
#: a round that runs longer is killed and the run fails (a runaway genome
#: can spin for tens of minutes before the VM step budget stops it)
ROUND_TIMEOUT_S = 120.0
#: every run ends within this, whatever its rounds do
RUN_DEADLINE_S = 170.0
DEFAULT_SEED = 8
DEFAULT_SECONDS = 20


class RoundFailed(Exception):
    """A round exited non-zero or ran out of time."""


def load_spec():
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def run_round(workload, seed, scale, deadline, *flags):
    """One round in a fresh interpreter; returns its JSON record."""
    timeout = min(ROUND_TIMEOUT_S, deadline - time.monotonic())
    if timeout <= 0:
        raise RoundFailed("no time left for another round")
    cmd = [sys.executable, "-m", "benchmarks.e2e.workloads", workload, str(seed),
           "--scale", str(scale), *flags]
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + ROOT, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RoundFailed("round killed after %.0f s" % timeout) from None
    if proc.returncode != 0:
        raise RoundFailed("round exited %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.splitlines()[-1])


def check_rounds(rounds):
    """Correctness problems across the measured rounds (empty when none)."""
    problems = []
    for record in rounds:
        if record["failed"] or record["ops"] != record["attempted"]:
            problems.append("%d of %d operations failed or went unanswered"
                            % (record["failed"], record["attempted"]))
        if record["status"] != "returned":
            problems.append("root process ended %r" % record["status"])
        if record["violations"]:
            problems.append("%d monitor violations on benign traffic" % record["violations"])
        if record["step_budget_runs"]:
            problems.append("%d attack runs exhausted the step budget"
                            % record["step_budget_runs"])
    digests = {record["digest"] for record in rounds}
    if len(digests) > 1:
        problems.append("rounds of one seed disagree: digests %s" % sorted(digests))
    return problems


def end_to_end(probes, rounds):
    first = rounds[0]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in probes + rounds),
        "ops_per_s": statistics.median(r["ops_per_s"] for r in rounds),
        "cycles_per_op": first["cycles_per_op"],
        "lat_p50_kcycles": first["lat_p50_kcycles"],
        "lat_p99_kcycles": first["lat_p99_kcycles"],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def per_layer(untraced, traced):
    metrics = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    plain = statistics.median(r["ops_per_s"] for r in untraced)
    slowed = statistics.median(r["ops_per_s"] for r in traced)
    metrics["trace.overhead_pct"] = 100.0 * (plain / slowed - 1.0)
    return metrics


def measure(workload, seed, seconds, trace, scale=1.0, spans=False):
    """One benchmark run; returns ``(result, rounds, problems)``."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    probes, rounds, traced = [], [], []
    if trace:
        rounds.append(run_round(workload, seed, scale, deadline))
        flags = ("--traced", "--spans") if spans else ("--traced",)
        traced.append(run_round(workload, seed, scale, deadline, *flags))
        metrics = per_layer(rounds, traced)
    else:
        probes = [run_round(workload, seed, scale, deadline, "--probe")
                  for _ in range(SETUP_PROBES)]
        start = time.monotonic()
        while True:
            rounds.append(run_round(workload, seed, scale, deadline))
            elapsed = time.monotonic() - start
            if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
        metrics = end_to_end(probes, rounds)
    rounds += traced
    problems = check_rounds(rounds)
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    return result, rounds, problems


def report(workload, seed, trace, spec, result, rounds, problems):
    """Print the human-readable lines, then the JSON result line."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        raise KeyError("metrics not measured: %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    print("# %s seed=%d trace=%d rounds=%d digest=%s"
          % (workload, seed, trace, len(rounds), rounds[0]["digest"]))
    for name, metric in metrics.items():
        print("%-34s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("%-34s %14d count" % ("lat_samples", rounds[0]["lat_samples"]))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print(json.dumps(dict(result, metrics=metrics)))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded end-to-end benchmark.")
    parser.add_argument("--workload", help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out",
                        help="also write the traced spans here as Chrome JSON (implies --trace 1)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="plan size multiplier (the tests run tiny plans)")
    args = parser.parse_args(argv)
    trace = 1 if args.trace_out else args.trace
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("benchmark: no repro package under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    spec = load_spec()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        parser.error("unknown workload %s" % ", ".join(sorted(unknown)))
    ok = True
    events = []
    for name in names:
        try:
            result, rounds, problems = measure(name, args.seed, args.seconds, trace,
                                               args.scale, spans=bool(args.trace_out))
        except RoundFailed as failure:
            print("%s seed %d: FAILED: %s" % (name, args.seed, failure), file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            ok = False
            continue
        for record in rounds:
            events += record.pop("trace_events", [])
        report(name, args.seed, trace, spec, result, rounds, problems)
        ok = ok and result["correct"]
    if args.trace_out:
        with open(args.trace_out, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
