"""CLI entry point: ``python -m repro.bench <experiment> [--scale S]``.

Experiments: figure3, table3, table4, table5, table6, table7,
security_baselines, ablation_cache, ablation_dfi, adaptive, scheduler,
stages, all.

Every experiment reports modeled cycles from the deterministic cost
model; ``scheduler`` is the per-mechanism overhead table under
concurrent load.  Host wall-clock time is the seeded benchmark's job
(``BENCHMARK.json``, ``benchmarks/e2e``; see ``docs/perf.md``).  The
static analyzer's and the fuzzer's reports have their own CLIs:
``python -m repro.analyze`` and ``python -m repro.fuzz``.
"""

import argparse
import json
import sys
import time

from repro.bench.experiments import stages
from repro.bench.report import RENDERERS

_SCALED = {
    "figure3",
    "table3",
    "table4",
    "table7",
    "ablation_cache",
    "ablation_dfi",
    "scheduler",
    "stages",
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the BASTION paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(RENDERERS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="workload scale multiplier (smaller = faster, noisier)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (experiment: stages)",
    )
    args = parser.parse_args(argv)

    if args.json:
        if args.experiment != "stages":
            parser.error("--json is only supported for: stages")
        # sorted keys + stable formatting: byte-stable for a given run
        print(json.dumps(stages(args.scale), indent=2, sort_keys=True))
        return 0

    names = sorted(RENDERERS) if args.experiment == "all" else [args.experiment]
    for name in names:
        renderer = RENDERERS[name]
        start = time.time()
        if name in _SCALED:
            print(renderer(args.scale))
        else:
            print(renderer())
        print("[%s finished in %.1fs]\n" % (name, time.time() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
