"""CLI entry point: ``python -m repro.bench <experiment> [--scale S]``.

Experiments: figure3, table3, table4, table5, table6, table7,
security_baselines, ablation_cache, ablation_dfi, adaptive, analysis,
binary, scheduler, stages, fuzz, all.
Ablations can also be selected with ``--ablate cache`` / ``--ablate dfi``.

Every experiment reports modeled cycles from the deterministic cost
model; ``scheduler`` is the per-mechanism overhead table under
concurrent load.  Host wall-clock time is the seeded benchmark's job
(``BENCHMARK.json``, ``benchmarks/e2e``; see ``docs/perf.md``).
"""

import argparse
import json
import sys
import time

from repro.bench.experiments import stages
from repro.bench.report import (
    RENDERERS,
    analysis_json,
    binary_precision_data,
    fuzz_data,
)

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

#: experiments with a machine-readable payload; keys sorted + stable
#: formatting make the output byte-stable for a given run
_JSON_PAYLOADS = {
    "analysis": lambda args: analysis_json(),
    "binary": lambda args: binary_precision_data(),
    "fuzz": lambda args: fuzz_data(),
    "stages": lambda args: stages(args.scale),
}

#: short names accepted by ``--ablate``
_ABLATIONS = {"cache": "ablation_cache", "dfi": "ablation_dfi"}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the BASTION paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(RENDERERS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--ablate",
        choices=sorted(_ABLATIONS),
        help="run an ablation by short name (e.g. --ablate cache)",
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
        help="machine-readable output (experiments: %s)"
        % ", ".join(sorted(_JSON_PAYLOADS)),
    )
    args = parser.parse_args(argv)

    if args.json:
        payload = _JSON_PAYLOADS.get(args.experiment)
        if payload is None:
            parser.error(
                "--json is only supported for: %s"
                % ", ".join(sorted(_JSON_PAYLOADS))
            )
        print(json.dumps(payload(args), indent=2, sort_keys=True))
        return 0

    names = []
    if args.experiment == "all":
        names = sorted(RENDERERS)
    elif args.experiment is not None:
        names = [args.experiment]
    if args.ablate is not None:
        ablation = _ABLATIONS[args.ablate]
        if ablation not in names:
            names.append(ablation)
    if not names:
        parser.error("specify an experiment or --ablate")

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
