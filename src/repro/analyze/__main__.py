"""CLI: ``python -m repro.analyze <app> [--format text|json] [--strict]``.

Exit status: 0 when every analyzed program passes (no unwaived errors; with
``--strict``, no unwaived findings at all), 1 otherwise.

``python -m repro.analyze binary [apps|--all]`` runs the metadata-free
binary-level analyzer instead (:mod:`repro.analyze.binary`) and reports
recovered-vs-metadata precision per app.  ``--json`` emits the byte-stable
precision payload; ``--write PATH`` pins it; ``--check PATH`` fails on any
recovered-table regression against a pinned baseline (a syscall admitted
that the baseline excluded, or a legitimate call type lost).

``python -m repro.analyze sfip [apps|--all]`` reports syscall-transition
precision (:mod:`repro.analyze.sfip`): the CompiledPolicy both producers
emit, with the same ``--json`` / ``--write`` / ``--check`` contract over
``tests/fixtures/sfip_precision.json`` (a transition or origin admitted
that the baseline excluded, or a legitimate one lost).
"""

import argparse
import json
import sys

from repro.analyze.runner import analyze_app
from repro.analyze.waivers import SHIPPED_WAIVERS, apply_waivers
from repro.apps import SYNTHETIC_APPS


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "binary":
        return _binary_main(argv[1:])
    if argv and argv[0] == "sfip":
        return _sfip_main(argv[1:])
    parser = _parser(
        "python -m repro.analyze",
        "Run the BASTION static-analysis pass suite over compiled "
        "synthetic apps.",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    args = parser.parse_args(argv)

    waivers = () if args.no_waivers else SHIPPED_WAIVERS
    reports = [analyze_app(name, waivers=waivers) for name in _names(parser, args)]

    if args.format == "json":
        payload = {r.program: r.to_dict() for r in reports}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            print(report.render_text())

    failed = any(
        not (r.clean if args.strict else r.ok) for r in reports
    )
    return 1 if failed else 0


def _binary_main(argv):
    from repro.analyze.binary import (
        binary_report,
        check_precision_regressions,
        precision_payload_json,
    )

    parser = _parser(
        "python -m repro.analyze binary",
        "Run the metadata-free binary-level analyzer and report "
        "recovered-vs-metadata precision per app.",
        payload="precision",
    )
    args = parser.parse_args(argv)

    waivers = () if args.no_waivers else SHIPPED_WAIVERS
    payload = {}
    failed = False
    text_lines = []
    for name in sorted(_names(parser, args)):
        diagnostics, metrics = binary_report(name)
        kept, waived = apply_waivers(name, diagnostics, waivers)
        payload[name] = metrics
        errors = [d for d in kept if d.severity == "error"]
        if errors or (args.strict and kept):
            failed = True
        if not args.json:
            text_lines.extend(_binary_text(name, metrics, kept, waived))

    regressed = _emit_pinned(
        args, payload, text_lines, precision_payload_json, check_precision_regressions
    )
    return 1 if failed or regressed else 0


def _sfip_main(argv):
    from repro.analyze.sfip import (
        check_sfip_regressions,
        sfip_payload_json,
        sfip_report,
        sfip_text,
    )

    parser = _parser(
        "python -m repro.analyze sfip",
        "Report syscall-transition precision: the CompiledPolicy emitted "
        "by the flowgraph and binary producers.",
        payload="transition-precision",
        findings=False,
    )
    args = parser.parse_args(argv)

    payload = {}
    text_lines = []
    for name in sorted(_names(parser, args)):
        report = sfip_report(name)
        payload[name] = report
        if not args.json:
            text_lines.extend(sfip_text(name, report))

    regressed = _emit_pinned(
        args, payload, text_lines, sfip_payload_json, check_sfip_regressions
    )
    return 1 if regressed else 0


def _parser(prog, description, payload=None, findings=True):
    """The subcommands' shared parser: ``apps``/``--all``, the finding
    gate (``--strict``/``--no-waivers``) when the subcommand reports
    ``findings``, and ``--json``/``--write``/``--check`` when it pins a
    ``payload`` (named in the help text)."""
    parser = argparse.ArgumentParser(prog=prog, description=description)
    parser.add_argument(
        "apps",
        nargs="*",
        metavar="app",
        help="registered app name(s): %s" % ", ".join(sorted(SYNTHETIC_APPS)),
    )
    parser.add_argument(
        "--all", action="store_true", help="analyze every registered app"
    )
    if payload is not None:
        parser.add_argument(
            "--json",
            action="store_true",
            help="emit the byte-stable %s payload instead of text" % payload,
        )
        parser.add_argument(
            "--write",
            metavar="PATH",
            help="write the %s payload to PATH (pins the CI baseline)" % payload,
        )
        parser.add_argument(
            "--check",
            metavar="PATH",
            help="diff the %s payload against the baseline at PATH; fail on "
            "any regression" % payload,
        )
    if findings:
        parser.add_argument(
            "--strict",
            action="store_true",
            help="fail on any unwaived finding, not just errors",
        )
        parser.add_argument(
            "--no-waivers",
            action="store_true",
            help="ignore the shipped waiver table and show raw findings",
        )
    return parser


def _names(parser, args):
    """The apps to analyze (``--all``: every registered one, sorted);
    exits with a usage error when none or an unknown one is named."""
    names = sorted(SYNTHETIC_APPS) if args.all else args.apps
    if not names:
        parser.error("name at least one app, or pass --all")
    unknown = [n for n in names if n not in SYNTHETIC_APPS]
    if unknown:
        parser.error("unknown app(s): %s" % ", ".join(unknown))
    return names


def _emit_pinned(args, payload, text_lines, to_json, regressions_of):
    """Print the payload (``--json``) or the text report, pin it
    (``--write``) and diff it against a baseline (``--check``, regressions
    to stderr).  Returns whether ``--check`` found a regression."""
    print(to_json(payload) if args.json else "\n".join(text_lines))
    if args.write:
        with open(args.write, "w") as fh:
            fh.write(to_json(payload) + "\n")
    if not args.check:
        return False
    with open(args.check) as fh:
        regressions = regressions_of(json.load(fh), payload)
    for line in regressions:
        print("REGRESSION: %s" % line, file=sys.stderr)
    return bool(regressions)


def _binary_text(name, metrics, kept, waived):
    """Human-readable per-app precision summary + findings."""
    funcs = metrics["functions"]
    syscalls = metrics["syscalls"]
    types = metrics["call_types"]
    flow = metrics["flow"]
    lines = [
        "=== %s (binary-level analysis) ===" % name,
        "functions: %d symbols, %d recovered (%d reachable, "
        "%d wrappers vs %d in IR)"
        % (
            funcs["symbols"],
            funcs["recovered"],
            funcs["reachable"],
            funcs["wrappers_recovered"],
            funcs["wrappers_ir"],
        ),
        "syscalls: %d present, %d reachable (%d tightened away)"
        % (
            syscalls["present"],
            len(syscalls["reachable"]),
            len(syscalls["tightened"]),
        ),
        "call types: %d recovered, %d in metadata, %d kinds tightened"
        % (
            len(types["recovered"]),
            len(types["metadata"]),
            sum(len(kinds) for kinds in types["tightened"].values()),
        ),
        "flow: %d sensitive sites / %d chains (binary) vs %d / %d (metadata)"
        % (
            flow["binary"]["sensitive_sites"],
            flow["binary"]["chains"],
            flow["metadata"]["sensitive_sites"],
            flow["metadata"]["chains"],
        ),
    ]
    for diag in kept:
        lines.append(
            "  [%s] %s: %s" % (diag.severity.upper(), diag.code, diag.message)
        )
    for diag, waiver in waived:
        lines.append(
            "  [waived] %s: %s (%s)" % (diag.code, diag.message, waiver.reason)
        )
    lines.append("")
    return lines


if __name__ == "__main__":
    sys.exit(main())
