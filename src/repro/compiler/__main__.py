"""CLI: compile a program with the BASTION pass and inspect the results.

Usage::

    python -m repro.compiler nginx --stats
    python -m repro.compiler sqlite --metadata sqlite.bastion.json
    python -m repro.compiler myprog.ir --dump-ir --extend-fs

The positional argument is either a registered application name
(``repro.apps.SYNTHETIC_APPS``) or a path to a textual-IR file (the
format produced by ``repro.ir.format_module``).
"""

import argparse
import sys

from repro.apps import SYNTHETIC_APPS
from repro.compiler.pipeline import BastionCompiler
from repro.ir.parser import parse_module
from repro.ir.printer import format_module


def load_target(target):
    """Resolve a CLI target to a Module: registered app name or .ir file."""
    if target in SYNTHETIC_APPS:
        return SYNTHETIC_APPS[target]()
    with open(target, "r") as handle:
        return parse_module(handle.read())


def render_stats(metadata):
    rows = (
        ("total_callsites", "application callsites"),
        ("direct_callsites", "  direct"),
        ("indirect_callsites", "  indirect"),
        ("sensitive_callsites", "sensitive syscall callsites"),
        ("sensitive_indirect_syscalls", "sensitive syscalls callable indirectly"),
        ("ctx_write_mem", "ctx_write_mem sites"),
        ("ctx_bind_mem", "ctx_bind_mem sites"),
        ("ctx_bind_const", "ctx_bind_const sites"),
        ("total_instrumentation", "total instrumentation sites"),
    )
    lines = ["BASTION compile of %s" % metadata.program, "-" * 48]
    for key, label in rows:
        lines.append("%-40s %6d" % (label, metadata.stats[key]))
    lines.append("-" * 48)
    used = sorted(metadata.call_types)
    lines.append("syscalls used (%d): %s" % (len(used), ", ".join(used)))
    sensitive_used = [n for n in used if n in metadata.sensitive_set]
    lines.append("sensitive & used (%d): %s" % (len(sensitive_used), ", ".join(sensitive_used)))
    lines.append("sensitive globals tracked: %d" % len(metadata.sensitive_globals))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.compiler",
        description="Run the BASTION compiler pass and inspect its output.",
    )
    parser.add_argument(
        "target",
        help="registered app (%s) or a textual-IR file" % "|".join(SYNTHETIC_APPS),
    )
    parser.add_argument(
        "--extend-fs",
        action="store_true",
        help="protect the §11.2 filesystem extension set too",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print Table 5-style statistics"
    )
    parser.add_argument(
        "--metadata",
        metavar="FILE",
        help="write the context metadata JSON ('-' for stdout)",
    )
    parser.add_argument(
        "--dump-ir",
        action="store_true",
        help="print the instrumented module's textual IR",
    )
    args = parser.parse_args(argv)

    module = load_target(args.target)
    artifact = BastionCompiler(extend_filesystem=args.extend_fs).compile(module)

    shown_anything = False
    if args.stats or not (args.metadata or args.dump_ir):
        print(render_stats(artifact.metadata))
        shown_anything = True
    if args.metadata:
        text = artifact.metadata.to_json()
        if args.metadata == "-":
            print(text)
        else:
            with open(args.metadata, "w") as handle:
                handle.write(text)
            print("metadata written to %s" % args.metadata)
        shown_anything = True
    if args.dump_ir:
        print(format_module(artifact.module))
        shown_anything = True
    return 0 if shown_anything else 1


if __name__ == "__main__":
    sys.exit(main())
