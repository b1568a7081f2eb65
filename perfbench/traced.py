"""Run one workload invocation with spans recorded.

    python perfbench/traced.py SUMMARY.json cli ARGS...
    python perfbench/traced.py SUMMARY.json fit ARGS...

Installs the tracer, runs ``bidisk.cli.main(ARGS)`` or the library
workload, writes the span summary to SUMMARY.json and exits with the
invocation's exit code.
"""

from __future__ import annotations

import sys

import tracer


def main(argv: list[str]) -> int:
    summary_path, kind, args = argv[0], argv[1], argv[2:]
    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        if kind == "cli":
            import bidisk.cli

            return bidisk.cli.main(args)
        if kind == "fit":
            import fit

            return fit.main(args)
        raise SystemExit(f"unknown invocation kind {kind!r}")
    finally:
        spans.write(summary_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
