"""Child entry point for the traced ``cli`` workload.

Times ``import repro.cli``, wraps the program's layer boundaries, calls
``repro.cli.main(argv)`` and writes the spans to ``SPANS_OUT``::

    python3 perfbench/cli_child.py SPANS_OUT recommend --database ...

It is spawned by the benchmark with ``src/`` and the checkout root on
``PYTHONPATH``; the exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

from perfbench.tracing import SpanLog, install


def main(argv: list[str]) -> int:
    spans_out, cli_argv = argv[0], argv[1:]
    log = SpanLog()
    span = log.begin("import")
    import repro.cli
    log.end(span)
    wrappers = install(log)
    try:
        code = repro.cli.main(cli_argv)
    finally:
        wrappers.uninstall()
    with open(spans_out, "w") as out:
        json.dump({"spans": log.take(), "missing": wrappers.missing}, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
