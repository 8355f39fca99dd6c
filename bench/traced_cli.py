"""Run the riordan CLI with every public library callable traced.

    python3 bench/traced_cli.py SPANS_JSON verify --out FILE

Writes the spans to SPANS_JSON, and to SPANS_JSON.totals.json their totals,
the CPU time from entering ``cli.main`` to the first write on standard
output and the CPU time spent writing them; then exits with the CLI's own
exit code.
"""

from __future__ import annotations

import json
import sys
from time import process_time

from common import require_library


class FirstWrite:
    """A stream proxy that notes the process CPU time at the first write."""

    def __init__(self, stream):
        self.stream = stream
        self.first_cpu = None

    def write(self, text):
        if self.first_cpu is None and text:
            self.first_cpu = process_time()
        return self.stream.write(text)

    def __getattr__(self, name):
        return getattr(self.stream, name)


def main() -> int:
    require_library()
    import riordan.cli
    import tracing

    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    stdout = sys.stdout = FirstWrite(sys.stdout)
    tracer.active = True
    start = process_time()
    try:
        code = riordan.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout = stdout.stream
        tracer.uninstall()
    end = process_time()
    tracer.dump(path)
    summary = {
        "totals": tracer.totals(),
        "first_line_cpu_s": None if stdout.first_cpu is None else stdout.first_cpu - start,
    }
    # Writing the spans is not part of the traced run; the parent deducts it.
    summary["post_cpu_s"] = process_time() - end
    with open(path + ".totals.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
