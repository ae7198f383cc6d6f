"""Run one dpcp command with the benchmark's tracer installed.

    python3 bench/traced_cli.py SPANS_JSON T0 <dpcp arguments>

T0 is the caller's time.perf_counter() taken just before it started this
process. On Linux that clock is system-wide, so the span cli.startup covers
interpreter start and imports. The spans are written to SPANS_JSON at exit.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from tracing import Tracer  # noqa: E402
from dpcp import cli  # noqa: E402


def main() -> int:
    path, t0, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    with tracer.span("cli.startup", start=t0):
        pass
    rc = cli.dispatch(argv)
    tracer.dump(path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
