"""Start ``repro.cli serve`` with every layer's entry points wrapped in spans.

Usage: ``python perfbench/traced_serve.py --spans OUT.json serve [flags...]``

The wrappers are installed on the classes before the ``serve`` entry point
runs, so the service is the default one with spans recorded around each
layer boundary.  Spans stay in memory and are written to ``OUT.json`` on
SIGUSR1, which the benchmark sends once its load has ended and before it
stops the server with SIGINT (``serve`` leaves through ``os._exit``, so an
exit hook would never run).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import tracing  # noqa: E402  (perfbench/ is this script's directory)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans on exit")
    args, serve_argv = parser.parse_known_args()
    from repro.cli import main as cli_main

    recorder = tracing.Recorder()
    tracing.install(recorder)
    signal.signal(signal.SIGUSR1, lambda *_: recorder.dump(args.spans))
    return cli_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main())
