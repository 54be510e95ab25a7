"""Start ``repro.serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/launcher.py --spans OUT.json -- [repro.serve arguments]

The wrappers from :mod:`tracer` are installed first; then the normal
``python -m repro.serve`` entry point runs with the given arguments.  When
the server stops (SIGINT), this process writes its spans to ``OUT.json``;
each engine worker process writes ``OUT.json.worker-<pid>.json`` as it
exits.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launcher.py --spans OUT.json -- [serve args]", file=sys.stderr)
        return 2
    spans_path = argv[1]
    serve_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer, worker_dump_prefix=spans_path)

    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
