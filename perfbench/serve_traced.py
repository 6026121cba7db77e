"""Run ``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/serve_traced.py LAYERS.json [serve options...]

Installs the wrappers of :mod:`tracer`, then calls
``repro.cli.main(["serve", ...])``.  When the server stops (SIGINT), the
layer metrics are written to LAYERS.json; the spans stay in memory until then.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    code = cli_main(["serve", *argv[1:]])
    roots = [(thread, start, end) for layer, thread, start, end in tracer.spans if layer == "http.handler"]
    tracer.dump(argv[0], roots)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
