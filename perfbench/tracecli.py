"""Traced stand-in for `python -m graphcalc.cli`, one process per invocation.

    PYTHONPATH=src python3 perfbench/tracecli.py LAYERS_JSON ARGV...

Installs the layer wrappers, runs `graphcalc.cli.main(ARGV)` and writes the
per-layer totals to LAYERS_JSON, also when the command escapes with an
exception, which then propagates exactly as it would from the plain CLI.
"""

import json
import sys

from layertrace import LayerTracer


def main():
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = LayerTracer()
    tracer.install()
    import graphcalc.cli

    try:
        code = graphcalc.cli.main(argv)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
