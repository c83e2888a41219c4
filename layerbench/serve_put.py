"""The process under test for the serve workload: ``repro serve``.

Launched by ``run.py``. Times the package import, optionally wraps every
traced layer (``--trace 1``), then runs the daemon exactly as the
``repro serve`` command would, with its default batching and worker
settings and both corpora preloaded. The daemon prints its listening
line when it is ready; on shutdown this process writes its spans to
``--spans``.
"""

from __future__ import annotations

import argparse
import sys
import time

from common import emit

#: Both paper corpora are preloaded; everything else is the default.
DAEMON_ARGS = ["serve", "--port", "0", "--datasets", "ua-detrac,night-street"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    from repro import cli

    emit("IMPORT", {"setup.import_s": time.perf_counter() - started})
    tracer = None
    if args.trace:
        from layers import all_layers, detector_layer
        from tracer import Tracer

        tracer = Tracer()
        tracer.install([detector_layer(), *all_layers()])
    try:
        return cli.main(DAEMON_ARGS)
    finally:
        if tracer is not None and args.spans:
            tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
