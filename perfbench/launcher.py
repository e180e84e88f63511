"""Run ``python -m repro serve`` in this process, with bench-owned hooks.

    python3 perfbench/launcher.py --out DIR [--trace] [--cpu N] -- SERVE_ARGS...

The hooks never change what the server does.  One wrapper remembers the
``UpdateManager`` so the served φ can be written out at shutdown; with
``--trace`` the layer wrappers of :mod:`perfbench.layers` are installed
before the server starts, and ``SIGUSR1`` pauses or resumes recording.
``--cpu`` keeps the server (every thread it starts) on one CPU.
On exit (``SIGINT`` stops the server) ``DIR/server.json`` gets the peak
RSS over the post-import baseline, the update counters, and any spans;
``DIR/served.npz`` gets the served edge list and φ.
"""

import argparse
import json
import os
import signal
import sys

import numpy as np


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpu", type=int)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]

    from perfbench import hostinfo

    if args.cpu is not None:
        hostinfo.pin(args.cpu)

    from repro import cli
    from repro.server.updates import UpdateManager

    from perfbench.layers import QueryLinks, server_targets
    from perfbench.tracer import Tracer

    baseline_rss = hostinfo.peak_rss_bytes()
    managers = []
    attach = UpdateManager.attach

    def remember_attach(self, *call_args, **kwargs):
        managers.append(self)
        return attach(self, *call_args, **kwargs)

    UpdateManager.attach = remember_attach

    # A process started from a non-interactive shell's background job
    # inherits SIGINT as ignored, and Python then never raises
    # KeyboardInterrupt; the server's only clean stop is that exception.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = Tracer()
    links = QueryLinks()
    if args.trace:
        tracer.install(server_targets(links))

        def toggle(_signum, _frame):
            tracer.enabled = not tracer.enabled

        signal.signal(signal.SIGUSR1, toggle)
    else:
        tracer.enabled = False

    try:
        status = cli.main(["serve", *serve_args])
    finally:
        report = {
            "peak_rss_bytes": hostinfo.peak_rss_bytes() - baseline_rss,
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "links": links.to_dict(),
        }
        if managers:
            updates = managers[-1]
            report["updates"] = updates.stats()
            name = updates.registry.names()[0]
            artifact = updates.registry.get(name).artifact
            np.savez(
                os.path.join(args.out, "served.npz"),
                edge_upper=artifact.graph.edge_upper,
                edge_lower=artifact.graph.edge_lower,
                phi=artifact.phi,
                stale=artifact.stale,
            )
        with open(os.path.join(args.out, "server.json"), "w") as handle:
            json.dump(report, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
