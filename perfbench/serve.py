"""The mutable-serving workload: ``serve-mutable``.

Set-up writes a ~50k-edge sparse Chung–Lu artifact (directory layout) to
disk, untimed.  The real server then runs in a child process,
``python -m repro serve --artifact ... --mmap --mutable --port 0``,
started through :mod:`perfbench.launcher`.  ``setup_s`` is the median
time-to-ready (spawn until the first ``/healthz`` 200) over
``SETUP_REPEATS`` launches; the last launch serves the load.  Between
launches the served graph also goes ``STATIC_OPS`` times through the
static pipeline of :mod:`perfbench.decompose`; their medians are this
workload's ``decompose_s`` and ``index_s``, the cost of one full rebuild
of the served graph.  Every launch, pass and write pair sits between two
host speed probes, and every time is scaled by them
(:mod:`perfbench.hostinfo`).  The server runs pinned to one CPU and this
process to another; the probes of server-side work run on the server's.

The load is a closed loop from this one thread on two keep-alive
connections, one for writes and one for reads, taking turns:

* writes are seeded 8-op ``/edges`` batches: one batch deletes 8 edges,
  the next reinserts them, so the graph is the same after every pair.  A
  write is timed from sending the POST until the batch is visible: at its
  response when the server answers ``incremental``, or at the first
  ``/datasets`` poll that shows ``stale: false`` when it answers
  ``scheduled`` (a debounced fallback rebuild);
* ``READS_PER_WRITE`` reads of the seeded, degree-biased mix of
  :mod:`perfbench.queries` follow every write, never touching an edge
  that is deleted at the time.

Reads and writes never overlap: run concurrently, a read's latency was
mostly its wait for the interpreter lock behind the server's write work,
which follows the lock's switch interval, not the program or the host.

At the end the served φ must equal a fresh ``bit-bu-csr`` decomposition
of the final edge set, and the final edge set must equal the initial one.
"""

import bisect
import http.client
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from perfbench import decompose, hostinfo, inputs, queries
from perfbench.layers import LAYERS, SPAN_METRICS
from perfbench.tracer import summarize

DATASET = "graph"
#: Server launches per run; setup_s is their median time-to-ready.
SETUP_REPEATS = 5
#: Ops per write batch.
WRITE_OPS = 8
#: Every HUB_EVERY-th write pair touches hub edges (a fallback rebuild);
#: the others touch edges whose endpoints both have degree 2..QUIET_DEGREE
#: (repaired in place).  One hub pair in HUB_EVERY pairs is the fallback
#: share that plain uniform 8-edge pairs got on this graph in most runs
#: (see README.md), made the same in every run.
HUB_EVERY = 5
QUIET_DEGREE = 8
#: Hub pairs take turns over this many edges with the largest endpoint
#: degree sums, WRITE_OPS at a time, so every run removes the same hub
#: edges (up to relabelling) and its fallbacks cost the same.
HUB_EDGES = 64
#: Reads made after every write, while no write is in flight.
READS_PER_WRITE = 20
POLL_S = 0.005
READY_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 60.0
#: Static-pipeline passes over the served graph (median -> decompose_s).
STATIC_OPS = 8

_SERVING = re.compile(rb"serving \d+ dataset\(s\) on http://[^:\s]+:(\d+)")


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port):
        self.port = port
        self.conn = None

    def call(self, method, path, body=None, trace_id=None):
        """``(status, parsed JSON body)``; raises on a dropped connection."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        headers = {"X-Trace-Id": trace_id} if trace_id else {}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self.conn.request(method, path, payload, headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, json.loads(data) if data else None

    def close(self):
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Server:
    """One launched server process and its output directory."""

    def __init__(self, artifact_dir, out_dir, trace, cpu):
        os.makedirs(out_dir)
        self.out_dir = out_dir
        self.log_path = os.path.join(out_dir, "server.log")
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
        command = [sys.executable, launcher, "--out", out_dir]
        if trace:
            command.append("--trace")
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        command += [
            "--", "--artifact", f"{DATASET}={artifact_dir}", "--mmap",
            "--mutable", "--host", "127.0.0.1", "--port", "0",
        ]
        self._log = open(self.log_path, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=self._log, stderr=subprocess.STDOUT)
        self.port = None

    def log_tail(self):
        with open(self.log_path, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def wait_ready(self):
        """Seconds from spawn until the first ``/healthz`` 200."""
        while time.perf_counter() - self.started < READY_TIMEOUT_S:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server exited with {self.proc.returncode}: {self.log_tail()}"
                )
            if self.port is None:
                with open(self.log_path, "rb") as handle:
                    match = _SERVING.search(handle.read())
                if match:
                    self.port = int(match.group(1))
            if self.port is not None:
                client = Client(self.port)
                try:
                    status, _body = client.call("GET", "/healthz")
                except OSError:
                    status = None
                finally:
                    client.close()
                if status == 200:
                    return time.perf_counter() - self.started
            time.sleep(POLL_S)
        raise RuntimeError(f"server not ready after {READY_TIMEOUT_S}s")

    def stop(self):
        """SIGINT, then wait; a server that hangs is killed and reported."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("server did not stop on SIGINT")
        finally:
            self._log.close()
        return self.proc.returncode

    def report(self):
        with open(os.path.join(self.out_dir, "server.json")) as handle:
            report = json.load(handle)
        with np.load(os.path.join(self.out_dir, "served.npz")) as served:
            report["served"] = {key: served[key] for key in served.files}
        return report


class Load:
    """The closed loop and what it observed: one thread, two keep-alive
    connections (one for writes, one for reads), taking turns."""

    def __init__(self, port, seed, edge_upper, edge_lower, phi, probes,
                 on_cycle=None):
        self.port = port
        self.probes = probes
        self.edge_upper = edge_upper
        self.edge_lower = edge_lower
        self.targets = queries.Targets(edge_upper, edge_lower, phi)
        self.read_rng = np.random.default_rng([seed, 1])
        self.write_rng = np.random.default_rng([seed, 2])
        #: ``on_cycle()`` runs as each writer cycle starts.
        self.on_cycle = on_cycle
        self.min_cycles = 1 if on_cycle is None else 2
        self.cycle_starts = []
        self.deleted = set()  # edge ids the last write deleted
        self.reads = []  # (start, latency, trace id)
        self.writes = []  # (start, latency, mode, trace id)
        self.errors = []
        self.attempted = 0
        self.serial = 0
        deg_upper = np.bincount(edge_upper)[edge_upper]
        deg_lower = np.bincount(edge_lower)[edge_lower]
        tie_break = self.write_rng.permutation(len(edge_upper))
        self.hub_edges = np.lexsort((tie_break, -(deg_upper + deg_lower)))[:HUB_EDGES]
        self.quiet_edges = np.flatnonzero(
            (np.minimum(deg_upper, deg_lower) >= 2)
            & (np.maximum(deg_upper, deg_lower) <= QUIET_DEGREE)
        )

    def cycle_of(self, moment):
        """The writer cycle running at ``moment`` (-1 before the first)."""
        return bisect.bisect_right(self.cycle_starts, moment) - 1

    def _trace_id(self, prefix):
        self.serial += 1
        return f"{prefix}{self.serial:015x}"

    def _read(self, client):
        def pick(rng):
            while True:
                eid = int(rng.integers(len(self.edge_upper)))
                if eid not in self.deleted:
                    return eid

        kind, batch = queries.next_read(self.read_rng, self.targets, pick)
        method, path, body = queries.http_request(DATASET, kind, batch)
        trace_id = self._trace_id("a")
        self.attempted += 1
        start = time.perf_counter()
        try:
            status, _reply = client.call(method, path, body, trace_id)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self.errors.append(f"read {path}: {type(exc).__name__}: {exc}")
            return
        latency = time.perf_counter() - start
        if 200 <= status < 300:
            self.reads.append((start, latency, trace_id))
        else:
            self.errors.append(f"read {path}: HTTP {status}")

    def _write(self, client, kind, eids):
        ops = [
            {"op": kind, "u": int(self.edge_upper[e]), "v": int(self.edge_lower[e])}
            for e in eids
        ]
        trace_id = self._trace_id("b")
        self.attempted += 1
        start = time.perf_counter()
        try:
            status, reply = client.call(
                "POST", f"/{DATASET}/edges", {"ops": ops}, trace_id
            )
            if not 200 <= status < 300:
                raise RuntimeError(f"HTTP {status}: {reply}")
            if reply.get("applied") != len(ops):
                raise RuntimeError(f"applied {reply.get('applied')} of {len(ops)}")
            mode = reply["rebuild"]
            if mode == "scheduled":
                while True:
                    status, listing = client.call("GET", "/datasets")
                    if status != 200:
                        raise RuntimeError(f"/datasets: HTTP {status}")
                    if not any(d["name"] == DATASET and d["stale"] for d in listing):
                        break
                    time.sleep(POLL_S)
        except (OSError, http.client.HTTPException, ValueError, RuntimeError) as exc:
            self.errors.append(f"{kind} batch: {type(exc).__name__}: {exc}")
            return False
        self.writes.append((start, time.perf_counter() - start, mode, trace_id))
        return True

    def run(self, seconds):
        """Whole cycles of HUB_EVERY write pairs, until ``seconds`` have
        passed; READS_PER_WRITE reads follow every write.  A probe of the
        server's CPU starts every pair, while the server has nothing in
        flight."""
        writer, reader = Client(self.port), Client(self.port)
        deadline = time.perf_counter() + seconds
        try:
            for pair in itertools.count():
                if pair % HUB_EVERY == 0:
                    cycle = pair // HUB_EVERY
                    if cycle >= self.min_cycles and time.perf_counter() >= deadline:
                        return
                    if self.on_cycle is not None:
                        self.on_cycle()
                    self.cycle_starts.append(time.perf_counter())
                self.probes.take()
                if pair % HUB_EVERY == HUB_EVERY - 1:
                    turn = (pair // HUB_EVERY) % (HUB_EDGES // WRITE_OPS)
                    eids = self.hub_edges[turn * WRITE_OPS:(turn + 1) * WRITE_OPS]
                else:
                    eids = self.write_rng.choice(
                        self.quiet_edges, WRITE_OPS, replace=False
                    )
                for kind in ("delete", "insert"):
                    if not self._write(writer, kind, eids):
                        # The graph may now differ from the initial one;
                        # stop, and let the final checks report it.
                        return
                    if kind == "delete":
                        self.deleted = {int(e) for e in eids}
                    else:
                        self.deleted = set()
                    for _ in range(READS_PER_WRITE):
                        self._read(reader)
        finally:
            self.probes.take()
            writer.close()
            reader.close()


def _settle(port):
    """Wait until no rebuild is pending and the served data is fresh."""
    client = Client(port)
    try:
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while time.perf_counter() < deadline:
            _status, metrics = client.call("GET", "/metrics")
            _status, listing = client.call("GET", "/datasets")
            pending = metrics["updates"][DATASET]["pending_rebuild"]
            if not pending and not any(d["stale"] for d in listing):
                return metrics
            time.sleep(POLL_S)
        raise RuntimeError("served dataset still stale at the end of the run")
    finally:
        client.close()


def run(workload, seed, seconds, trace, out_root):
    from repro.graph import generators
    from repro.graph import io as graph_io
    from repro.service import artifacts
    from repro.service.engine import QueryEngine

    shape = inputs.SHAPES[workload]
    # The server on one CPU, this process (its reader and writer threads
    # too) on another, so each side's probes see the CPU its work runs on.
    cpus = hostinfo.cpus()
    client_cpu, server_cpu = (cpus[0], cpus[-1]) if len(cpus) > 1 else (None, None)
    if client_cpu is not None:
        hostinfo.pin(client_cpu)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root)
    servers = []
    try:
        # Untimed set-up: the served artifact on disk.
        chunks, _logical = inputs.make_chunks(
            generators.chung_lu_edge_chunks, shape, seed
        )
        graph = graph_io.edges_to_csr_chunked(
            chunks, num_upper=shape["upper"], num_lower=shape["lower"]
        )
        artifact = artifacts.build_artifact(graph, "bit-bu-csr")
        artifact_dir = os.path.join(work, "artifact")
        artifacts.save_artifact(artifact, artifact_dir, layout="dir")
        edge_upper = np.array(graph.edge_upper)
        edge_lower = np.array(graph.edge_lower)
        phi = np.array(artifact.phi)
        del graph, artifact

        # Static-pipeline passes over the served graph (decompose_s and
        # index_s), interleaved with the server launches (setup_s) so a
        # slow spell of the host does not land on one metric alone.
        static_ops = 0 if trace else STATIC_OPS
        launches = 1 if trace else SETUP_REPEATS
        static, ready_times = [], []  # ready_times: (start, seconds)
        client_probes = hostinfo.Probes(client_cpu)
        probes = hostinfo.Probes(server_cpu)
        for step in range(max(static_ops, launches)):
            if step < static_ops:
                client_probes.take()
                static.append(decompose.pipeline_op(
                    chunks, shape, os.path.join(work, f"static{step}"),
                    graph_io, artifacts, QueryEngine, lambda graph, phi: (), 0,
                    client_probes,
                ))
            if step >= max(static_ops, launches) - launches:
                probes.take()
                server = Server(
                    artifact_dir, os.path.join(work, f"server{step}"), trace,
                    server_cpu,
                )
                servers.append(server)
                ready_times.append((server.started, server.wait_ready()))
                probes.take()
                if len(ready_times) < launches:
                    server.stop()

        steal_start = hostinfo.cpu_ticks()
        on_cycle = None
        if trace:
            # Recording covered start-up.  SIGUSR1 toggles it: paused for
            # writer cycle 0, then on for the odd cycles and off for the
            # even ones, so traced and untraced load alternate.
            def on_cycle():
                server.proc.send_signal(signal.SIGUSR1)

        load = Load(server.port, seed, edge_upper, edge_lower, phi, probes, on_cycle)
        load.run(seconds)
        steal = hostinfo.steal_share(steal_start, hostinfo.cpu_ticks())
        final_metrics = _settle(server.port)
        server.stop()
        report = server.report()
        if trace:
            shutil.copy(
                os.path.join(server.out_dir, "server.json"),
                os.path.join(out_root, f"spans-{workload}-seed{seed}.json"),
            )

        # Final checks: same edge set as at the start, and the served φ
        # equals a fresh decomposition of it.
        served = report["served"]
        order = np.lexsort((served["edge_lower"], served["edge_upper"]))
        final_upper = served["edge_upper"][order]
        final_lower = served["edge_lower"][order]
        served_phi = served["phi"][order]
        initial = np.lexsort((edge_lower, edge_upper))
        checks = []
        if not (
            np.array_equal(final_upper, edge_upper[initial])
            and np.array_equal(final_lower, edge_lower[initial])
        ):
            checks.append("final edge set differs from the initial one")
        final_chunks = [np.stack((final_upper, final_lower), axis=1)]
        verify = decompose.pipeline_op(
            final_chunks, shape, os.path.join(work, "verify"),
            graph_io, artifacts, QueryEngine, lambda graph, phi: (), 0,
        )
        for op in static + [verify]:
            if op["error"] is not None:
                checks.append(op["error"])
        if any(not np.array_equal(op["phi"], phi) for op in static):
            checks.append("a static pass differs from the served artifact's phi")
        if verify["error"] is None and not np.array_equal(verify["phi"], served_phi):
            checks.append("served phi differs from a fresh bit-bu-csr decomposition")
    finally:
        for server in servers:
            if server.proc.poll() is None:
                server.proc.kill()
                server.proc.wait()
        shutil.rmtree(work, ignore_errors=True)

    errors = load.errors + checks
    factor = probes.factor
    static_s = [decompose.scaled_times(op, client_probes) for op in static]
    # Served reads and writes slow like the zlib kernel on the server's
    # CPU: over 30 runs their raw medians grew with its reading at log-log
    # slopes of 1.07 and 1.17, and with the python kernel's at 0.5-0.6.
    read_s = [lat * factor(start, "zlib") for start, lat, _tid in load.reads]
    write_s = [lat * factor(start, "zlib") for start, lat, _m, _t in load.writes]
    scheduled = sum(mode == "scheduled" for _s, _l, mode, _t in load.writes)
    raw_writes = [latency for _start, latency, _mode, _tid in load.writes]
    diagnostics = {
        "reads": len(read_s),
        "writes": len(write_s),
        "scheduled_writes": scheduled,
        "probe": hostinfo.probe_summary(probes),
        "client_probe": hostinfo.probe_summary(client_probes),
        "read_quantiles_s": hostinfo.tail(read_s),
        "write_s_by_mode": {
            mode: sorted(lat for _s, lat, m, _t in load.writes if m == mode)
            for mode in ("incremental", "scheduled")
        },
        "op_spread": hostinfo.spread(raw_writes),
        "op_spread_scaled": hostinfo.spread(write_s),
        "raw_read_p50_s": statistics.median(lat for _s, lat, _t in load.reads)
        if load.reads else None,
        "raw_write_p50_s": statistics.median(raw_writes) if raw_writes else None,
        "steal_share": steal,
        "ready_s": [seconds for _start, seconds in ready_times],
        "static_decompose_s": [op["decompose_s"] for op in static],
        "updates": report.get("updates"),
        "errors": errors[:5],
    }
    if trace:
        metrics = _layer_metrics(report, load, final_metrics, scheduled)
    else:
        metrics = {
            "setup_s": statistics.median(
                seconds * factor(start) for start, seconds in ready_times
            ),
            "decompose_s": statistics.median(op["decompose_s"] for op in static_s),
            "index_s": statistics.median(op["index_s"] for op in static_s),
            "read_p50_s": statistics.median(read_s),
            "write_p50_s": statistics.median(write_s),
            "peak_rss_bytes": report["peak_rss_bytes"],
        }
    return {
        "correct": not errors,
        "attempted": load.attempted + 1,  # + the final served-φ check
        "failed": len(load.errors) + bool(checks),
        "metrics": metrics,
        "diagnostics": diagnostics,
    }


def _layer_metrics(report, load, final_metrics, scheduled):
    spans = report["spans"]
    calls, self_s, _coverage = summarize(spans)
    metrics = {
        metric: statistics.median(calls[span]) if calls.get(span) else 0.0
        for span, metric in SPAN_METRICS.items()
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    counts = report["counts"]
    links = report["links"]
    for name in ("core.blooms", "core.bloom_pairs", "utils.queue_batches",
                 "utils.queue_updates"):
        metrics[name] = counts.get(name, 0)
    lookups = links["hits"] + links["misses"]
    metrics["service.cache_hit_ratio"] = links["hits"] / lookups if lookups else 0.0
    regions = links["regions"]
    metrics["maintenance.region_edges"] = statistics.fmean(regions) if regions else 0.0
    metrics["maintenance.fallback_ratio"] = scheduled / max(1, len(load.writes))
    coalescer = final_metrics.get("coalescer") or {}
    metrics["server.coalesced_ratio"] = coalescer.get("merged", 0) / max(
        1, coalescer.get("submitted", 0)
    )

    def traced(start):
        cycle = load.cycle_of(start)
        return cycle > 0 and cycle % 2 == 1

    # Reads joined to the engine span they triggered, by trace id.
    by_trace = links["by_trace"]
    waits = [
        latency - by_trace[tid]
        for start, latency, tid in load.reads
        if traced(start) and tid in by_trace
    ]
    metrics["server.read_wait_s"] = statistics.median(waits) if waits else 0.0
    # Coverage: the share of traced client-op time during which a server
    # root span was open (both clocks are the system monotonic clock).
    windows = [
        (start, start + latency)
        for start, latency, *_rest in load.reads + load.writes
        if traced(start)
    ]
    roots = [
        (start / 1e9, end / 1e9)
        for _name, start, end, parent in spans
        if parent is None and end is not None
    ]
    metrics["trace.coverage"] = _covered(windows, roots) / sum(
        end - start for start, end in windows
    )
    # Overhead: incremental writes (the span-densest path) in the traced
    # cycles against those in the untraced cycles between them.
    incremental = [
        (traced(start), latency * load.probes.factor(start, "zlib"))
        for start, latency, mode, _tid in load.writes
        if mode == "incremental"
    ]
    metrics["trace.overhead_ratio"] = (
        statistics.median(lat for traced, lat in incremental if traced)
        / statistics.median(lat for traced, lat in incremental if not traced)
        - 1.0
    )
    metrics["trace.spans"] = len(spans)
    return metrics


def _covered(windows, intervals):
    """Total length of ``windows`` covered by the union of ``intervals``."""
    merged = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    total = 0.0
    for w_start, w_end in windows:
        for start, end in merged:
            if start >= w_end:
                break
            if end > w_start:
                total += min(end, w_end) - max(start, w_start)
    return total
