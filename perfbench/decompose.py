"""The static-pipeline workloads: ``decompose-sparse`` and ``decompose-skew``.

One op takes the workload's edge chunks through the whole pipeline:

    edges_to_csr_chunked -> build_artifact(..., "bit-bu-csr")   (decompose_s)
    -> save_artifact(layout="dir") -> QueryEngine.load(mmap_mode="r")
                                                                 (index_s)

Ops repeat until the run's time is up (at least ``MIN_OPS``).  A host
speed probe runs before the first op and after every stage of every op
(after every op in a traced run), and each stage's times are scaled by the
probes on either side of it (:mod:`perfbench.hostinfo`); the reported
times are medians of the scaled samples.  Every op's φ must equal a dict ``bit-bu++`` reference computed
once per run, after the timed ops, and the mmap-loaded φ must equal the
in-memory one.
"""

import os
import shutil
import statistics
import tempfile
import time

import numpy as np

from perfbench import hostinfo, inputs, queries
from perfbench.layers import LAYERS, SPAN_METRICS, QueryLinks, core_targets
from perfbench.tracer import Tracer, summarize

#: Fewest ops a run makes, even past its time budget.
MIN_OPS = 5
#: Times the set-up (input generation) is repeated; its median is setup_s.
SETUP_REPEATS = 9
#: Reads made against each op's freshly loaded index, READ_GROUP to a call.
#: One ``QueryEngine.batch`` call answers a group: a single read is either
#: a cheap ``max_k`` or an output-linear community of any size, and the
#: median of that mix moved by 30-40% between runs, of single reads and of
#: groups of four alike.
READS_PER_OP = 200
READ_GROUP = 8
#: Compressed single-file saves (``save_artifact(layout="npz")``) per op,
#: the write samples.  A ``layout="dir"`` save takes about a millisecond of
#: file-system calls, and its median moved by up to 50% from one block of
#: 60 saves to the next with the host otherwise steady; the compressed
#: save spends its time in the CPU and held within 5%.
WRITES_PER_OP = 2


def pipeline_op(chunks, shape, workdir, graph_io, artifacts, engine_cls, reads,
                writes=WRITES_PER_OP, probes=None):
    """One pipeline pass, then reads and ``writes`` saves of its index.

    Returns a dict with ``start`` and ``decompose_s``, ``load_start`` and
    ``load_s`` (save plus load; ``index_s`` is the sum of the two stages),
    ``read_s`` and ``write_s`` (``(start, seconds)`` of each call answering
    a group of reads and of each compressed save), ``phi`` and ``error``.
    With ``probes``, a probe follows every stage, so each stage sits between
    two probes when the caller has taken one just before the op.
    """

    def probe():
        if probes is not None:
            probes.take()

    start = time.perf_counter()
    graph = graph_io.edges_to_csr_chunked(
        chunks, num_upper=shape["upper"], num_lower=shape["lower"]
    )
    artifact = artifacts.build_artifact(graph, "bit-bu-csr")
    decomposed = time.perf_counter()
    probe()
    load_start = time.perf_counter()
    artifacts.save_artifact(artifact, workdir, layout="dir")
    engine = engine_cls.load(workdir, mmap_mode="r")
    loaded = time.perf_counter()
    probe()
    result = {
        "start": start,
        "decompose_s": decomposed - start,
        "load_start": load_start,
        "load_s": loaded - load_start,
        "write_s": [],
        "read_s": [],
        "phi": np.array(artifact.phi),
        "error": None,
    }
    if not np.array_equal(np.asarray(engine.phi), artifact.phi):
        result["error"] = "mmap-loaded phi differs from the in-memory phi"
    # Reads on the loaded index, after touching every mapped page once: a
    # cold query cache, but no first-touch page faults, whose cost follows
    # the host's page cache rather than the program.
    for array in (*engine.graph.csr_upper(), *engine.graph.csr_lower(), engine.phi):
        np.asarray(array).sum()
    batches = list(reads(engine.graph, result["phi"]))
    for batch in batches:
        begin = time.perf_counter()
        engine.batch(batch)
        result["read_s"].append((begin, time.perf_counter() - begin))
    del engine
    shutil.rmtree(workdir)
    if batches and writes:
        probe()
    for _ in range(writes):
        begin = time.perf_counter()
        artifacts.save_artifact(artifact, f"{workdir}.npz", layout="npz")
        result["write_s"].append((begin, time.perf_counter() - begin))
        os.remove(f"{workdir}.npz")
    if writes:
        probe()
    return result


def draw_reads(graph, phi, rng, pick_edge, calls):
    """``calls`` groups of READ_GROUP reads of the mix on ``graph``."""
    targets = queries.Targets(graph.edge_upper, graph.edge_lower, phi)
    return [
        [
            query
            for _ in range(READ_GROUP)
            for query in queries.next_read(rng, targets, pick_edge)[1]
        ]
        for _ in range(calls)
    ]


def scaled_times(op, probes):
    """An op's times, each stage scaled by the probes around it: the
    pipeline by the ``python`` kernel, reads and compressed saves by
    ``zlib``, the kernels whose readings their raw times followed."""
    factor = probes.factor
    decompose_s = op["decompose_s"] * factor(op["start"])
    return {
        "decompose_s": decompose_s,
        "index_s": decompose_s + op["load_s"] * factor(op["load_start"]),
        "read_s": [t * factor(start, "zlib") for start, t in op["read_s"]],
        "write_s": [t * factor(start, "zlib") for start, t in op["write_s"]],
    }


def run(workload, seed, seconds, trace, out_root):
    from repro.core.api import bitruss_decomposition
    from repro.graph import generators
    from repro.graph import io as graph_io
    from repro.service import artifacts
    from repro.service.engine import QueryEngine

    # One CPU for the whole run, so the probes see the CPU the ops run on.
    cpu = hostinfo.cpus()[0]
    hostinfo.pin(cpu)
    baseline_rss = hostinfo.peak_rss_bytes()
    shape = inputs.SHAPES[workload]
    tracer = Tracer() if trace else None
    links = QueryLinks()

    # Set-up: generate the edge chunks several times, each between two
    # probes; setup_s is the median of the scaled times.
    probes = hostinfo.Probes(cpu)
    setup_times = []  # (start, seconds)
    generate_times = []

    def timed_generator(*args, **kwargs):
        begin = time.perf_counter()
        chunks = list(generators.chung_lu_edge_chunks(*args, **kwargs))
        generate_times.append(time.perf_counter() - begin)
        return chunks

    probes.take()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        chunks, logical = inputs.make_chunks(timed_generator, shape, seed)
        setup_times.append((start, time.perf_counter() - start))
        probes.take()

    read_batches = []

    def reads(graph, phi):
        """The same reads for every op and every seed: drawn once from the
        shape's logical edges and named with this seed's labels.  Reads
        drawn afresh per seed moved the run's median by up to 0.3, because
        read costs range over two orders of magnitude."""
        if not read_batches:
            eid_of = {
                pair: eid
                for eid, pair in enumerate(
                    zip(graph.edge_upper.tolist(), graph.edge_lower.tolist())
                )
            }

            def pick_edge(rng):
                u, v = logical[int(rng.integers(len(logical)))]
                return eid_of[int(u), int(v)]

            rng = np.random.default_rng([shape["shape_seed"], 1])
            read_batches.extend(
                draw_reads(graph, phi, rng, pick_edge, READS_PER_OP // READ_GROUP)
            )
        return read_batches

    def warm_reads(graph, phi):
        def pick_edge(rng):
            return int(rng.integers(graph.num_edges))

        return draw_reads(graph, phi, np.random.default_rng(0), pick_edge, 4)

    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=out_root)
    try:
        # Warm-up on a small slice: imports, first-call paths, page cache.
        pipeline_op(
            [chunks[0][:2000]], {"upper": None, "lower": None},
            os.path.join(work, "warm"), graph_io, artifacts, QueryEngine,
            warm_reads,
        )

        steal_start = hostinfo.cpu_ticks()
        probes.take()
        ops = []
        traced_decompose, untraced_decompose = [], []
        per_op_layers = []
        deadline = time.perf_counter() + seconds
        min_ops = 2 * MIN_OPS if trace else MIN_OPS
        while len(ops) < min_ops or time.perf_counter() < deadline:
            # A traced run alternates untraced and traced ops, so the
            # difference between the two is the tracing overhead.
            traced = trace and len(ops) % 2 == 1
            if traced:
                tracer.install(core_targets(links.on_query))
                first_span = len(tracer.spans)
                counts_before = dict(tracer.counts)
                root = tracer.begin("bench.op")
            try:
                # A traced run probes between ops only, to keep the probe
                # out of the traced op's root span.
                op = pipeline_op(
                    chunks, shape, os.path.join(work, f"op{len(ops)}"),
                    graph_io, artifacts, QueryEngine, reads,
                    probes=None if trace else probes,
                )
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                op = {"error": f"{type(exc).__name__}: {exc}"}
            finally:
                if traced:
                    tracer.end(root)
                    tracer.uninstall()
            if trace or "decompose_s" not in op:
                probes.take()
            if traced:
                per_op_layers.append(
                    _op_layers(tracer, first_span, counts_before)
                )
            if "decompose_s" in op:
                (traced_decompose if traced else untraced_decompose).append(
                    op["decompose_s"] * probes.factor(op["start"])
                )
            ops.append(op)
            if len(ops) == MIN_OPS:
                # Over a fixed number of ops: the peak crept up with the
                # number of ops, which follows the host's speed.
                peak_rss = hostinfo.peak_rss_bytes() - baseline_rss
        steal = hostinfo.steal_share(steal_start, hostinfo.cpu_ticks())

        # Reference: the paper's dict BE-Index with BiT-BU++, once per run,
        # outside every timed window.
        graph = graph_io.edges_to_csr_chunked(
            chunks, num_upper=shape["upper"], num_lower=shape["lower"]
        )
        reference = np.asarray(bitruss_decomposition(graph, "bit-bu++").phi)
        for op in ops:
            if op["error"] is None and not np.array_equal(op["phi"], reference):
                op["error"] = "phi differs from the bit-bu++ reference"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    done = [op for op in ops if "decompose_s" in op]
    errors = [op["error"] for op in ops if op["error"] is not None]
    raw_decompose = [op["decompose_s"] for op in done]
    scaled = [scaled_times(op, probes) for op in done]
    decompose_times = [op["decompose_s"] for op in scaled]
    read_s = [t for op in scaled for t in op["read_s"]]
    write_s = [t for op in scaled for t in op["write_s"]]
    # Generating the chunks is numpy work, which slows like the zlib
    # kernel, not like the interpreter.
    setup_s = [t * probes.factor(start, "zlib") for start, t in setup_times]
    diagnostics = {
        "ops": len(ops),
        "op_decompose_s": raw_decompose,
        "op_factor": [probes.factor(op["start"]) for op in done],
        "op_spread": hostinfo.spread(raw_decompose),
        "op_spread_scaled": hostinfo.spread(decompose_times),
        "raw_decompose_s": statistics.median(raw_decompose) if done else None,
        "raw_read_p50_s": statistics.median(
            t for op in done for _start, t in op["read_s"]
        ) if done else None,
        "probe": hostinfo.probe_summary(probes),
        "read_quantiles_s": hostinfo.tail(read_s),
        "steal_share": steal,
        "setup_repeats_s": [t for _start, t in setup_times],
        "errors": errors[:5],
    }
    if trace:
        tracer.dump(os.path.join(out_root, f"spans-{workload}-seed{seed}.json"))
        metrics = _layer_metrics(
            per_op_layers, generate_times, traced_decompose, untraced_decompose,
            len(tracer.spans),
        )
        metrics["service.cache_hit_ratio"] = links.hit_ratio()
    elif done:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "decompose_s": statistics.median(decompose_times),
            "index_s": statistics.median(op["index_s"] for op in scaled),
            "read_p50_s": statistics.median(read_s),
            "write_p50_s": statistics.median(write_s),
            "peak_rss_bytes": peak_rss,
        }
    else:
        metrics = {}
    return {
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": metrics,
        "diagnostics": diagnostics,
    }


def _op_layers(tracer, first_span, counts_before):
    """Per-layer numbers of one traced op (the spans since ``first_span``)."""
    spans = tracer.spans[first_span:]
    # Re-base parent indices onto the slice.
    spans = [
        [name, start, end, None if parent is None else parent - first_span]
        for name, start, end, parent in spans
    ]
    calls, self_s, coverage = summarize(spans)
    layer = {
        metric: sum(calls.get(span, ())) for span, metric in SPAN_METRICS.items()
    }
    for name in LAYERS:
        layer[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name, total in tracer.counts.items():
        layer[name] = total - counts_before.get(name, 0)
    layer["trace.coverage"] = coverage
    return layer


def _layer_metrics(per_op, generate_times, traced, untraced, num_spans):
    keys = set().union(*per_op)
    metrics = {
        key: statistics.median(op.get(key, 0) for op in per_op) for key in keys
    }
    metrics["graph.generate_s"] = statistics.median(generate_times)
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0
    )
    metrics["trace.spans"] = num_spans
    return metrics
