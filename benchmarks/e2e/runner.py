"""The run protocol: one workload, one seed, tracing off or on.

Untraced run (end-to-end metrics): generate inputs -> (set-up, cold
pass) twice -> warm-up passes -> timed window -> read peak memory ->
(set-up, cold pass) once more -> tear down -> verify every op against
the oracle.  Set-up and cold-pass time are the medians of their reps.

Traced run (per-layer metrics): set-up once -> cold pass -> warm-up ->
a short untraced segment (counters, tracing-overhead base; for a served
workload also the open loop at its fixed rate) -> the traced walk ->
counter pass, engine-trace pass, probes -> tear down -> verify.

The timed window runs whole passes until ``--seconds`` have elapsed, so
every template is sampled equally often; which ops a pass holds is a
pure function of the seed and the pass index.  Every op of the window is
a latency sample; none is filtered.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import os
import shutil
import signal
import tempfile
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.approx import maybe_rewrite
from repro.query.translate import translate
from repro.sql.binder import bind
from repro.sql.parser import parse
from repro.xcution.plan import build_plan
from repro.xcution.yannakakis import execute_plan

from . import layers, metrics, procs, stats
from .schedule import Op, Record, due_offsets, run_open_loop
from .spans import SpanRecorder, child_coverage
from .workloads import WORKLOADS

#: set-up and the cold pass after it are measured this many times per run,
#: twice before the timed window and the rest after it: spread over the
#: run so that one slow spell of the host does not cover them all.  The
#: median is reported.
SETUP_REPS = 3
#: untimed passes before any window: enough for every value the prepared
#: statement rotates through to have been compiled once.
WARMUP_PASSES = 4
#: ``--inject-slowdown`` stretches the named template's ops by this factor.
SLOWDOWN_FACTOR = 10.0
#: a run that is still going after this long is cut off: the ops of the
#: pass in flight that were never run are recorded as failed and the run
#: reports what it has.
HARD_TIMEOUT_S = 150.0
#: shares of ``--seconds`` in a traced run: untraced segment, then the walk.
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.5
MIN_TRACED_PASSES = 3

clock = time.perf_counter


class WorkloadTimeout(BaseException):
    """Raised in the main thread by the watchdog alarm.

    Not an ``Exception``: a broad ``except`` inside the program under test
    must not swallow the one alarm a run gets.
    """


@contextlib.contextmanager
def watchdog(seconds: float):
    """One alarm after ``seconds``; disarmed, whatever happened, on the way out."""

    def on_alarm(signum, frame):
        raise WorkloadTimeout(f"run exceeded its {seconds:g}s hard timeout")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# -- executing ops ---------------------------------------------------------------------


def execute_op(workload, op: Op, connection: int = 0, slowdown: Optional[str] = None,
               pass_index: int = -1) -> Record:
    """Run one op through the surface; an op that raises is a failed op."""
    start = clock()
    try:
        result = workload.run_op(op, connection)
        if slowdown == op.template:
            time.sleep((clock() - start) * (SLOWDOWN_FACTOR - 1.0))
        end = clock()
        fingerprint, extra = workload.observe(op, result)
        return Record(op, start, end, fingerprint, pass_index=pass_index, extra=extra)
    except Exception as exc:  # the benchmark must outlive any failing op
        return Record(op, start, clock(), error=f"{type(exc).__name__}: {exc}",
                      pass_index=pass_index)


class OpStream:
    """Ops of pass after pass until the deadline, shared by the callers."""

    def __init__(self, workload, passes: Iterator[int], deadline: Optional[float],
                 max_passes: Optional[int] = None):
        self._workload = workload
        self._passes = passes
        self._deadline = deadline
        self._left = max_passes
        self._pending: List[Op] = []
        self._index = -1
        self._lock = threading.Lock()

    def next_op(self) -> Optional[Tuple[int, Op]]:
        """(pass index, op), or None when the stream has ended."""
        with self._lock:
            if not self._pending:
                out_of_time = self._deadline is not None and clock() >= self._deadline
                if self._left == 0 or (out_of_time and self._index >= 0):
                    return None
                if self._left is not None:
                    self._left -= 1
                self._index = next(self._passes)
                self._pending = list(reversed(self._workload.pass_ops(self._index)))
            return self._index, self._pending.pop()

    def abandon(self) -> List[Op]:
        """The ops of the current pass that were never sent."""
        with self._lock:
            left, self._pending = list(reversed(self._pending)), []
            self._left = 0
            return left


def closed_loop(workload, stream: OpStream, sink: List[Record],
                slowdown: Optional[str] = None) -> None:
    """Each caller sends its next op when its previous one returns.

    Records go to ``sink`` as they complete, so what a loop had done is
    still there when the watchdog cuts it short.
    """

    def caller(connection: int) -> None:
        while True:
            item = stream.next_op()
            if item is None:
                return
            index, op = item
            sent = clock()
            try:
                sink.append(execute_op(workload, op, connection, slowdown, pass_index=index))
            except WorkloadTimeout as exc:  # the op in flight when the alarm rang
                sink.append(Record(op, sent, clock(), error=f"timed out: {exc}",
                                   pass_index=index))
                raise

    if workload.connections == 1:
        caller(0)
    else:
        threads = [
            threading.Thread(target=caller, args=(c,), name=f"e2e-caller-{c}", daemon=True)
            for c in range(workload.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    sink.sort(key=lambda r: r.start)


def run_pass(workload, ops: List[Op]) -> Tuple[List[Record], float]:
    """One pass by one caller: the cold pass."""
    start = clock()
    records = [execute_op(workload, op) for op in ops]
    return records, clock() - start


def open_loop_phase(workload, passes: Iterator[int], seconds: float) -> List[Record]:
    """Send on the seed's schedule at the workload's fixed rate."""
    count = max(1, int(workload.open_loop_rate * seconds))
    ops: List[Op] = []
    while len(ops) < count:
        ops.extend(workload.pass_ops(next(passes)))
    offsets = due_offsets(workload.seed, workload.open_loop_rate, count)
    return run_open_loop(
        ops[:count], offsets,
        lambda op, connection: execute_op(workload, op, connection),
        workload.connections,
    )


# -- verification and end-to-end metrics -------------------------------------------------


def verify(workload, records: List[Record]) -> List[Tuple[Record, str]]:
    """(record, reason) for every op that raised or answered wrongly."""
    failures = []
    for record in records:
        try:
            reason = workload.check(record)
        except Exception as exc:  # a broken reference is a failed check, not a crash
            reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((record, reason))
    return failures


def _describe(failures: List[Tuple[Record, str]]) -> List[Dict[str, object]]:
    return [
        {"template": r.op.template, "key": list(map(str, r.op.key)), "why": why}
        for r, why in failures[:10]
    ]


def template_medians_ms(records: List[Record]) -> Dict[str, Dict[str, float]]:
    by_template: Dict[str, List[float]] = {}
    for record in records:
        by_template.setdefault(record.op.template, []).append(record.latency * 1e3)
    return {
        template: {"median_ms": float(np.median(values)), "samples": len(values)}
        for template, values in sorted(by_template.items())
    }


# -- the untraced run ------------------------------------------------------------------------


def run_untraced(workload, seconds: float, reps: int, slowdown: Optional[str]) -> Dict[str, object]:
    setups: List[float] = []
    colds: List[float] = []
    checked: List[Record] = []
    passes = itertools.count()
    closed: List[Record] = []
    window: Optional[OpStream] = None
    peak_rss: Optional[float] = None
    cut: Optional[str] = None

    def setup_and_cold_pass() -> None:
        workload.teardown()
        gc.collect()
        workload.parts = {}
        start = clock()
        workload.setup()
        setups.append(clock() - start)
        records, wall = run_pass(workload, workload.cold_ops())
        colds.append(wall)
        checked.extend(records)

    try:
        for _ in range(min(reps, 2)):
            setup_and_cold_pass()
        closed_loop(workload, OpStream(workload, passes, None, WARMUP_PASSES), checked)
        window = OpStream(workload, passes, clock() + seconds)
        closed_loop(workload, window, closed, slowdown)
        peak_rss = workload.peak_rss_mb()
        for _ in range(reps - 2):
            setup_and_cold_pass()
    except WorkloadTimeout as exc:
        # the one alarm has rung: nothing below can be interrupted again
        cut = str(exc)
        if not closed:
            raise RuntimeError(f"{cut}, before the timed window had run an op") from exc
        # never sent, so failed ops but not latency samples
        checked.extend(
            Record(op, clock(), clock(), error=f"not run: {cut}") for op in window.abandon()
        )
        if peak_rss is None:
            peak_rss = workload.peak_rss_mb()
    finally:
        workload.teardown()

    checked.extend(closed)
    failures = verify(workload, checked)
    failed_ids = {id(record) for record, _ in failures}

    opened = min(r.start for r in closed)
    wall = max(r.end for r in closed) - opened
    correct = sum(1 for r in closed if id(r) not in failed_ids)
    latencies = [r.latency * 1e3 for r in closed]
    templates = template_medians_ms(closed)
    end_to_end = {
        "setup_s": float(np.median(setups)),
        "cold_pass_s": float(np.median(colds)),
        "throughput_ops_s": correct / wall,
        "latency_p50_ms": float(np.median(latencies)),
        "latency_p95_ms": float(np.percentile(latencies, 95.0)),
        "geomean_ms": stats.geomean([t["median_ms"] for t in templates.values()]),
        "peak_rss_mb": peak_rss,
        metrics.FAILED_RATIO: len(failures) / len(checked),
    }
    return {
        "end_to_end": end_to_end,
        "attempted": len(checked),
        "failed": len(failures),
        "failures": _describe(failures),
        "cut_short": cut,
        "setup_reps_s": setups,
        "cold_pass_reps_s": colds,
        "window": {
            "ops": len(closed), "wall_s": wall,
            "p95_supported": stats.supports_percentile(len(latencies), 95.0),
        },
        "templates": templates,
        # every timed op, for whoever has to explain a number: template,
        # pass, start and end in seconds from when the window opened
        "timed_ops": [
            [r.op.template, r.pass_index, r.start - opened, r.end - opened] for r in closed
        ],
    }


# -- the traced run -------------------------------------------------------------------------


def walk(workload, op: Op, op_id: int, recorder: SpanRecorder, prepared: Dict[str, object],
         pass_index: int) -> Record:
    """Walk one op through the layers by hand, innermost call first.

    Every call is one span.  ``parent`` links a span to the span of the
    next enclosing layer, whose own call repeats the child's work; the
    hand-made compile spans hang under ``core.query`` only when that
    call missed the plan cache and so compiled too.
    """
    template = op.template

    def span(name):
        return recorder.span(name, op_id, template)

    with span("op") as root:
        if op.kind == "replace":
            with span("storage.replace") as top:
                record = execute_op(workload, op, pass_index=pass_index)
            top.parent = root.span_id
            return record
        engine = workload.walk_engine()
        compile_spans = []
        with span("sql.parse") as s:
            statement = parse(op.text)
        compile_spans.append(s)
        spec = None
        if op.approx:
            with span("approx.rewrite") as s:
                statement, spec = maybe_rewrite(statement, engine.catalog)
            compile_spans.append(s)
        with span("sql.bind") as s:
            bound = bind(statement, engine.catalog)
        compile_spans.append(s)
        with span("query.translate") as s:
            compiled = translate(bound)
        compile_spans.append(s)
        with span("xcution.build_plan") as s:
            plan = build_plan(compiled, engine.config)
        compile_spans.append(s)
        plan.approx = spec
        with span("xcution.execute_plan") as s_plan:
            execute_plan(plan)
        with span("core.execute") as s_execute:
            engine.execute(plan)
        s_plan.parent = s_execute.span_id

        remote = workload.surface_span != "core.query"
        hits_before = engine.plan_cache.stats.hits
        with span("core.query") as s_query:
            if remote:
                _local_query(engine, op, prepared)
            else:
                record = execute_op(workload, op, pass_index=pass_index)
        missed = engine.plan_cache.stats.hits == hits_before
        s_execute.parent = s_query.span_id
        for s in compile_spans:
            s.parent = s_query.span_id if missed else root.span_id
        if remote:
            with span(workload.surface_span) as s_top:
                record = execute_op(workload, op, pass_index=pass_index)
            s_query.parent = s_top.span_id
            s_top.parent = root.span_id
        else:
            s_query.parent = root.span_id
    return record


def _local_query(engine, op: Op, prepared: Dict[str, object]):
    if op.kind == "prepared":
        statement = prepared.get(op.sql)
        if statement is None:
            statement = prepared[op.sql] = engine.prepare(op.sql)
        return statement.execute(list(op.params))
    return engine.query(op.sql, **op.query_kwargs)


def _program_cpu(workload) -> Optional[float]:
    pids = workload.program_pids()
    return None if pids is None else sum(procs.cpu_seconds(pid) for pid in pids)


def _engine_trace_pass(workload, ops: List[Op]) -> Tuple[Dict[str, str], float]:
    """``surface.query(trace=True)`` next to the plain call, per template."""
    surface = workload.surface()
    roots: Dict[str, str] = {}
    plain = traced = 0.0
    for op in ops:
        if op.kind != "query":
            continue
        samples = {False: [], True: []}
        for _ in range(3):
            for flag in (False, True):
                start = clock()
                result = surface.query(op.sql, trace=flag, **op.query_kwargs)
                samples[flag].append(clock() - start)
        roots[op.template] = result.trace.name
        plain += float(np.median(samples[False]))
        traced += float(np.median(samples[True]))
    return roots, traced / plain if plain else 0.0


def run_traced(workload, seconds: float, trace_path: str) -> Dict[str, object]:
    passes = itertools.count()
    recorder = SpanRecorder(workload.name)
    checked: List[Record] = []
    try:
        workload.parts = {}
        workload.setup()
        records, cold_pass_s = run_pass(workload, workload.cold_ops())
        checked.extend(records)
        closed_loop(workload, OpStream(workload, passes, None, WARMUP_PASSES), checked)

        surface = workload.surface()
        plans_before = dict(surface.debug("plans")["stats"])
        cpu_before = _program_cpu(workload)
        segment = seconds * UNTRACED_SHARE
        untraced: List[Record] = []
        closed_loop(workload, OpStream(workload, passes, clock() + segment), untraced)
        cpu_after = _program_cpu(workload)
        open_records: List[Record] = []
        if workload.open_loop_rate:
            open_records = open_loop_phase(workload, passes, segment)
        plans_after = dict(surface.debug("plans")["stats"])
        metrics_after = surface.debug("metrics")["metrics"]

        traced: List[Record] = []
        prepared: Dict[str, object] = {}
        engine = workload.walk_engine()  # built before the walk's clock starts
        deadline = clock() + seconds * TRACED_SHARE
        walked_passes = 0
        while walked_passes < MIN_TRACED_PASSES or clock() < deadline:
            index = next(passes)
            for op in workload.pass_ops(index):
                traced.append(walk(workload, op, len(traced), recorder, prepared, index))
            walked_passes += 1

        cold_ops = workload.cold_ops()
        trace_roots, engine_trace_ratio = _engine_trace_pass(workload, cold_ops)
        ctx = layers.TraceContext(
            untraced=untraced, open_loop=open_records, spans=recorder.spans,
            cold_pass_s=cold_pass_s, plans_before=plans_before, plans_after=plans_after,
            metrics_after=metrics_after, trace_roots=trace_roots,
            program_cpu_s=None if cpu_before is None else cpu_after - cpu_before,
        )
        # verify before the per-layer step: the baseline ratios use the
        # oracle's own timings
        checked.extend(untraced + open_records + traced)
        failures = verify(workload, checked)

        values = dict.fromkeys(metrics.PER_LAYER_UNITS, 0.0)
        values.update(layers.probe_sets())
        values.update(layers.probe_frames())
        values.update(layers.probe_blas())
        values.update(layers.probe_trie(engine))
        values.update(layers.counter_metrics(engine, cold_ops))
        values.update(layers.span_metrics(ctx))
        values.update(layers.cache_metrics(ctx))
        values["storage.register_ms"] = workload.parts.get("register_s", 0.0) * 1e3
        values["obs.engine_trace_overhead_ratio"] = engine_trace_ratio
        # time per op, walked through the layers / sent plainly
        walked_s = np.mean([s.duration for s in recorder.spans if s.name == "op"])
        plain_s = np.mean([r.end - r.start for r in untraced])
        values["obs.harness_trace_overhead_ratio"] = float(walked_s / plain_s)
        values.update(workload.layer_metrics(ctx))
    finally:
        workload.teardown()
        recorder.write_jsonl(trace_path)

    return {
        "per_layer": values,
        "attempted": len(checked),
        "failed": len(failures),
        "failures": _describe(failures),
        "trace_info": {
            "file": trace_path, "spans": len(recorder.spans), "walked_ops": len(traced),
            "core_query_child_coverage": child_coverage(recorder.spans, "core.query"),
        },
    }


# -- one run ---------------------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: str,
        quick: bool = False, slowdown: Optional[str] = None) -> Dict[str, object]:
    """Run one workload once; returns the detail document of the run."""
    os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"work-{workload_name}-", dir=out_dir)
    workload = WORKLOADS[workload_name](seed, scratch)
    started = time.time()
    try:
        with watchdog(HARD_TIMEOUT_S):
            workload.generate()
            if quick:
                seconds = max(1.0, seconds / 10.0)
            if trace:
                detail = run_traced(
                    workload, seconds, os.path.join(out_dir, f"trace_{workload_name}.jsonl")
                )
            else:
                detail = run_untraced(workload, seconds, 1 if quick else SETUP_REPS, slowdown)
    finally:
        workload.teardown()
        shutil.rmtree(scratch, ignore_errors=True)
        leftovers = procs.live_children()
        procs.kill_children(leftovers)
    detail.update({
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "quick": quick, "inject_slowdown": slowdown,
        "wall_s": time.time() - started, "leftover_children": leftovers,
    })
    if leftovers:
        # a process that outlived teardown is a failure of the run itself
        detail["failed"] = detail["attempted"]
    return detail
