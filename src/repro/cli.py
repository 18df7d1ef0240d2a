"""A small SQL shell over a saved catalog, plus ``serve`` / remote modes.

Usage::

    python -m repro.cli DATA_DIR               # interactive shell
    python -m repro.cli DATA_DIR -e "SELECT …" # one statement, then exit
    python -m repro.cli DATA_DIR --explain -e "SELECT …"

    python -m repro.cli serve --load DATA_DIR --port 5433 --http-port 8181
    python -m repro.cli serve --load DATA_DIR --engine "shard://local?workers=4"
    python -m repro.cli --connect tcp://127.0.0.1:5433 -e "SELECT …"
    python -m repro.cli DATA_DIR --connect "shard://local?workers=4"

``serve`` loads a saved catalog and runs a
:class:`~repro.server.ReproServer` until interrupted (with ``--engine``
it serves a shard coordinator instead of a plain engine); ``--connect``
takes the same connection-string grammar as :func:`repro.connect`
(``tcp://HOST:PORT`` opens a remote shell, ``shard://local?workers=N``
opens the shell over a shard fleet loaded from ``DATA_DIR``, and a bare
``HOST:PORT`` keeps meaning tcp for backward compatibility).

``DATA_DIR`` is a directory written by
:func:`repro.storage.persist.save_catalog` (``schema.json`` plus
``<table>.tbl`` files — dbgen-style).  Inside the shell, ``\\d`` lists
tables, ``\\d name`` shows a schema, ``\\explain SELECT …`` prints the
chosen plan, ``\\trace SELECT …`` runs a statement and prints its
lifecycle span tree, ``\\profile SELECT …`` runs a statement and prints
its per-trie-level kernel profile (collapsed-stack flamegraph text),
``\\metrics`` prints the engine's cumulative serving metrics,
``\\feedback`` prints the per-cached-plan q-error drift records,
``\\timeout [ms|off]`` shows or sets the session's default query
deadline, ``\\governor [shed on|off]`` shows the admission governor's
state (or toggles load shedding), ``\\top`` shows the queries in flight
right now plus the governor gauges, ``\\last [n]`` shows the newest entries of the engine's flight
recorder (default 10, with error-bar summaries for approximate runs),
``\\approx [on|off|force]`` shows or sets the session's
approximate-query policy (``on`` lets the governor degrade overloaded
queries to samples, ``force`` runs everything on samples -- see
:mod:`repro.approx`), and ``\\q`` quits.  ``\\top``, ``\\last``, and
``\\approx`` also work in the remote shell (``--connect``), the first
two served over the wire by the ``debug`` protocol frame and the last
as the client's session default.  ``--approx on|off|force`` sets the
same policy for one-shot ``-e`` statements on any surface.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .core.engine import LevelHeadedEngine
from .errors import ReproError
from .storage.persist import load_catalog


def _describe_tables(engine: LevelHeadedEngine) -> str:
    lines = []
    for name in sorted(engine.catalog.names()):
        table = engine.catalog.table(name)
        lines.append(f"{name} ({table.num_rows} rows)")
    return "\n".join(lines) if lines else "(no tables)"


def _describe_schema(engine: LevelHeadedEngine, name: str) -> str:
    table = engine.catalog.table(name)
    lines = [f"table {name} ({table.num_rows} rows)"]
    for attribute in table.schema.attributes:
        domain = f" domain={attribute.domain_name}" if attribute.is_key else ""
        lines.append(f"  {attribute.name}: {attribute.type.value} "
                     f"[{attribute.kind.value}]{domain}")
    return "\n".join(lines)


def _approx_summary(meta: dict) -> str:
    """One line of error bars for an approximate result's metadata."""
    parts = []
    for name, info in meta.get("columns", {}).items():
        error = info.get("error")
        parts.append(f"{name} ±{error:.4g}" if error is not None else f"{name} (no CI)")
    confidence = int(round(meta.get("confidence", 0.95) * 100))
    return (
        f"approx[{meta.get('mode', 'forced')}]: "
        f"fraction={meta.get('fraction', 0):g} {confidence}% CI: "
        + ("; ".join(parts) if parts else "(no aggregates)")
    )


def run_statement(
    engine: LevelHeadedEngine,
    sql: str,
    explain: bool = False,
    trace: bool = False,
    profile: bool = False,
) -> str:
    """Execute one statement (or explain/trace/profile it) and render it."""
    if explain:
        return engine.explain(sql)
    start = time.perf_counter()
    result = engine.query(sql, trace=trace, profile=profile)
    elapsed = (time.perf_counter() - start) * 1000
    text = f"{result.to_text()}\n({result.num_rows} rows in {elapsed:.1f}ms)"
    if getattr(result, "approx", None):
        text += "\n" + _approx_summary(result.approx)
    if trace and result.trace is not None:
        text += "\n" + result.trace.render()
    if profile and result.profile is not None:
        text += "\n" + result.profile.render()
    return text


def _handle_timeout(engine: LevelHeadedEngine, arg: str) -> str:
    """Show or set the session default deadline (``\\timeout [ms|off]``)."""
    if not arg:
        current = engine.default_timeout_ms
        return (f"default timeout: {current:g}ms" if current is not None
                else "default timeout: off")
    if arg.lower() in ("off", "none", "0"):
        engine.default_timeout_ms = None
        return "default timeout: off"
    try:
        ms = float(arg)
    except ValueError:
        return f"error: \\timeout expects milliseconds or 'off', got {arg!r}"
    if ms <= 0:
        return "error: \\timeout expects a positive number of milliseconds"
    engine.default_timeout_ms = ms
    return f"default timeout: {ms:g}ms"


def _handle_feedback(engine: LevelHeadedEngine) -> str:
    """Per-cached-plan q-error feedback state (``\\feedback``)."""
    cache = engine.plan_cache
    entries = cache.feedback_snapshot()
    lines = [
        f"q-error feedback: threshold={cache.q_error_threshold:g} "
        f"drift_runs={cache.drift_runs} "
        f"reoptimizations={cache.stats.reoptimizations}"
    ]
    if not entries:
        lines.append("(no cached plans)")
        return "\n".join(lines)
    for entry in entries:
        q_max = entry["q_error_max"]
        q_txt = f"{q_max:.2f}" if q_max is not None else "-"
        sql = " ".join(str(entry["sql"]).split())
        if len(sql) > 60:
            sql = sql[:57] + "..."
        lines.append(
            f"  runs={entry['runs']} q_error_max={q_txt} "
            f"bad_streak={entry['bad_streak']} drifted={entry['drifted']} "
            f"reoptimized={entry['reoptimized']}  {sql}"
        )
    return "\n".join(lines)


#: shell spellings -> :mod:`repro.approx` policies (``on`` reads better
#: at a prompt than ``allow``).
_APPROX_SPELLINGS = {
    "on": "allow", "off": "never",
    "allow": "allow", "never": "never", "force": "force",
}


def _handle_approx(engine: LevelHeadedEngine, arg: str) -> str:
    """Show or set the approximate-query policy (``\\approx [on|off|force]``)."""
    if not arg:
        return f"approx policy: {engine.config.approx}"
    policy = _APPROX_SPELLINGS.get(arg)
    if policy is None:
        return f"error: \\approx expects on, off, or force, got {arg!r}"
    from dataclasses import replace

    try:
        engine.config = replace(engine.config, approx=policy)
    except ReproError as exc:  # e.g. fixed config on a shard surface
        return f"error: {exc}"
    return f"approx policy: {policy}"


def _handle_governor(engine: LevelHeadedEngine, arg: str) -> str:
    """Show the admission governor (``\\governor``) or toggle shedding."""
    if engine.governor is None:
        return ("no governor configured (connect with max_concurrency= or "
                "global_memory_budget= to enable admission control)")
    if not arg:
        return engine.governor.describe()
    parts = arg.split()
    if len(parts) == 2 and parts[0] == "shed" and parts[1] in ("on", "off"):
        engine.governor.set_load_shedding(parts[1] == "on")
        return f"load shedding: {parts[1]}"
    return f"error: unknown \\governor subcommand {arg!r} (try 'shed on|off')"


def _one_line_sql(sql, width: int = 60) -> str:
    text = " ".join(str(sql or "").split())
    return text[: width - 3] + "..." if len(text) > width else text


def _render_top(queries: dict, governor: dict) -> str:
    """The ``\\top`` view from ``debug_snapshot`` payloads (local or wire)."""
    lines = [f"in-flight queries: {queries['count']}"]
    for q in queries["queries"]:
        lines.append(
            f"  {q['query_id']} [{q['phase']}] {q['elapsed_ms']:.1f}ms "
            f"session={q['session'] or '-'}  {_one_line_sql(q['sql'])}"
        )
    gov = governor.get("governor")
    if gov is None:
        lines.append("governor: none")
    else:
        lines.append(
            f"governor: active={gov['active']} "
            f"waiting={gov['waiting']}/{gov['max_queue']} "
            f"shedding={'on' if gov['load_shedding'] else 'off'}"
        )
    return "\n".join(lines)


def _render_last(flight: dict) -> str:
    """The ``\\last`` view from a ``flight`` debug snapshot (newest first)."""
    entries = flight["entries"]
    lines = [
        f"flight recorder: {flight['recorded']} recorded, "
        f"capacity {flight['capacity']}"
    ]
    if not entries:
        lines.append("(no completed queries)")
        return "\n".join(lines)
    for e in entries:
        exec_ms = e.get("execute_ms")
        exec_txt = f"{exec_ms:.1f}ms" if exec_ms is not None else "-"
        lines.append(
            f"  {e['query_id']} {e['outcome']:<9} {exec_txt:>9} "
            f"rows={e['rows']} session={e['session'] or '-'}  "
            f"{_one_line_sql(e['sql'])}"
        )
        if e.get("error"):
            lines.append(f"      error: {_one_line_sql(e['error'], 70)}")
        approx = (e.get("annotations") or {}).get("approx")
        if approx:
            errors = approx.get("errors") or {}
            bars = "; ".join(
                f"{name} ±{error:.4g}" if error is not None else f"{name} (no CI)"
                for name, error in errors.items()
            )
            lines.append(
                f"      approx[{approx.get('mode', 'forced')}]: "
                f"fraction={approx.get('fraction', 0):g}"
                + (f" {bars}" if bars else "")
            )
    return "\n".join(lines)


def _parse_last_n(arg: str) -> Optional[int]:
    """The ``n`` of ``\\last [n]``; None on a malformed argument."""
    if not arg:
        return 10
    try:
        n = int(arg)
    except ValueError:
        return None
    return n if n > 0 else None


def _handle_line(engine: LevelHeadedEngine, line: str) -> Optional[str]:
    """One shell interaction; returns output text, or None to quit."""
    stripped = line.strip()
    if not stripped:
        return ""
    if stripped in ("\\q", "quit", "exit"):
        return None
    if stripped == "\\d":
        return _describe_tables(engine)
    if stripped.startswith("\\d "):
        return _describe_schema(engine, stripped[3:].strip())
    if stripped == "\\metrics":
        return engine.metrics.describe()
    if stripped == "\\feedback":
        return _handle_feedback(engine)
    if stripped == "\\timeout" or stripped.startswith("\\timeout "):
        return _handle_timeout(engine, stripped[len("\\timeout"):].strip())
    if stripped == "\\governor" or stripped.startswith("\\governor "):
        return _handle_governor(engine, stripped[len("\\governor"):].strip())
    if stripped == "\\approx" or stripped.startswith("\\approx "):
        return _handle_approx(engine, stripped[len("\\approx"):].strip())
    if stripped == "\\top":
        return _render_top(
            engine.debug_snapshot("queries"), engine.debug_snapshot("governor")
        )
    if stripped == "\\last" or stripped.startswith("\\last "):
        n = _parse_last_n(stripped[len("\\last"):].strip())
        if n is None:
            return "error: \\last expects a positive integer"
        return _render_last(engine.debug_snapshot("flight", n=n))
    explain = False
    trace = False
    profile = False
    if stripped.startswith("\\explain "):
        explain = True
        stripped = stripped[len("\\explain "):]
    elif stripped.startswith("\\trace "):
        trace = True
        stripped = stripped[len("\\trace "):]
    elif stripped.startswith("\\profile "):
        profile = True
        stripped = stripped[len("\\profile "):]
    try:
        return run_statement(
            engine, stripped, explain=explain, trace=trace, profile=profile
        )
    except ReproError as exc:
        return f"error: {exc}"


# ---------------------------------------------------------------------------
# remote mode (--connect host:port)
# ---------------------------------------------------------------------------


def run_remote_statement(client, sql: str, explain: bool = False) -> str:
    """Execute one statement over the wire and render it like the shell."""
    if explain:
        return client.explain(sql)
    start = time.perf_counter()
    result = client.query(sql)
    elapsed = (time.perf_counter() - start) * 1000
    text = f"{result.to_text()}\n({result.num_rows} rows in {elapsed:.1f}ms)"
    if getattr(result, "approx", None):
        text += "\n" + _approx_summary(result.approx)
    return text


def _remote_repl(client) -> int:
    print(f"LevelHeaded remote shell -- session {client.session} "
          f"on {client.host}:{client.port} (\\q to quit)")
    while True:
        try:
            line = input("lh> ")
        except EOFError:
            break
        stripped = line.strip()
        if not stripped:
            continue
        if stripped in ("\\q", "quit", "exit"):
            break
        if stripped == "\\top":
            try:
                print(_render_top(client.debug("queries"), client.debug("governor")))
            except ReproError as exc:
                print(f"error: {exc}")
            continue
        if stripped == "\\last" or stripped.startswith("\\last "):
            n = _parse_last_n(stripped[len("\\last"):].strip())
            if n is None:
                print("error: \\last expects a positive integer")
                continue
            try:
                print(_render_last(client.debug("flight", n=n)))
            except ReproError as exc:
                print(f"error: {exc}")
            continue
        if stripped == "\\approx" or stripped.startswith("\\approx "):
            arg = stripped[len("\\approx"):].strip()
            if not arg:
                print(f"approx policy: {client.default_approx or 'never'}")
            else:
                policy = _APPROX_SPELLINGS.get(arg)
                if policy is None:
                    print(f"error: \\approx expects on, off, or force, got {arg!r}")
                else:
                    client.default_approx = policy
                    print(f"approx policy: {policy}")
            continue
        explain = False
        if stripped.startswith("\\explain "):
            explain = True
            stripped = stripped[len("\\explain "):]
        try:
            print(run_remote_statement(client, stripped, explain=explain))
        except ReproError as exc:
            print(f"error: {exc}")
    return 0


def _normalize_connect_dsn(value: str) -> str:
    """``--connect`` grammar: full DSNs, plus bare HOST:PORT meaning tcp."""
    if "://" in value or value == "local":
        return value
    return f"tcp://{value}"


def _remote_main(args, dsn: str) -> int:
    import repro

    try:
        client = repro.connect(
            dsn,
            timeout_ms=args.timeout_ms,
            approx=_APPROX_SPELLINGS[args.approx] if args.approx else None,
        )
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: cannot connect to {args.connect}: {exc}", file=sys.stderr)
        return 2
    try:
        if args.execute:
            status = 0
            for sql in args.execute:
                try:
                    print(run_remote_statement(client, sql, explain=args.explain))
                except ReproError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    status = 1
            return status
        return _remote_repl(client)
    finally:
        client.close()


# ---------------------------------------------------------------------------
# serve mode (repro.cli serve --load DATA_DIR)
# ---------------------------------------------------------------------------


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.cli serve``: run a network server over a catalog."""
    from .server import ReproServer
    from .server.protocol import DEFAULT_BATCH_ROWS

    parser = argparse.ArgumentParser(
        prog="repro.cli serve",
        description="serve a saved LevelHeaded catalog over TCP",
    )
    parser.add_argument(
        "--load", required=True, metavar="DATA_DIR",
        help="directory written by save_catalog to preload and serve",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=5433)
    parser.add_argument(
        "--http-port", type=int, default=None,
        help="also serve GET /metrics and /healthz on this port",
    )
    parser.add_argument("--max-concurrency", type=int, default=None)
    parser.add_argument("--memory-budget", type=int, default=None)
    parser.add_argument("--timeout-ms", type=float, default=None)
    parser.add_argument(
        "--batch-rows", type=int, default=DEFAULT_BATCH_ROWS,
        help="rows per result batch frame",
    )
    parser.add_argument(
        "--engine", metavar="DSN", default="local",
        help="what to serve: 'local' (default) or 'shard://local?workers=N' "
             "(a shard coordinator behind the same wire protocol)",
    )
    args = parser.parse_args(argv)

    import repro
    from .surface import parse_dsn

    try:
        scheme, _ = parse_dsn(args.engine)
        if scheme == "tcp":
            raise ReproError(
                "serve needs an in-process engine: --engine takes 'local' "
                "or 'shard://local?workers=N', not tcp://"
            )
        engine = repro.connect(
            args.engine,
            catalog=load_catalog(args.load),
            timeout_ms=args.timeout_ms,
            max_concurrency=args.max_concurrency,
            global_memory_budget=args.memory_budget,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    server = ReproServer(
        engine,
        host=args.host,
        port=args.port,
        http_port=args.http_port,
        batch_rows=args.batch_rows,
    )
    try:
        host, port = server.start()
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    tables = len(list(engine.catalog.names()))
    print(f"serving {tables} tables on {host}:{port}", flush=True)
    if server.http_port is not None:
        print(f"metrics on http://{host}:{server.http_port}/metrics", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    finally:
        server.stop()
        engine.close()  # a shard surface reaps its workers here
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="SQL shell over a saved LevelHeaded catalog"
    )
    parser.add_argument(
        "data_dir", nargs="?", default=None,
        help="directory written by save_catalog",
    )
    parser.add_argument(
        "--connect", metavar="DSN", default=None,
        help="where queries run: tcp://HOST:PORT (or bare HOST:PORT) for a "
             "running 'repro.cli serve', shard://local?workers=N to shard "
             "DATA_DIR across worker processes, local for in-process",
    )
    parser.add_argument(
        "-e", "--execute", action="append", default=None,
        help="execute this statement and exit (repeatable)",
    )
    parser.add_argument(
        "--explain", action="store_true", help="explain instead of executing"
    )
    parser.add_argument(
        "--timeout-ms", type=float, default=None,
        help="default deadline for every query (override with \\timeout)",
    )
    parser.add_argument(
        "--max-concurrency", type=int, default=None,
        help="admission-control concurrency limit (enables the governor)",
    )
    parser.add_argument(
        "--memory-budget", type=int, default=None,
        help="global memory budget in bytes shared across admitted queries",
    )
    parser.add_argument(
        "--approx", choices=("on", "off", "force"), default=None,
        help="approximate-query policy: on lets the governor degrade to "
             "samples under load, force runs aggregates on samples "
             "(override with \\approx)",
    )
    args = parser.parse_args(argv)

    from .surface import parse_dsn

    dsn = "local" if args.connect is None else _normalize_connect_dsn(args.connect)
    try:
        scheme, _ = parse_dsn(dsn)
    except ReproError as exc:
        parser.error(str(exc))
    if scheme == "tcp":
        return _remote_main(args, dsn)
    # local and shard surfaces both open DATA_DIR in this process
    if args.data_dir is None:
        parser.error("data_dir is required unless --connect tcp://... is given")

    import repro

    try:
        engine = repro.connect(
            dsn,
            catalog=load_catalog(args.data_dir),
            timeout_ms=args.timeout_ms,
            max_concurrency=args.max_concurrency,
            global_memory_budget=args.memory_budget,
            approx=_APPROX_SPELLINGS[args.approx] if args.approx else None,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.execute:
            status = 0
            for sql in args.execute:
                try:
                    print(run_statement(engine, sql, explain=args.explain))
                except ReproError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    status = 1
            return status

        print(f"LevelHeaded shell -- {len(list(engine.catalog.names()))} tables "
              "(\\d to list, \\q to quit)")
        while True:
            try:
                line = input("lh> ")
            except EOFError:
                break
            output = _handle_line(engine, line)
            if output is None:
                break
            if output:
                print(output)
        return 0
    finally:
        engine.close()  # a shard surface reaps its workers here


if __name__ == "__main__":
    sys.exit(main())
