"""Exception hierarchy for the LevelHeaded reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing parse errors from planning or resource errors.

The hierarchy is also the server wire contract: :func:`error_to_wire`
flattens any library error into a JSON-ready dict with a stable ``code``
plus the fields a remote caller needs to react (``retry_after_ms`` for
backoff, ``timeout_ms``/``elapsed_ms`` for deadlines, ...), and
:func:`error_from_wire` rebuilds the matching typed exception on the
client so ``except QueryTimeoutError`` and
:func:`repro.core.governor.retry_admission` work identically in-process
and over the network.
"""

from __future__ import annotations

from typing import Dict


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ReproError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message)
        self.position = position


class BindError(ReproError):
    """A parsed query references unknown tables, columns, or types."""


class SchemaError(ReproError):
    """A table schema or ingested data violates the data model.

    Examples: a key attribute with a non-integer type, an annotation
    referenced as a join attribute, or mismatched column lengths.
    """


class UnsupportedQueryError(ReproError):
    """The query is valid SQL but outside the supported subset.

    LevelHeaded (the paper) supports a subset of SQL 2008; this
    reproduction raises this error rather than silently computing a
    wrong answer when a query falls outside that subset.
    """


class PlanningError(ReproError):
    """The query compiler failed to produce a GHD-based plan."""


class UnsupportedOnTopology(ReproError):
    """A query-surface option is not supported by this topology.

    The unified ``repro.connect()`` surface spans three topologies --
    in-process engine, remote ``tcp://`` client, sharded ``shard://``
    coordinator -- with identical ``query/prepare/explain/submit/debug``
    signatures.  Options that cannot be honored on a given topology
    (e.g. ``config=`` overrides or ``profile=`` over the wire) raise
    this error instead of being silently dropped, so callers never get
    an answer computed under different settings than they asked for.
    """

    def __init__(self, message: str, option: str = "", topology: str = ""):
        super().__init__(message)
        self.option = option
        self.topology = topology


class ExecutionError(ReproError):
    """A physical plan failed during execution."""


class QueryKilledError(ExecutionError):
    """Base of the governance kills: the query was stopped mid-flight.

    Carries whatever diagnostics the engine had accumulated when the
    kill fired, so a killed query is still fully diagnosable:
    ``partial_stats`` is the accumulated-so-far
    :class:`~repro.xcution.stats.ExecutionStats`, and ``trace_root`` the
    (partial) lifecycle :class:`~repro.obs.Span` tree, ending in a
    ``killed`` mark.
    """

    def __init__(self, message: str):
        super().__init__(message)
        #: ExecutionStats accumulated up to the kill (None if the engine
        #: was not collecting stats for this query).
        self.partial_stats = None
        #: partial lifecycle span tree (None until the engine attaches it).
        self.trace_root = None


class QueryTimeoutError(QueryKilledError):
    """The query ran past its deadline and was cancelled cooperatively."""

    def __init__(self, message: str, timeout_ms: float = 0.0, elapsed_ms: float = 0.0):
        super().__init__(message)
        self.timeout_ms = timeout_ms
        self.elapsed_ms = elapsed_ms


class QueryCancelledError(QueryKilledError):
    """The query's :class:`~repro.core.governor.CancelToken` was cancelled."""

    def __init__(self, message: str, reason: str = "cancelled"):
        super().__init__(message)
        self.reason = reason


class AdmissionError(ReproError):
    """The governor refused to start the query."""


class RetryableAdmissionError(AdmissionError):
    """Admission failed transiently: back off and retry.

    Raised for bounded-queue backpressure (every concurrency slot busy
    and the wait queue full), load shedding of non-cached plans, and
    memory-pressure failures attributable to the shared global budget.
    ``retry_after_ms`` is a jittered backoff hint; callers can also use
    :func:`repro.core.governor.retry_admission`.  ``cause`` labels the
    single reason the rejection is attributed to (``shedding``,
    ``queue_full``, or ``queue_timeout``) -- exactly one per rejection,
    so per-cause counters sum to the rejection total.
    """

    def __init__(self, message: str, retry_after_ms: float = 25.0, cause: str = ""):
        super().__init__(message)
        self.retry_after_ms = retry_after_ms
        self.cause = cause


class OutOfMemoryBudgetError(ExecutionError):
    """An operator exceeded the configured memory budget.

    The paper reports 'oom' entries for engines whose pairwise join plans
    materialize intermediates beyond physical memory (Table II).  Baseline
    engines in this reproduction enforce an explicit budget so the same
    failure mode is observable deterministically.

    ``partial_stats`` carries the
    :class:`~repro.xcution.stats.ExecutionStats` accumulated when the
    budget blew mid-execution, and ``trace_root`` the lifecycle span tree
    up to the kill (the engine attaches both), so the work done up to
    the failure is not lost to diagnostics.
    """

    def __init__(self, message: str, requested_bytes: int = 0, budget_bytes: int = 0):
        super().__init__(message)
        self.requested_bytes = requested_bytes
        self.budget_bytes = budget_bytes
        #: ExecutionStats accumulated up to the failure (None if unknown).
        self.partial_stats = None
        self.trace_root = None


# ---------------------------------------------------------------------------
# wire serialization (the repro.server / repro.client error contract)
# ---------------------------------------------------------------------------

#: stable wire codes, one per exception class.  Codes are part of the
#: network protocol (docs/server.md): never reuse or renumber them.
_CODE_BY_CLASS = {
    ParseError: "parse",
    BindError: "bind",
    SchemaError: "schema",
    UnsupportedQueryError: "unsupported",
    UnsupportedOnTopology: "unsupported_topology",
    PlanningError: "planning",
    QueryTimeoutError: "timeout",
    QueryCancelledError: "cancelled",
    OutOfMemoryBudgetError: "oom",
    ExecutionError: "execution",
    RetryableAdmissionError: "admission_retry",
    AdmissionError: "admission",
    ReproError: "internal",
}

_CLASS_BY_CODE = {code: cls for cls, code in _CODE_BY_CLASS.items()}

#: extra per-class fields carried across the wire (attribute names map
#: 1:1 onto constructor keywords of the matching class).
_WIRE_FIELDS = {
    "parse": ("position",),
    "unsupported_topology": ("option", "topology"),
    "timeout": ("timeout_ms", "elapsed_ms"),
    "cancelled": ("reason",),
    "oom": ("requested_bytes", "budget_bytes"),
    "admission_retry": ("retry_after_ms",),
}


def error_to_wire(exc: BaseException) -> Dict:
    """Flatten ``exc`` into a JSON-ready dict: ``{"code", "message", ...}``.

    Library errors keep their typed identity (most-derived class wins);
    anything else -- a genuine server bug -- becomes ``code:
    "internal"`` so clients never see a raw traceback frame.
    """
    code = "internal"
    for cls in type(exc).__mro__:
        if cls in _CODE_BY_CLASS:
            code = _CODE_BY_CLASS[cls]
            break
    payload: Dict = {"code": code, "message": str(exc)}
    # the correlation id crosses the wire on *every* error that has one
    # (the engine stamps exc.query_id at failure time), so a remote
    # failure joins the server's flight recorder / JSONL log by grep
    query_id = getattr(exc, "query_id", None)
    if query_id is not None:
        payload["query_id"] = query_id
    for field in _WIRE_FIELDS.get(code, ()):
        value = getattr(exc, field, None)
        if value is not None:
            payload[field] = value
    return payload


def error_from_wire(payload: Dict) -> ReproError:
    """Rebuild the typed exception :func:`error_to_wire` flattened.

    Unknown codes degrade to plain :class:`ReproError` (a newer server
    talking to an older client must still produce a catchable error).
    """
    code = payload.get("code", "internal")
    message = payload.get("message", "unknown server error")
    cls = _CLASS_BY_CODE.get(code, ReproError)
    kwargs = {}
    for field in _WIRE_FIELDS.get(code, ()):
        if field in payload:
            kwargs[field] = payload[field]
    try:
        err = cls(message, **kwargs)
    except TypeError:  # pragma: no cover -- malformed extras from a peer
        err = cls(message)
    if "query_id" in payload:
        err.query_id = payload["query_id"]
    return err
