"""The online plan-sensitivity service.

Serves the paper's core question — *which plan wins at this cost
vector, and how close is the nearest switchover plane?* — as a
long-running HTTP endpoint (``POST /v1/decide``) that answers each
request as it arrives from a warm shared candidate-set store, with
responses bitwise identical to offline ``repro explain`` for the same
probe.

Layering: ``serve`` sits *above* ``experiments`` (it reuses scenario
wiring and the run-context workload) and below ``cli`` (the ``repro
serve`` / ``repro loadgen`` subcommands are thin argument shims).
"""

from .decide import decide_group, decide_one, verify_offline
from .loadgen import build_requests, run_loadgen
from .protocol import (
    QUANT_DIGITS,
    SERVE_SCHEMA_VERSION,
    RequestError,
    decisions_digest,
    parse_decide_request,
    quantize_costs,
    request_key,
    response_core,
)
from .server import ServeApp, run_server
from .store import CandidateStore, StoreEntry

__all__ = [
    "QUANT_DIGITS",
    "SERVE_SCHEMA_VERSION",
    "CandidateStore",
    "RequestError",
    "ServeApp",
    "StoreEntry",
    "build_requests",
    "decide_group",
    "decide_one",
    "decisions_digest",
    "parse_decide_request",
    "quantize_costs",
    "request_key",
    "response_core",
    "run_loadgen",
    "run_server",
    "verify_offline",
]
