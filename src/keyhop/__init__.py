"""Key forwarding over short quantum links, with secrecy analysis.

The package models endpoint-to-endpoint key agreement built from
relay-measured and point-to-point links: schedule compilation and
execution (protocol), coalition secrecy verdicts over GF(2) (analysis),
rate-versus-distance curves (ratemodel), and an authenticated TCP plane
(wire).
"""

from .analysis import (
    Coalition,
    SecrecyVerdict,
    Status,
    brute_force_secrecy,
    final_key_expr,
    is_recoverable,
    min_breaking_coalitions,
    recover_bits,
    view_of,
)
from .bits import BitString, KeyStore, SecretId, SymbolicExpr, nonce, p2p_key, random_bits, tf_key
from .keyplan import Variant, cm_report, key_oracle_text, parse_key_oracle, plan_keys
from .protocol import (
    ProtocolTrace,
    compile_schedule,
    execute,
    run,
    trace_json,
    trace_text,
)
from .ratemodel import RateParams, eta, max_range, rate_p2p, rate_scheme, rate_tf
from .topology import (
    Topology,
    build_chain,
    build_multipath,
    build_reach_chain,
    build_ring6,
)
from .wire import orchestrate

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "Coalition",
    "KeyStore",
    "ProtocolTrace",
    "RateParams",
    "SecrecyVerdict",
    "SecretId",
    "Status",
    "SymbolicExpr",
    "Topology",
    "Variant",
    "__version__",
    "brute_force_secrecy",
    "build_chain",
    "build_multipath",
    "build_reach_chain",
    "build_ring6",
    "cm_report",
    "compile_schedule",
    "eta",
    "execute",
    "final_key_expr",
    "is_recoverable",
    "key_oracle_text",
    "max_range",
    "min_breaking_coalitions",
    "nonce",
    "orchestrate",
    "p2p_key",
    "parse_key_oracle",
    "plan_keys",
    "random_bits",
    "rate_p2p",
    "rate_scheme",
    "rate_tf",
    "recover_bits",
    "run",
    "tf_key",
    "trace_json",
    "trace_text",
    "view_of",
]
