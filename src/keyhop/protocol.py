"""Relay protocol execution.

Every variant reduces to the same hop rule: the path's origin starts from its
nonce, each sender folds in all of its own keys on that path, and the far
endpoint strips its keys to recover the nonce. compile_schedule turns a key
plan into that hop list once; the in-process engine and the wire plane both
execute the same schedule, so they cannot drift apart.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .bits import BitString, KeyStore, SecretId, SymbolicExpr, check_length, nonce
from .keyplan import KeyPlan, Variant, plan_keys
from .topology import NodeId, Shape, Topology

__all__ = [
    "Hop",
    "AbsorbRule",
    "Schedule",
    "Message",
    "ProtocolTrace",
    "compile_schedule",
    "check_budget",
    "make_store",
    "execute",
    "run",
    "trace_text",
    "trace_json",
]


class Hop(NamedTuple):
    """One message emission: sender folds xor_ids into the running payload.
    A path's hops are consecutive, so a hop without an origin continues the
    payload of the hop just before it."""

    index: int
    sender: NodeId
    receiver: NodeId
    origin: SecretId | None  # the nonce, when the sender starts this path
    xor_ids: tuple[SecretId, ...]


class AbsorbRule(NamedTuple):
    """Final reception on one path: strip these keys from that hop's payload."""

    hop_index: int
    strip_ids: tuple[SecretId, ...]


@dataclass(frozen=True)
class Schedule:
    plan: KeyPlan
    hops: tuple[Hop, ...]
    absorbs: tuple[AbsorbRule, ...]  # one per path, at its last hop's receiver

    @property
    def nonce_ids(self) -> tuple[SecretId, ...]:
        """Each path's nonce: the origin of its first hop."""
        return tuple(h.origin for h in self.hops if h.origin is not None)

    @cached_property
    def secret_ids(self) -> tuple[SecretId, ...]:
        """The plan's keys, then the nonces: the order make_store draws them in."""
        return (*(entry.secret_id for entry in self.plan.entries), *self.nonce_ids)

    @cached_property
    def exprs(self) -> tuple[SymbolicExpr, ...]:
        """Each hop's payload: its path's nonce XOR the keys folded so far
        (compile_schedule lists each key once, so a hop's keys are one set)."""
        exprs, terms = [], frozenset()
        for hop in self.hops:
            terms = frozenset(hop.xor_ids) ^ ({hop.origin} if hop.origin is not None else terms)
            exprs.append(SymbolicExpr(terms))
        return tuple(exprs)


def _path_runs(topo: Topology) -> list[tuple[tuple[NodeId, ...], SecretId]]:
    """Per path: the node sequence in sending order and the nonce that seeds
    it. The shape alone decides; plan_keys has checked the variant against it."""
    a, b = topo.endpoint_a, topo.endpoint_b
    if topo.shape is Shape.RING6:
        upper, lower = topo.paths
        return [(upper, nonce(a)), (tuple(reversed(lower)), nonce(b))]
    if topo.shape is Shape.MULTIPATH:
        return [(path, nonce(a, p)) for p, path in enumerate(topo.paths, start=1)]
    return [(topo.paths[0], nonce(a))]


def compile_schedule(plan: KeyPlan) -> Schedule:
    runs = _path_runs(plan.topology)
    # each node's keys on each path, in plan order, from one pass over the
    # plan: a key lies on the path of its intermediary end, and both its
    # ends must be on that path (every builder keeps A and B out of range)
    keys: list[dict[NodeId, list[SecretId]]] = [{nd: [] for nd in seq} for seq, _ in runs]
    path_of = {nd: keys[p] for p, (seq, _) in enumerate(runs) for nd in seq[1:-1]}
    listed: set[SecretId] = set()
    for entry in plan.entries:
        sid = entry.secret_id
        # execute folds a hop's keys in as one set, which holds a key once
        if sid in listed:
            raise ValueError(f"key {sid} is listed twice")
        listed.add(sid)
        u, v = sid.ends
        held = path_of.get(u) or path_of.get(v)
        if held is None or u not in held or v not in held:
            raise ValueError(f"key {sid} does not join an intermediary to a node of its path")
        held[u].append(sid)
        held[v].append(sid)
    hops: list[Hop] = []
    absorbs: list[AbsorbRule] = []
    for (seq, nonce_id), held in zip(runs, keys):
        for i, (sender, receiver) in enumerate(zip(seq, seq[1:])):
            origin = nonce_id if i == 0 else None
            hops.append(Hop(len(hops), sender, receiver, origin, tuple(held[sender])))
        absorbs.append(AbsorbRule(hops[-1].index, tuple(held[seq[-1]])))
    return Schedule(plan, tuple(hops), tuple(absorbs))


# Bytes of n-bit values a run may hold: its keys, nonces and messages. At
# this bound simulate, which also writes and prints every message in hex,
# peaks at about 450 MiB on chain m=2, the layout with the largest share of
# messages, so every command that passes runs within 1 GiB of address space.
KEY_BUDGET = 1 << 26


def check_budget(schedule: Schedule, n: int) -> None:
    """Refuse a key length out of range, then key material over KEY_BUDGET."""
    check_length(n)
    values = len(schedule.secret_ids) + len(schedule.hops)
    if values * ((n + 7) // 8) > KEY_BUDGET:
        raise ValueError(
            f"{values} keys, nonces and messages of {n} bits exceed the"
            f" {KEY_BUDGET}-byte key budget"
        )


def make_store(schedule: Schedule, n: int, rng: random.Random) -> KeyStore:
    """Draw the schedule's secrets, in order, once check_budget admits the run."""
    check_budget(schedule, n)
    store = KeyStore(n)
    for sid in schedule.secret_ids:
        store.sample(sid, rng)
    return store


class Message(NamedTuple):
    """The payload of the schedule's hop at the same position, with its
    algebraic form; bits always equal the store's evaluation of expr."""

    bits: BitString
    expr: SymbolicExpr


@dataclass(frozen=True)
class ProtocolTrace:
    schedule: Schedule
    messages: tuple[Message, ...]
    output_a: BitString
    output_b: BitString
    store: KeyStore

    # the schedule's; kept because perfbench/layers.py:239,305 reads
    # trace.topology and perfbench/common.py:219 reads trace.nonce_ids
    @property
    def topology(self) -> Topology:
        return self.schedule.plan.topology

    @property
    def nonce_ids(self) -> tuple[SecretId, ...]:
        return self.schedule.nonce_ids


def execute(schedule: Schedule, store: KeyStore) -> ProtocolTrace:
    """Run the schedule over concrete bits, checking every emission against
    an independent evaluation of its symbolic form. A node's output is the
    XOR of the nonces it sends and the shares it absorbs; only the endpoints
    do either. The payloads are folded as plain ints read off the store's
    table; each message and each output becomes one BitString."""
    topo = schedule.plan.topology
    values = store._values
    outputs = {topo.endpoint_a: 0, topo.endpoint_b: 0}
    messages: list[Message] = []
    acc = 0
    for hop, expr in zip(schedule.hops, schedule.exprs):
        # evaluated before the fold, so an id missing from the store is
        # reported by name
        bits = store.evaluate(expr)
        if hop.origin is not None:
            acc = values[hop.origin]
            outputs[hop.sender] ^= acc
        for sid in hop.xor_ids:
            acc ^= values[sid]
        if bits.value != acc:
            raise AssertionError(f"emission {hop.index} disagrees with its expression")
        messages.append(Message(bits, expr))
    for rule in schedule.absorbs:
        share = messages[rule.hop_index].bits.value
        for sid in rule.strip_ids:
            share ^= values[sid]
        outputs[schedule.hops[rule.hop_index].receiver] ^= share

    out_a = BitString(outputs[topo.endpoint_a], store.n)
    out_b = BitString(outputs[topo.endpoint_b], store.n)
    if out_a != out_b:
        raise AssertionError("honest run must agree on the final key")
    return ProtocolTrace(schedule, tuple(messages), out_a, out_b, store)


def run(topo: Topology, variant: Variant, n: int, rng: random.Random) -> ProtocolTrace:
    """Plan, compile and execute one honest run."""
    plan = plan_keys(topo, variant)
    schedule = compile_schedule(plan)
    return execute(schedule, make_store(schedule, n, rng))


def trace_text(trace: ProtocolTrace) -> str:
    lines = [
        f"# variant={trace.schedule.plan.variant.value}"
        f" topology={trace.schedule.plan.topology.describe()} n={trace.store.n}"
    ]
    for hop, msg in zip(trace.schedule.hops, trace.messages):
        lines.append(
            f"M{hop.index} {hop.sender}->{hop.receiver}"
            f" {msg.bits.to_hex()} {msg.expr.text()}"
        )
    lines.append(f"K(A) {trace.output_a.to_hex()}")
    lines.append(f"K(B) {trace.output_b.to_hex()}")
    return "\n".join(lines) + "\n"


def trace_json(trace: ProtocolTrace) -> str:
    doc = {
        "variant": trace.schedule.plan.variant.value,
        "topology": trace.schedule.plan.topology.describe(),
        "n": trace.store.n,
        "messages": [
            {
                "index": hop.index,
                "sender": hop.sender,
                "receiver": hop.receiver,
                "hex": msg.bits.to_hex(),
                "expr": msg.expr.text(),
            }
            for hop, msg in zip(trace.schedule.hops, trace.messages)
        ],
        "output_a": trace.output_a.to_hex(),
        "output_b": trace.output_b.to_hex(),
        "nonces": list(trace.schedule.nonce_ids),
    }
    return json.dumps(doc, indent=2) + "\n"
