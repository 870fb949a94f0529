"""Key planning: which secrets each protocol variant consumes, and who holds them.

plan_keys derives the exact key set from the protocol schedule for a
(topology, variant) pair, establish draws the bits, and cm_report summarizes
which nodes need photon sources versus measurement hardware. Endpoints only
ever send in point-to-point establishment; relays only measure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .bits import BitString, KeyStore, SecretId, SecretKind, p2p_key, parse_secret_name, tf_key
from .topology import NodeId, Shape, Topology

__all__ = [
    "Variant",
    "PlanEntry",
    "KeyPlan",
    "plan_keys",
    "establish",
    "HardwareReport",
    "cm_report",
    "key_oracle_text",
    "parse_key_oracle",
]


class Variant(Enum):
    """The relay protocol being run."""

    RING_V1 = "ring-v1"
    RING_V2 = "ring-v2"
    CHAIN2 = "chain2"
    CHAIN_M = "chain-m"
    REACH_T = "reach-t"
    MULTIPATH = "multipath"


_SHAPE_FOR = {
    Variant.RING_V1: Shape.RING6,
    Variant.RING_V2: Shape.RING6,
    Variant.CHAIN2: Shape.CHAIN,
    Variant.CHAIN_M: Shape.CHAIN,
    Variant.REACH_T: Shape.REACH,
    Variant.MULTIPATH: Shape.MULTIPATH,
}


def check_compatible(topo: Topology, variant: Variant) -> None:
    want = _SHAPE_FOR[variant]
    if topo.shape is not want:
        raise ValueError(f"variant {variant.value} needs shape {want.value}, got {topo.shape.value}")
    if variant is Variant.CHAIN2 and topo.m != 2:
        raise ValueError("chain2 runs on exactly 2 intermediaries")


@dataclass(frozen=True)
class PlanEntry:
    """One key to establish: its id, mechanism, and the hardware roles."""

    secret_id: SecretId
    mechanism: str  # "P2P" or "TF"
    sender: NodeId
    measurer: NodeId
    relay: NodeId | None = None


@dataclass(frozen=True)
class KeyPlan:
    topology: Topology
    variant: Variant
    entries: tuple[PlanEntry, ...]

    @property
    def secret_ids(self) -> tuple[SecretId, ...]:
        return tuple(e.secret_id for e in self.entries)

    def keys_of(self, label: str) -> tuple[SecretId, ...]:
        return tuple(e.secret_id for e in self.entries if e.secret_id.involves(label))


def plan_keys(topo: Topology, variant: Variant) -> KeyPlan:
    """Derive the key set the variant's schedule consumes.

    Per path: one relay key for every same-path pair at distance 2..t+1,
    measured at the midpoint; plus, except in the unpatched ring protocol,
    point-to-point keys on the two endpoint links.
    """
    check_compatible(topo, variant)
    entries: list[PlanEntry] = []
    for path in topo.paths:
        last = len(path) - 1
        for i in range(last + 1):
            for j in range(i + 2, min(i + topo.t + 1, last) + 1):
                relay = path[(i + j) // 2]
                entries.append(
                    PlanEntry(
                        tf_key(path[i].label, path[j].label),
                        "TF",
                        sender=path[i],
                        measurer=relay,
                        relay=relay,
                    )
                )
        if variant is not Variant.RING_V1:
            for u, v in ((path[0], path[1]), (path[last - 1], path[last])):
                endpoint, other = (u, v) if u.is_endpoint else (v, u)
                entries.append(
                    PlanEntry(p2p_key(u.label, v.label), "P2P", sender=endpoint, measurer=other)
                )
    return KeyPlan(topo, variant, tuple(entries))


def establish(plan: KeyPlan, n: int, rng: random.Random) -> KeyStore:
    """Draw every planned key, in plan order, into a fresh store."""
    store = KeyStore(n)
    for entry in plan.entries:
        store.sample(entry.secret_id, rng)
    return store


@dataclass(frozen=True)
class HardwareReport:
    """Per-node photonic requirements implied by a key plan."""

    flags: tuple[tuple[str, bool, bool], ...]  # (label, needs_source, needs_measurement)

    def needs_source(self, label: str) -> bool:
        return any(src for lab, src, _ in self.flags if lab == label)

    def needs_measurement(self, label: str) -> bool:
        return any(meas for lab, _, meas in self.flags if lab == label)

    def lines(self) -> list[str]:
        return [
            f"{label}: source={'yes' if src else 'no'} measurement={'yes' if meas else 'no'}"
            for label, src, meas in self.flags
        ]


def cm_report(plan: KeyPlan) -> HardwareReport:
    """Which nodes need a source and which need measurement hardware.

    Point-to-point establishment always runs endpoint-as-sender; both parties
    of a relay-established key send while the relay measures. An endpoint in
    a measuring role is a planning error and is rejected.
    """
    nodes = plan.topology.nodes
    source: dict[str, bool] = {nd.label: False for nd in nodes}
    meas: dict[str, bool] = {nd.label: False for nd in nodes}
    for entry in plan.entries:
        if entry.mechanism == "P2P":
            if entry.measurer.is_endpoint:
                raise ValueError(
                    f"endpoint {entry.measurer.label} may not measure in point-to-point"
                    f" establishment of {entry.secret_id}"
                )
            source[entry.sender.label] = True
            meas[entry.measurer.label] = True
        else:
            for label in entry.secret_id.ends:
                source[label] = True
            assert entry.relay is not None
            meas[entry.relay.label] = True
    return HardwareReport(tuple((lab, source[lab], meas[lab]) for lab in source))


def key_oracle_text(store: KeyStore) -> str:
    """Serialize a store, one 'NAME<TAB>hex' line per secret, sorted by name."""
    ids = sorted(store.ids(), key=lambda s: s.name)
    return "".join(f"{sid.name}\t{store[sid].to_hex()}\n" for sid in ids)


def parse_key_oracle(
    text: str, n: int, node_label: str | None = None
) -> dict[SecretId, BitString]:
    """Parse key-oracle lines back into values.

    With node_label set, keep only secrets that list the node as an endpoint
    (for nonces, the owner). Malformed lines are rejected.
    """
    out: dict[SecretId, BitString] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        parts = raw.split("\t")
        if len(parts) != 2:
            raise ValueError(f"key oracle line {lineno}: expected NAME<TAB>hex")
        sid = parse_secret_name(parts[0].strip())
        try:
            value = BitString.from_hex(parts[1].strip(), n)
        except ValueError as exc:
            raise ValueError(f"key oracle line {lineno}: {exc}") from None
        if sid in out:
            raise ValueError(f"key oracle line {lineno}: duplicate id {sid}")
        if node_label is None or sid.involves(node_label):
            out[sid] = value
    return out
