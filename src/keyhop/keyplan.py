"""Key planning: which secrets each protocol variant consumes, and who holds them.

plan_keys derives the exact key set from the protocol schedule for a
(topology, variant) pair, and cm_report summarizes
which nodes need photon sources versus measurement hardware. Endpoints only
ever send; each key's measuring node measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .bits import SecretId, p2p_key, tf_key
from .topology import NodeId, Shape, Topology

__all__ = [
    "Variant",
    "PlanEntry",
    "KeyPlan",
    "plan_keys",
    "cm_report",
]


class Variant(Enum):
    """The relay protocol being run: a shape, whether its two endpoint links
    carry point-to-point keys, and the intermediary count it fixes, if any.
    The value is the CLI name."""

    RING_V1 = ("ring-v1", Shape.RING6, False)
    RING_V2 = ("ring-v2", Shape.RING6, True)
    CHAIN2 = ("chain2", Shape.CHAIN, True, 2)
    CHAIN_M = ("chain-m", Shape.CHAIN, True)
    REACH_T = ("reach-t", Shape.REACH, True)
    MULTIPATH = ("multipath", Shape.MULTIPATH, True)

    def __new__(cls, value: str, shape: Shape, endpoint_links: bool, m: int | None = None):
        member = object.__new__(cls)
        member._value_ = value
        member.shape = shape
        member.endpoint_links = endpoint_links
        member.m = m
        return member

    @classmethod
    def default_for(cls, shape: Shape) -> Variant:
        """The variant of this shape with keyed endpoint links and no fixed m."""
        return next(v for v in cls if v.shape is shape and v.endpoint_links and v.m is None)


def check_compatible(topo: Topology, variant: Variant) -> None:
    if topo.shape is not variant.shape:
        raise ValueError(
            f"variant {variant.value} needs shape {variant.shape.value}, got {topo.shape.value}"
        )
    if variant.m is not None and topo.m != variant.m:
        raise ValueError(f"{variant.value} runs on exactly {variant.m} intermediaries")


class PlanEntry(NamedTuple):
    """One key to establish: its id and the node that measures it. Every
    other end of the key sends."""

    secret_id: SecretId
    measurer: NodeId


@dataclass(frozen=True)
class KeyPlan:
    topology: Topology
    variant: Variant
    entries: tuple[PlanEntry, ...]


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
                entries.append(PlanEntry(tf_key(path[i], path[j]), path[(i + j) // 2]))
        if variant.endpoint_links:  # each endpoint link's intermediary end measures
            a, first, final, b = path[0], path[1], path[last - 1], path[last]
            entries.append(PlanEntry(p2p_key(a, first), first))
            entries.append(PlanEntry(p2p_key(final, b), final))
    return KeyPlan(topo, variant, tuple(entries))


def cm_report(plan: KeyPlan) -> list[str]:
    """Which nodes need a source and which need measurement hardware, one
    line per node in topology order.

    Every end of a key other than its measurer sends; the measurer measures.
    An endpoint in a measuring role is a planning error and is rejected.
    """
    topo = plan.topology
    source: dict[NodeId, bool] = {nd: False for nd in topo.nodes}
    meas: dict[NodeId, bool] = {nd: False for nd in topo.nodes}
    for entry in plan.entries:
        if entry.measurer in (topo.endpoint_a, topo.endpoint_b):
            raise ValueError(
                f"endpoint {entry.measurer} may not measure in the establishment"
                f" of {entry.secret_id}"
            )
        for end in entry.secret_id.ends:
            if end != entry.measurer:
                source[end] = True
        meas[entry.measurer] = True
    return [
        f"{nd}: source={'yes' if source[nd] else 'no'} measurement={'yes' if meas[nd] else 'no'}"
        for nd in source
    ]
