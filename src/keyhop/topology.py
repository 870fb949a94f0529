"""Network shapes the relay protocols run over.

Four shapes: the six-node ring, a single chain of m intermediaries, M
node-disjoint parallel paths, and an extended-reach chain where relay keys
span up to t+1 links. Every shape is a set of endpoint-to-endpoint paths;
all protocol scheduling works from the path lists.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Shape",
    "NodeId",
    "Topology",
    "build_ring6",
    "build_chain",
    "build_reach_chain",
    "build_multipath",
    "build_topology",
    "parse_int",
    "parse_float",
    "MAX_HOPS",
    "ROW_CAP",
    "check_runnable",
    "parse_kv",
    "parse_layout_config",
]


class Shape(Enum):
    RING6 = "ring6"
    CHAIN = "chain"
    MULTIPATH = "multipath"
    REACH = "reach"


# Every NodeId built in this process, keyed by its label: one entry per
# distinct label built, never evicted. Equal nodes are one object.
_NODE_IDS: dict[str, NodeId] = {}


class NodeId(str):
    """A node is its label: a str, interned, so constructing it again
    returns the first instance built with that label. Hashing and equality
    are str's, so a node equals its plain label. The endpoints are the ends
    of every path; positions along a path always come from Topology.paths."""

    __slots__ = ()

    def __new__(cls, label: str) -> NodeId:
        node = _NODE_IDS.get(label)
        if node is None:
            node = _NODE_IDS[label] = str.__new__(cls, label)
        return node

    @property
    def label(self) -> NodeId:
        # the node itself; kept because perfbench/common.py and
        # perfbench/layers.py read nd.label
        return self


@dataclass(frozen=True)
class Topology:
    """A layout as its A-to-B paths; every node fact is read off them."""

    shape: Shape
    paths: tuple[tuple[NodeId, ...], ...]
    link_length_km: float
    t: int = 1

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """A, B, then each path's intermediaries in path order."""
        return (self.endpoint_a, self.endpoint_b, *self.intermediaries)

    def node(self, label: str) -> NodeId:
        for nd in self.nodes:
            if nd == label:
                return nd
        raise ValueError(f"no node labeled {label!r}")

    @property
    def endpoint_a(self) -> NodeId:
        return self.paths[0][0]

    @property
    def endpoint_b(self) -> NodeId:
        return self.paths[0][-1]

    @property
    def intermediaries(self) -> tuple[NodeId, ...]:
        return tuple(nd for path in self.paths for nd in path[1:-1])

    @property
    def path_lengths(self) -> tuple[int, ...]:
        """Intermediaries per path."""
        return tuple(len(p) - 2 for p in self.paths)

    @property
    def m(self) -> int:
        lengths = set(self.path_lengths)
        if len(lengths) != 1:
            raise ValueError("paths have differing lengths; use path_lengths")
        return next(iter(lengths))

    @property
    def links(self) -> tuple[tuple[NodeId, NodeId], ...]:
        """Consecutive node pairs along every path."""
        return tuple(pair for path in self.paths for pair in zip(path, path[1:]))

    def describe(self) -> str:
        if self.shape is Shape.RING6:
            return "ring6"
        if self.shape is Shape.CHAIN:
            return f"chain(m={self.m})"
        if self.shape is Shape.REACH:
            return f"reach(m={self.m},t={self.t})"
        inner = ",".join(str(v) for v in self.path_lengths)
        if self.t > 1:
            return f"multipath({inner};t={self.t})"
        return f"multipath({inner})"


def _endpoints() -> tuple[NodeId, NodeId]:
    return NodeId("A"), NodeId("B")


def _check_link_length(link_length_km: float) -> None:
    if not 0 < link_length_km < math.inf:
        raise ValueError("link length must be positive and finite")


def build_ring6(link_length_km: float = 100.0) -> Topology:
    """Six nodes, six links: endpoints joined by two 2-intermediary branches."""
    _check_link_length(link_length_km)
    a, b = _endpoints()
    n1, n2, n3, n4 = (NodeId(f"N{i}") for i in range(1, 5))
    return Topology(Shape.RING6, ((a, n1, n2, b), (a, n3, n4, b)), link_length_km)


def build_chain(m: int, link_length_km: float = 100.0) -> Topology:
    """A single path with m >= 2 intermediaries."""
    if m < 2:
        raise ValueError("a chain needs at least 2 intermediaries")
    _check_link_length(link_length_km)
    a, b = _endpoints()
    inner = tuple(NodeId(f"N{i}") for i in range(1, m + 1))
    return Topology(Shape.CHAIN, ((a, *inner, b),), link_length_km)


def build_reach_chain(m: int, t: int, link_length_km: float = 100.0) -> Topology:
    """A chain whose relay keys may span up to t+1 links, t >= 2.

    Requires m >= t+1, else the endpoints would be within direct relay reach
    of each other and the forwarding scheme degenerates.
    """
    if t < 2:
        raise ValueError("extended reach needs t >= 2")
    if m < t + 1:
        raise ValueError("need m >= t+1 intermediaries for reach t")
    base = build_chain(m, link_length_km)
    return Topology(Shape.REACH, base.paths, link_length_km, t)


def build_multipath(
    path_lengths: tuple[int, ...] | list[int], link_length_km: float = 100.0, t: int = 1
) -> Topology:
    """M node-disjoint paths sharing only the endpoints; path p's nodes are Nj.p."""
    lengths = tuple(path_lengths)
    if not lengths:
        raise ValueError("need at least one path")
    if t < 1:
        raise ValueError("reach parameter must be at least 1")
    for m in lengths:
        if m < 2:
            raise ValueError("every path needs at least 2 intermediaries")
        if m < t + 1:
            raise ValueError("need m >= t+1 intermediaries on every path for reach t")
    _check_link_length(link_length_km)
    a, b = _endpoints()
    paths = tuple(
        (a, *(NodeId(f"N{j}.{p}") for j in range(1, m + 1)), b)
        for p, m in enumerate(lengths, start=1)
    )
    return Topology(Shape.MULTIPATH, paths, link_length_km, t)


def parse_kv(text: str) -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment, blank lines are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key in out:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


# each shape's layout keys beside shape and link_length_km, with defaults
# (None: required); the config file and the CLI's layout flags share them
_SHAPE_KEYS: dict[Shape, dict[str, str | None]] = {
    Shape.RING6: {},
    Shape.CHAIN: {"m": None},
    Shape.REACH: {"m": None, "t": None},
    Shape.MULTIPATH: {"paths": None, "t": "1"},
}


def parse_int(text: str, name: str) -> int:
    """text as an integer; an error names name, its flag or config key."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name}: {text.strip()!r} is not an integer") from None


def parse_float(text: str, name: str) -> float:
    """text as a number; an error names name, its flag or config key."""
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{name}: {text.strip()!r} is not a number") from None


MAX_HOPS = 1 << 16  # the wire numbers hops with a u16 index
ROW_CAP = 1 << 20  # rows of any CSV: coalitions.csv, rates.csv, collusion_grid.csv


def check_runnable(count: int) -> None:
    """Refuse a layout of more intermediaries than the wire's hop limit
    before it is built; every command is bound by it."""
    if count > MAX_HOPS:
        raise ValueError(f"{count} intermediaries exceed the wire limit of {MAX_HOPS} hops")


def build_topology(
    shape: Shape,
    keys: dict[str, str],
    link_length_km: float = 100.0,
    check: Callable[[int], None] = check_runnable,
) -> Topology:
    """The one dispatch from a shape and its layout keys (text values, as a
    config file states them) to the shape's builder. The intermediary
    count they ask for (a missing key counts 0) goes to check first."""
    if shape is Shape.MULTIPATH:
        lengths = [parse_int(v, "paths") for v in keys.get("paths", "0").split(",")]
    else:
        lengths = [2, 2] if shape is Shape.RING6 else [parse_int(keys.get("m", "0"), "m")]
    check(sum(lengths))
    ignored = set(keys) - set(_SHAPE_KEYS[shape])
    if ignored:
        raise ValueError(f"shape {shape.value!r} does not read {sorted(ignored)}")
    given = {**_SHAPE_KEYS[shape], **keys}
    for key, value in given.items():
        if value is None:
            raise ValueError(f"shape {shape.value!r} requires {key!r}")
    if shape is Shape.RING6:
        return build_ring6(link_length_km)
    if shape is Shape.CHAIN:
        return build_chain(lengths[0], link_length_km)
    t = parse_int(given["t"], "t")
    if shape is Shape.REACH:
        return build_reach_chain(lengths[0], t, link_length_km)
    return build_multipath(lengths, link_length_km, t)


def parse_layout_config(text: str) -> tuple[Shape, dict[str, str], float]:
    """A config file's shape, layout keys and link length, as build_topology
    takes them."""
    kv = parse_kv(text)
    name = kv.pop("shape", None)
    if name is None:
        raise ValueError("missing 'shape'")
    try:
        shape = Shape(name)
    except ValueError:
        raise ValueError(f"unknown shape {name!r}") from None
    link = parse_float(kv.pop("link_length_km", "100"), "link_length_km")
    return shape, kv, link
