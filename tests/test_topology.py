import copy
import dataclasses
import pickle

import pytest

from keyhop import topology
from keyhop.analysis import check_enumerable
from keyhop.bits import tf_key
from keyhop.keyplan import Variant, plan_keys
from keyhop.topology import (
    NodeId,
    Shape,
    build_chain,
    build_multipath,
    build_reach_chain,
    build_ring6,
    build_topology,
    parse_layout_config,
)


def test_ring_has_six_nodes_and_six_links():
    topo = build_ring6()
    assert len(topo.nodes) == 6
    assert len(topo.links) == 6
    assert topo.describe() == "ring6"
    assert [n.label for n in topo.intermediaries] == ["N1", "N2", "N3", "N4"]
    assert topo.path_lengths == (2, 2)


def test_node_ids_are_their_labels_in_sets_and_dicts():
    topo = build_chain(3)
    assert NodeId("N2") == topo.node("N2") and hash(NodeId("N2")) == hash(topo.node("N2"))
    assert {NodeId("N2"): 1}[topo.node("N2")] == 1
    assert len({NodeId(f"N{i}") for i in (1, 2, 2, 3)}) == 3


def test_node_ids_are_interned():
    topo = build_chain(3)
    assert NodeId("N2") is topo.node("N2") is topo.paths[0][2]
    assert build_ring6().endpoint_a is NodeId("A") is topo.endpoint_a
    assert not {"__hash__", "__eq__", "__reduce__"} & set(vars(NodeId))
    assert NodeId.__hash__ is str.__hash__ and NodeId.__eq__ is str.__eq__
    assert NodeId.__init__ is object.__init__


def test_a_node_is_its_label():
    nd = NodeId("N1")
    assert nd == "N1" and hash(nd) == hash("N1") and nd.label is nd
    assert isinstance(nd, str) and not dataclasses.is_dataclass(NodeId)
    assert build_chain(3).node("N1") is nd
    # a plan's keys name the very nodes of the layout's paths, also when an
    # id with the same labels was first built from plain strings
    tf_key("A", "N2.1")
    topo = build_multipath([3, 3], 100.0, 2)
    on_path = {id(node) for path in topo.paths for node in path}
    plan = plan_keys(topo, Variant.MULTIPATH)
    assert all(id(end) in on_path for entry in plan.entries for end in entry.secret_id.ends)


@pytest.mark.parametrize(
    "how",
    [
        lambda nd: pickle.loads(pickle.dumps(nd)),
        copy.copy,
        copy.deepcopy,
    ],
    ids=["pickle", "copy", "deepcopy"],
)
def test_copies_of_a_node_id_are_the_interned_id(how):
    node = build_multipath([2, 3]).node("N3.2")
    assert how(node) is node


def test_ring_adjacency_follows_both_arcs():
    topo = build_ring6()
    node = topo.node
    assert (node("A"), node("N1")) in topo.links
    assert (node("A"), node("N3")) in topo.links
    assert {(node("A"), node("B")), (node("B"), node("A"))}.isdisjoint(topo.links)
    assert {(node("N1"), node("N3")), (node("N3"), node("N1"))}.isdisjoint(topo.links)


def test_chain_counts_scale_with_m():
    for m in range(2, 7):
        topo = build_chain(m)
        assert topo.m == m
        assert len(topo.nodes) == m + 2
        assert len(topo.links) == m + 1
    assert build_chain(3).describe() == "chain(m=3)"


def test_chain_rejects_fewer_than_two_intermediaries():
    with pytest.raises(ValueError):
        build_chain(1)


def test_reach_chain_requires_room_for_the_reach():
    topo = build_reach_chain(3, 2)
    assert topo.shape is Shape.REACH
    assert topo.t == 2
    assert topo.describe() == "reach(m=3,t=2)"
    with pytest.raises(ValueError):
        build_reach_chain(2, 2)  # endpoints would fall inside one hop's reach
    with pytest.raises(ValueError):
        build_reach_chain(4, 1)


def test_multipath_paths_are_node_disjoint():
    topo = build_multipath([2, 3, 2])
    assert topo.describe() == "multipath(2,3,2)"
    assert topo.path_lengths == (2, 3, 2)
    with pytest.raises(ValueError, match="paths have differing lengths"):
        topo.m
    labels = [n.label for n in topo.intermediaries]
    assert len(labels) == len(set(labels)) == 7
    shared = set(topo.paths[0]) & set(topo.paths[1])
    assert {n.label for n in shared} == {"A", "B"}


def test_multipath_rejects_short_or_unreachable_paths():
    with pytest.raises(ValueError, match="need at least one path"):
        build_multipath([])
    with pytest.raises(ValueError):
        build_multipath([2, 1])
    with pytest.raises(ValueError):
        build_multipath([2, 2], t=2)  # reach 2 spans a 2-intermediary path


def test_ring_reachable_pairs():
    entries = plan_keys(build_ring6(), Variant.RING_V2).entries
    pairs = {e.secret_id.ends: e.secret_id[0] for e in entries}  # P: adjacent link, K: relay
    assert pairs == {
        ("A", "N1"): "P",
        ("N2", "B"): "P",
        ("A", "N3"): "P",
        ("N4", "B"): "P",
        ("A", "N2"): "K",
        ("N1", "B"): "K",
        ("A", "N4"): "K",
        ("N3", "B"): "K",
    }


def test_chain_reach_two_pairs_and_relays():
    entries = plan_keys(build_reach_chain(3, 2), Variant.REACH_T).entries
    by_labels = {e.secret_id.ends: e for e in entries}
    tf = {lab for lab, p in by_labels.items() if p.secret_id.startswith("K[")}
    assert tf == {("A", "N2"), ("N1", "N3"), ("N2", "B"), ("A", "N3"), ("N1", "B")}
    assert by_labels[("A", "N2")].measurer.label == "N1"
    assert by_labels[("A", "N3")].measurer.label == "N1"  # midpoint ties go low
    assert by_labels[("N1", "B")].measurer.label == "N2"
    p2p = {lab for lab, p in by_labels.items() if p.secret_id.startswith("P[")}
    assert p2p == {("A", "N1"), ("N3", "B")}


def test_reachable_pairs_grow_with_reach():
    plans = [plan_keys(build_chain(5), Variant.CHAIN_M)]
    plans += [plan_keys(build_reach_chain(5, t), Variant.REACH_T) for t in (2, 3)]
    counts = [len(plan.entries) for plan in plans]
    assert counts[0] < counts[1] < counts[2]


_CONFIG_TEXTS = {
    "ring6": "shape = ring6\nlink_length_km = 120.0\n",
    "chain(m=4)": "shape = chain\nlink_length_km = 80\nm = 4\n",
    "reach(m=4,t=3)": "shape = reach\nm = 4\nt = 3\n",
    "multipath(2,2)": "shape = multipath\npaths = 2,2\n",
}


@pytest.mark.parametrize(
    "topo",
    [build_ring6(120.0), build_chain(4, 80.0), build_reach_chain(4, 3), build_multipath([2, 2], t=1)],
)
def test_config_round_trip(topo):
    # a config file naming the layout, with the defaults left out where they hold
    text = _CONFIG_TEXTS[topo.describe()]
    assert build_topology(*parse_layout_config(text)) == topo


def test_config_rejects_unknown_shape_and_missing_keys():
    with pytest.raises(ValueError, match="unknown shape 'lattice'"):
        parse_layout_config("shape = lattice\nlink_length_km = 100\n")
    with pytest.raises(ValueError, match="requires 'm'"):
        build_topology(*parse_layout_config("shape = chain\nlink_length_km = 100\n"))
    with pytest.raises(ValueError, match="does not read"):
        build_topology(*parse_layout_config("shape = chain\nm = 3\nbogus = 1\n"))


def test_link_length_must_be_positive():
    with pytest.raises(ValueError):
        build_chain(2, 0.0)
    with pytest.raises(ValueError):
        build_ring6(-5.0)


@pytest.mark.parametrize(
    "text",
    ["shape = ring6\nm = 5\n", "shape = chain\nm = 3\nt = 2\n", "shape = multipath\npaths = 3,3\nm = 9\n"],
    ids=["ring6-m", "chain-t", "multipath-m"],
)
def test_config_rejects_keys_its_shape_ignores(text):
    with pytest.raises(ValueError, match="does not read"):
        build_topology(*parse_layout_config(text))


def _refuse_building(monkeypatch, why):
    """Make each of the four layout builders fail the test if it is called."""

    def refuse(*args):
        raise AssertionError(why)

    for name in ("build_ring6", "build_chain", "build_reach_chain", "build_multipath"):
        monkeypatch.setattr(topology, name, refuse)


def test_build_topology_refuses_an_oversized_layout_before_building_it(monkeypatch):
    _refuse_building(monkeypatch, "built a layout past its bound")
    with pytest.raises(ValueError, match=rf"^{10**20} intermediaries exceed the wire limit of 65536"):
        build_topology(Shape.CHAIN, {"m": str(10**20)})
    cap = "^21 intermediaries exceeds the exhaustive enumeration cap of 20$"
    with pytest.raises(ValueError, match=cap):
        build_topology(Shape.CHAIN, {"m": "21"}, check=check_enumerable)
    # the count is refused before a key the shape ignores
    with pytest.raises(ValueError, match=cap):
        build_topology(Shape.CHAIN, {"m": "21", "t": "3"}, check=check_enumerable)


@pytest.mark.parametrize(
    "shape, keys, count, missing",
    [
        (Shape.RING6, {}, 4, None),
        (Shape.CHAIN, {"m": "5"}, 5, None),
        (Shape.CHAIN, {}, 0, "m"),
        (Shape.REACH, {"m": "6", "t": "2"}, 6, None),
        (Shape.REACH, {"m": "6"}, 6, "t"),
        (Shape.MULTIPATH, {"paths": "2,3,4"}, 9, None),
        (Shape.MULTIPATH, {"t": "2"}, 0, "paths"),
    ],
)
def test_build_topology_passes_the_intermediary_count_to_check(shape, keys, count, missing):
    # a missing key counts 0, and is reported once the count has passed
    seen = []
    if missing:
        with pytest.raises(ValueError, match=f"requires '{missing}'"):
            build_topology(shape, keys, check=seen.append)
    else:
        assert len(build_topology(shape, keys, check=seen.append).intermediaries) == count
    assert seen == [count]
