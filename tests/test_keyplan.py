import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyhop.bits import BitString, p2p_key, tf_key
from keyhop.keyplan import (
    KeyPlan,
    PlanEntry,
    Variant,
    check_compatible,
    cm_report,
    plan_keys,
)
from keyhop.protocol import compile_schedule, make_store, run
from keyhop.topology import build_chain, build_multipath, build_reach_chain, build_ring6


def _ids(plan):
    return [entry.secret_id for entry in plan.entries]


def test_ring_v1_plan_has_only_relay_keys():
    plan = plan_keys(build_ring6(), Variant.RING_V1)
    assert set(_ids(plan)) == {
        tf_key("A", "N2"),
        tf_key("N1", "B"),
        tf_key("A", "N4"),
        tf_key("N3", "B"),
    }


def test_ring_v2_plan_adds_endpoint_link_keys():
    plan = plan_keys(build_ring6(), Variant.RING_V2)
    assert len(_ids(plan)) == 8
    assert set(_ids(plan)) - set(_ids(plan_keys(build_ring6(), Variant.RING_V1))) == {
        p2p_key("A", "N1"),
        p2p_key("N2", "B"),
        p2p_key("A", "N3"),
        p2p_key("N4", "B"),
    }


def test_chain2_plan():
    plan = plan_keys(build_chain(2), Variant.CHAIN2)
    assert set(_ids(plan)) == {
        tf_key("A", "N2"),
        tf_key("N1", "B"),
        p2p_key("A", "N1"),
        p2p_key("N2", "B"),
    }


def test_chain_key_count_is_m_plus_two():
    for m in range(2, 8):
        plan = plan_keys(build_chain(m), Variant.CHAIN_M)
        assert len(_ids(plan)) == m + 2


def test_reach_plan_spans_distances_up_to_t_plus_one():
    plan = plan_keys(build_reach_chain(3, 2), Variant.REACH_T)
    assert set(_ids(plan)) == {
        tf_key("A", "N2"),
        tf_key("N1", "N3"),
        tf_key("N2", "B"),
        tf_key("A", "N3"),
        tf_key("N1", "B"),
        p2p_key("A", "N1"),
        p2p_key("N3", "B"),
    }


def test_multipath_plan_is_per_path_disjoint():
    plan = plan_keys(build_multipath([2, 2]), Variant.MULTIPATH)
    per_path = {0: set(), 1: set()}
    for sid in _ids(plan):
        suffixes = {lab.split(".")[-1] for lab in sid.ends if "." in lab}
        assert len(suffixes) <= 1
        if suffixes:
            per_path[int(suffixes.pop()) - 1].add(sid)
    assert len(per_path[0]) == len(per_path[1]) == 4


# the variants each layout accepts, written out rather than read off Variant
_ACCEPTED = {
    "ring6": {Variant.RING_V1, Variant.RING_V2},
    "chain(m=2)": {Variant.CHAIN2, Variant.CHAIN_M},
    "chain(m=3)": {Variant.CHAIN_M},
    "reach(m=3,t=2)": {Variant.REACH_T},
    "multipath(2,2)": {Variant.MULTIPATH},
}
_LAYOUTS = [
    build_ring6(),
    build_chain(2),
    build_chain(3),
    build_reach_chain(3, 2),
    build_multipath([2, 2]),
]


@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("topo", _LAYOUTS, ids=lambda t: t.describe())
def test_variant_topology_compatibility(topo, variant):
    if variant in _ACCEPTED[topo.describe()]:
        check_compatible(topo, variant)
    elif topo.shape is variant.shape:
        with pytest.raises(ValueError, match="^chain2 runs on exactly 2 intermediaries$"):
            check_compatible(topo, variant)
    else:
        want = f"^variant {variant.value} needs shape {variant.shape.value}, got {topo.shape.value}$"
        with pytest.raises(ValueError, match=want):
            check_compatible(topo, variant)


def test_establish_is_deterministic_and_plan_ordered():
    # make_store establishes the plan's keys in plan order, before the nonces
    schedule = compile_schedule(plan_keys(build_chain(3), Variant.CHAIN_M))
    s1 = make_store(schedule, 32, random.Random(5))
    s2 = make_store(schedule, 32, random.Random(5))
    keys = _ids(schedule.plan)
    assert list(s1.ids()[: len(keys)]) == list(keys)
    assert all(s1[sid] == s2[sid] for sid in s1.ids())


def _hardware(plan):
    """cm_report's lines, read back as label -> (needs source, needs measurement)."""
    flags = {}
    for line in cm_report(plan):
        label, source, measurement = line.replace(":", "").split()
        flags[label] = (source == "source=yes", measurement == "measurement=yes")
    return flags


def test_hardware_report_ring():
    assert _hardware(plan_keys(build_ring6(), Variant.RING_V2)) == {
        "A": (True, False),
        "B": (True, False),
        **dict.fromkeys(("N1", "N2", "N3", "N4"), (True, True)),
    }


def test_hardware_report_reach_relays_measure():
    flags = _hardware(plan_keys(build_reach_chain(3, 2), Variant.REACH_T))
    # N2 relays both A..B-spanning pairs; N1 and N3 each relay one and
    # also source toward their endpoint link
    assert {lab: meas for lab, (_, meas) in flags.items()} == {
        "A": False,
        "B": False,
        **dict.fromkeys(("N1", "N2", "N3"), True),
    }


@pytest.mark.parametrize("key", [tf_key("A", "N2"), p2p_key("A", "N1"), p2p_key("N2", "B")], ids=str)
def test_hardware_report_rejects_an_endpoint_measurer(key):
    topo = build_chain(2)
    end = next(label for label in key.ends if label in ("A", "B"))
    plan = KeyPlan(topo, Variant.CHAIN_M, (PlanEntry(key, topo.node(end)),))
    with pytest.raises(ValueError, match=f"endpoint {end} may not measure"):
        cm_report(plan)


def test_plan_entries_keep_their_field_order_and_refuse_assignment():
    assert PlanEntry._fields == ("secret_id", "measurer")
    entry = plan_keys(build_ring6(), Variant.RING_V2).entries[0]
    for name in PlanEntry._fields:
        with pytest.raises(AttributeError):
            setattr(entry, name, None)


@st.composite
def _layouts(draw):
    """ring6 v1/v2, chain, reach or multipath, with at most 12 intermediaries."""
    kind = draw(st.sampled_from(("ring6", "chain", "reach", "multipath")))
    if kind == "ring6":
        return build_ring6(), draw(st.sampled_from((Variant.RING_V1, Variant.RING_V2)))
    if kind == "chain":
        m = draw(st.integers(2, 12))
        variants = (Variant.CHAIN2, Variant.CHAIN_M) if m == 2 else (Variant.CHAIN_M,)
        return build_chain(m), draw(st.sampled_from(variants))
    if kind == "reach":
        t = draw(st.integers(2, 5))
        return build_reach_chain(draw(st.integers(t + 1, 12)), t), Variant.REACH_T
    t = draw(st.integers(1, 3))
    lengths = draw(
        st.lists(st.integers(max(2, t + 1), 6), min_size=1, max_size=4).filter(
            lambda ls: sum(ls) <= 12
        )
    )
    return build_multipath(lengths, 100.0, t), Variant.MULTIPATH


@settings(max_examples=60, deadline=None)
@given(_layouts())
def test_generated_layouts_name_every_secret_distinctly(layout):
    # an id is its name, which labels it in traces and views: two secrets
    # must never share one, and each name spells the ends the id holds
    topo, variant = layout
    ids = run(topo, variant, 8, random.Random(0)).store.ids()
    assert len(set(ids)) == len(ids)
    assert all(sid[2:-1].partition("@")[0].split(",") == list(sid.ends) for sid in ids)


@settings(max_examples=60, deadline=None)
@given(_layouts(), st.integers(0, 2**32 - 1))
def test_generated_layouts_fold_nonces_and_measure_only_at_intermediaries(layout, seed):
    topo, variant = layout
    trace = run(topo, variant, 24, random.Random(seed))
    fold = 0
    for nid in trace.nonce_ids:
        fold ^= trace.store[nid].value
    assert trace.output_a == trace.output_b == BitString(fold, 24)

    plan = plan_keys(topo, variant)
    measurers = {entry.measurer.label for entry in plan.entries}
    assert not {topo.endpoint_a.label, topo.endpoint_b.label} & measurers
    flags = _hardware(plan)
    assert {lab: meas for lab, (_, meas) in flags.items()} == {
        nd.label: nd.label in measurers for nd in topo.nodes
    }
