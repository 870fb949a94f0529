import json
import random
import time

import pytest

from keyhop.bits import BitString, nonce
from keyhop.keyplan import Variant, plan_keys
from keyhop.protocol import compile_schedule, make_store, run, trace_json, trace_text
from keyhop.topology import (
    NodeId,
    Shape,
    Topology,
    build_chain,
    build_multipath,
    build_reach_chain,
    build_ring6,
)


def _exprs(trace):
    return [(f"{m.sender}->{m.receiver}", m.expr.text()) for m in trace.messages]


def test_ring_v1_message_algebra():
    trace = run(build_ring6(), Variant.RING_V1, 16, random.Random(0))
    assert _exprs(trace) == [
        ("A->N1", "K[A,N2]+X[A]"),
        ("N1->N2", "K[A,N2]+K[N1,B]+X[A]"),
        ("N2->B", "K[N1,B]+X[A]"),
        ("B->N4", "K[N3,B]+X[B]"),
        ("N4->N3", "K[A,N4]+K[N3,B]+X[B]"),
        ("N3->A", "K[A,N4]+X[B]"),
    ]
    assert trace.output_a == trace.output_b
    assert trace.output_a == trace.store[nonce("A")] ^ trace.store[nonce("B")]


def test_ring_v2_message_algebra():
    trace = run(build_ring6(), Variant.RING_V2, 16, random.Random(0))
    # each sender folds in every key it holds on the path, so a link key
    # shared by sender and receiver cancels out of the next message
    assert _exprs(trace) == [
        ("A->N1", "K[A,N2]+P[A,N1]+X[A]"),
        ("N1->N2", "K[A,N2]+K[N1,B]+X[A]"),
        ("N2->B", "K[N1,B]+P[N2,B]+X[A]"),
        ("B->N4", "K[N3,B]+P[N4,B]+X[B]"),
        ("N4->N3", "K[A,N4]+K[N3,B]+X[B]"),
        ("N3->A", "K[A,N4]+P[A,N3]+X[B]"),
    ]
    assert trace.output_a == trace.output_b


def test_chain2_message_algebra():
    trace = run(build_chain(2), Variant.CHAIN2, 16, random.Random(0))
    assert _exprs(trace) == [
        ("A->N1", "K[A,N2]+P[A,N1]+X[A]"),
        ("N1->N2", "K[A,N2]+K[N1,B]+X[A]"),
        ("N2->B", "K[N1,B]+P[N2,B]+X[A]"),
    ]
    assert trace.output_a == trace.output_b == trace.store[nonce("A")]


def test_chain2_equals_chain_m_at_two():
    t1 = run(build_chain(2), Variant.CHAIN2, 16, random.Random(3))
    t2 = run(build_chain(2), Variant.CHAIN_M, 16, random.Random(3))
    assert _exprs(t1) == _exprs(t2)
    assert t1.output_a == t2.output_a


def test_reach_message_algebra():
    trace = run(build_reach_chain(3, 2), Variant.REACH_T, 16, random.Random(0))
    assert _exprs(trace) == [
        ("A->N1", "K[A,N2]+K[A,N3]+P[A,N1]+X[A]"),
        ("N1->N2", "K[A,N2]+K[A,N3]+K[N1,B]+K[N1,N3]+X[A]"),
        ("N2->N3", "K[A,N3]+K[N1,B]+K[N1,N3]+K[N2,B]+X[A]"),
        ("N3->B", "K[N1,B]+K[N2,B]+P[N3,B]+X[A]"),
    ]
    assert trace.output_a == trace.output_b == trace.store[nonce("A")]


def test_multipath_final_key_folds_every_path_nonce():
    trace = run(build_multipath([2, 3]), Variant.MULTIPATH, 16, random.Random(1))
    assert [s.name for s in trace.nonce_ids] == ["X[A@1]", "X[A@2]"]
    assert trace.output_a == trace.store[nonce("A", 1)] ^ trace.store[nonce("A", 2)]
    senders = [m.sender.label for m in trace.messages]
    assert senders == ["A", "N1.1", "N2.1", "A", "N1.2", "N2.2", "N3.2"]


def test_ring_v2_matches_two_by_two_multipath():
    # same draw schedule, same final key; the second path runs B->A on the
    # ring and A->B on the multipath twin, so its messages come out mirrored
    v2 = run(build_ring6(), Variant.RING_V2, 16, random.Random(9))
    mp = run(build_multipath([2, 2]), Variant.MULTIPATH, 16, random.Random(9))
    assert v2.output_a == mp.output_a
    assert sorted(m.bits.to_hex() for m in v2.messages) == sorted(
        m.bits.to_hex() for m in mp.messages
    )


def test_compiling_many_paths_is_linear():
    # a scan of every planned key per path makes this quadratic (about 5 s)
    plan = plan_keys(build_multipath([2] * 1000, 100.0, 1), Variant.MULTIPATH)
    start = time.perf_counter()
    schedule = compile_schedule(plan)
    elapsed = time.perf_counter() - start
    assert len(schedule.hops) == 3000 and len(schedule.absorbs) == 1000
    assert elapsed < 1.0, f"compile took {elapsed:.2f} s"


def test_compile_refuses_a_key_between_the_endpoints():
    # built by hand, past the builders' m >= t+1 check: reach 2 plans K[A,B]
    path = (NodeId("A"), NodeId("N1"), NodeId("B"))
    plan = plan_keys(Topology(Shape.CHAIN, (path,), 100.0, t=2), Variant.CHAIN_M)
    assert "K[A,B]" in [sid.name for sid in plan.secret_ids]
    with pytest.raises(ValueError, match="K\\[A,B\\] does not join an intermediary"):
        compile_schedule(plan)


def test_every_message_evaluates_to_its_expr():
    for trace in (
        run(build_ring6(), Variant.RING_V2, 24, random.Random(4)),
        run(build_chain(5), Variant.CHAIN_M, 24, random.Random(4)),
        run(build_multipath([2, 2, 3], t=1), Variant.MULTIPATH, 24, random.Random(4)),
    ):
        for msg in trace.messages:
            assert msg.bits == trace.store.evaluate(msg.expr)


def test_intermediaries_never_touch_nonces():
    trace = run(build_chain(4), Variant.CHAIN_M, 8, random.Random(0))
    sched = compile_schedule(plan_keys(trace.topology, Variant.CHAIN_M))
    for hop in sched.hops:
        assert all(sid.kind.value != "X" for sid in hop.xor_ids)


def test_run_is_deterministic():
    a = trace_text(run(build_ring6(), Variant.RING_V2, 64, random.Random(21)))
    b = trace_text(run(build_ring6(), Variant.RING_V2, 64, random.Random(21)))
    assert a == b
    c = trace_text(run(build_ring6(), Variant.RING_V2, 64, random.Random(22)))
    assert a != c


def test_payload_delivery_over_chain():
    topo = build_chain(3)
    z = BitString.from01("1100101011110000")
    trace = run(topo, Variant.CHAIN_M, 16, random.Random(6), payload=z)
    assert trace.output_a == trace.output_b == z


def test_payload_needs_matching_length():
    with pytest.raises(ValueError):
        run(build_chain(2), Variant.CHAIN_M, 16, random.Random(0), payload=BitString.from01("101"))


def test_shape_variant_mismatch_rejected():
    with pytest.raises(ValueError):
        run(build_chain(3), Variant.RING_V2, 8, random.Random(0))
    with pytest.raises(ValueError):
        run(build_chain(3), Variant.CHAIN2, 8, random.Random(0))
    with pytest.raises(ValueError):
        run(build_multipath([2, 2]), Variant.REACH_T, 8, random.Random(0))


def test_zero_length_keys_rejected():
    with pytest.raises(ValueError):
        run(build_ring6(), Variant.RING_V1, 0, random.Random(0))


def test_make_store_covers_plan_then_nonces():
    plan = plan_keys(build_ring6(), Variant.RING_V1)
    sched = compile_schedule(plan)
    store = make_store(sched, 8, random.Random(0))
    names = [sid.name for sid in store.ids()]
    assert names[: len(plan.secret_ids)] == [sid.name for sid in plan.secret_ids]
    assert set(names[len(plan.secret_ids) :]) == {"X[A]", "X[B]"}


def test_trace_text_shape():
    trace = run(build_chain(2), Variant.CHAIN2, 16, random.Random(0))
    lines = trace_text(trace).splitlines()
    assert lines[0] == "# variant=chain2 topology=chain(m=2) n=16"
    assert lines[1].startswith("M0 A->N1 ")
    assert lines[-2].startswith("K(A) ")
    assert lines[-1].startswith("K(B) ")


def test_trace_json_round_trips_values():
    trace = run(build_ring6(), Variant.RING_V1, 16, random.Random(8))
    doc = json.loads(trace_json(trace))
    assert doc["variant"] == "ring-v1"
    assert doc["topology"] == "ring6"
    assert doc["n"] == 16
    assert len(doc["messages"]) == 6
    assert doc["messages"][0]["expr"] == "K[A,N2]+X[A]"
    assert doc["messages"][0]["hex"] == trace.messages[0].bits.to_hex()
    assert doc["output_a"] == trace.output_a.to_hex()
    assert doc["output_a"] == doc["output_b"]
    assert doc["nonces"] == ["X[A]", "X[B]"]
