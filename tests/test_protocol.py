import copy
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
import time

import pytest

from keyhop import analysis, bits, topology, wire
from keyhop.bits import BitString, KeyStore, nonce, tf_key
from keyhop.keyplan import KeyPlan, Variant, plan_keys
from keyhop.protocol import (
    KEY_BUDGET,
    AbsorbRule,
    Hop,
    Message,
    ProtocolTrace,
    Schedule,
    compile_schedule,
    execute,
    make_store,
    run,
    trace_json,
    trace_text,
)
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
    return [
        (f"{hop.sender}->{hop.receiver}", "+".join(sorted(msg.expr)))
        for hop, msg in zip(trace.schedule.hops, trace.messages, strict=True)
    ]


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
    assert trace.output_a.value == trace.store[nonce("A")].value ^ trace.store[nonce("B")].value


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


def _ring_v1_records():
    trace = run(build_ring6(), Variant.RING_V1, 16, random.Random(0))
    return trace.schedule.hops[0], trace.schedule.absorbs[0], trace.messages[0]


def _value_records():
    """The engine records, then one of each other record that compares by
    value: ring6 v1's layout, plan, final-key verdict and key, and a frame."""
    trace = run(build_ring6(), Variant.RING_V1, 16, random.Random(0))
    schedule = trace.schedule
    verdict = analysis.is_recoverable(schedule, frozenset(), analysis.final_key_expr(schedule))
    frame = wire.Frame(wire.FRAME_RELAY, 7, b"\x01\x02")
    return (*_ring_v1_records(), schedule.plan.topology, schedule.plan, verdict, trace.output_a, frame)


def test_engine_records_keep_their_field_order():
    assert Hop._fields == ("index", "sender", "receiver", "origin", "xor_ids")
    assert AbsorbRule._fields == ("hop_index", "strip_ids")
    # a message is its hop's payload: the hop names its index and ends
    assert Message._fields == ("bits", "expr")
    # a trace holds what the run computed and reads its layout off its schedule
    assert not hasattr(ProtocolTrace, "variant") and not hasattr(ProtocolTrace, "n")
    assert ProtocolTrace._fields == ("schedule", "messages", "output_a", "output_b", "store")
    assert Topology._fields == ("shape", "paths", "t") and Topology._field_defaults == {"t": 1}
    assert KeyPlan._fields == ("topology", "variant", "entries")
    assert analysis.SecrecyVerdict._fields == ("status", "recovery")
    assert analysis.SecrecyVerdict._field_defaults == {"recovery": None}
    assert BitString.__slots__ == ("value", "n")
    assert wire.Frame._fields == ("ftype", "index", "payload")
    assert wire.WireRun._fields == ("code", "results", "output_a", "output_b", "report")


def test_engine_records_refuse_assignment_and_survive_pickling():
    for record in _value_records():
        for name in getattr(record, "_fields", BitString.__slots__):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert twin == record and hash(twin) == hash(record)
    key = BitString(1, 8)
    with pytest.raises(AttributeError):
        del key.value
    with pytest.raises(AttributeError):
        key.extra = 1
    # a BitString equals BitStrings alone, and checks its range as it did
    assert key != (1, 8) and (1, 8) != key
    with pytest.raises(ValueError, match="^bit length must be at least 1$"):
        BitString(0, 0)
    with pytest.raises(ValueError, match="^value out of range for bit length$"):
        BitString(256, 8)
    # a wire run's summary holds its nodes in a dict, so it never hashed
    stub = wire.WireRun(0, {}, key, key, "stub run")
    with pytest.raises(AttributeError):
        stub.code = 1
    with pytest.raises(TypeError):
        hash(stub)
    assert pickle.loads(pickle.dumps(stub)) == stub == copy.deepcopy(stub)
    # a schedule refuses assignment, so its cached facts cannot go stale
    schedule = compile_schedule(plan_keys(build_ring6(), Variant.RING_V1))
    with pytest.raises(AttributeError):
        schedule.hops = ()
    with pytest.raises(AttributeError):
        del schedule.plan
    assert schedule.exprs is schedule.exprs and schedule.secret_ids is schedule.secret_ids


def test_ring6_hop_and_message_reprs_are_the_dataclass_reprs():
    hop, _, msg, topo, plan, verdict, key, frame = _value_records()
    assert repr(hop) == (
        "Hop(index=0, sender='A', receiver='N1',"
        " origin='X[A]', xor_ids=('K[A,N2]',))"
    )
    # the expression's terms are a set of ids hashed as their names, whose
    # order varies with the hash seed
    assert repr(msg) == f"Message(bits=BitString(value=45958, n=16), expr={msg.expr!r})"
    # an expression is a plain frozenset of secrets
    one_term = Message(msg.bits, frozenset({nonce("A")}))
    assert repr(one_term) == "Message(bits=BitString(value=45958, n=16), expr=frozenset({'X[A]'}))"
    assert repr(topo) == (
        "Topology(shape=<Shape.RING6: 'ring6'>,"
        " paths=(('A', 'N1', 'N2', 'B'), ('A', 'N3', 'N4', 'B')), t=1)"
    )
    assert repr(plan) == (
        f"KeyPlan(topology={topo!r}, variant=<Variant.RING_V1: 'ring-v1'>,"
        " entries=(PlanEntry(secret_id='K[A,N2]', measurer='N1'),"
        " PlanEntry(secret_id='K[N1,B]', measurer='N2'),"
        " PlanEntry(secret_id='K[A,N4]', measurer='N3'),"
        " PlanEntry(secret_id='K[N3,B]', measurer='N4')))"
    )
    assert repr(verdict) == "SecrecyVerdict(status=<Status.BROKEN: 'BROKEN'>, recovery=(0, 1, 2, 3, 4, 5))"
    assert repr(key) == "BitString(value=25079, n=16)"
    assert repr(frame) == "Frame(ftype=2, index=7, payload=b'\\x01\\x02')"
    assert repr(wire.WireRun(0, {}, key, key, "stub run")) == (
        "WireRun(code=0, results={}, output_a=BitString(value=25079, n=16),"
        " output_b=BitString(value=25079, n=16), report='stub run')"
    )
    schedule = compile_schedule(plan)
    assert repr(schedule) == (
        f"Schedule(plan={plan!r}, hops={schedule.hops!r}, absorbs={schedule.absorbs!r})"
    )


_SIX_VARIANTS = (
    (build_ring6(), Variant.RING_V1),
    (build_ring6(), Variant.RING_V2),
    (build_chain(2), Variant.CHAIN2),
    (build_chain(10), Variant.CHAIN_M),
    (build_reach_chain(7, 3), Variant.REACH_T),
    (build_multipath([2, 3], t=1), Variant.MULTIPATH),
)


def test_a_secret_is_its_name_and_sorts_as_it():
    assert tf_key("A", "N1") == "K[A,N1]" and hash(tf_key("A", "N1")) == hash("K[A,N1]")
    for topo, variant in _SIX_VARIANTS:
        trace = run(topo, variant, 8, random.Random(0))
        lines = trace_text(trace).splitlines()[1 : 1 + len(trace.schedule.hops)]
        for line, expr in zip(lines, trace.schedule.exprs, strict=True):
            assert line.split()[-1] == "+".join(sorted(expr))
            assert sorted(expr) == sorted(map(str, expr))
        nodes = [nd for path in topo.paths for nd in path]
        for sid in trace.schedule.secret_ids:
            assert all(any(end is nd for nd in nodes) for end in sid.ends)
    # ids sort by the code points of their names, as views and traces list them
    chain10 = compile_schedule(plan_keys(build_chain(10), Variant.CHAIN_M))
    assert sorted(chain10.secret_ids) == [
        "K[A,N2]", "K[N1,N3]", "K[N2,N4]", "K[N3,N5]", "K[N4,N6]", "K[N5,N7]", "K[N6,N8]",
        "K[N7,N9]", "K[N8,N10]", "K[N9,B]", "P[A,N1]", "P[N10,B]", "X[A]",
    ]
    mp23 = compile_schedule(plan_keys(build_multipath([2, 3], t=1), Variant.MULTIPATH))
    assert sorted(mp23.secret_ids) == [
        "K[A,N2.1]", "K[A,N2.2]", "K[N1.1,B]", "K[N1.2,N3.2]", "K[N2.2,B]",
        "P[A,N1.1]", "P[A,N1.2]", "P[N2.1,B]", "P[N3.2,B]", "X[A@1]", "X[A@2]",
    ]


def test_index_reads_the_field_not_the_tuple_method():
    trace = run(build_ring6(), Variant.RING_V2, 16, random.Random(0))
    assert [hop.index for hop in trace.schedule.hops] == list(range(6))
    # with no index field, msg.index would read tuple.index without raising
    assert "index" not in Message._fields
    assert len(trace.messages) == len(trace.schedule.hops)


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
    assert trace.schedule.nonce_ids == ("X[A@1]", "X[A@2]")
    assert trace.output_a.value == trace.store[nonce("A", 1)].value ^ trace.store[nonce("A", 2)].value
    senders = [hop.sender for hop in trace.schedule.hops]
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
    plan = plan_keys(build_multipath([2] * 1000, t=1), Variant.MULTIPATH)
    start = time.perf_counter()
    schedule = compile_schedule(plan)
    elapsed = time.perf_counter() - start
    assert len(schedule.hops) == 3000 and len(schedule.absorbs) == 1000
    assert elapsed < 1.0, f"compile took {elapsed:.2f} s"


def test_compile_refuses_a_key_between_the_endpoints():
    # built by hand, past the builders' m >= t+1 check: reach 2 plans K[A,B]
    path = (NodeId("A"), NodeId("N1"), NodeId("B"))
    plan = plan_keys(Topology(Shape.CHAIN, (path,), t=2), Variant.CHAIN_M)
    assert "K[A,B]" in [entry.secret_id for entry in plan.entries]
    with pytest.raises(ValueError, match="K\\[A,B\\] does not join an intermediary"):
        compile_schedule(plan)


def test_compile_refuses_a_plan_that_lists_a_key_twice():
    # execute folds a hop's keys in as one set, where a listed-twice key
    # would count once; XOR would cancel it from the output instead
    plan = plan_keys(build_chain(3), Variant.CHAIN_M)
    twice = KeyPlan(plan.topology, plan.variant, (*plan.entries, plan.entries[1]))
    with pytest.raises(ValueError, match=r"key K\[N1,N3\] is listed twice"):
        compile_schedule(twice)


def _layout_mix(seed):
    """A seeded mix of every shape, with a few layouts of each."""
    rng = random.Random(seed)
    mix = [(build_ring6(), Variant.RING_V1), (build_ring6(), Variant.RING_V2)]
    mix += [(build_chain(rng.randint(2, 12)), Variant.CHAIN_M) for _ in range(4)]
    for _ in range(4):
        mix.append((build_reach_chain(rng.randint(5, 12), rng.randint(2, 4)), Variant.REACH_T))
    for _ in range(4):
        lengths = [rng.randint(3, 6) for _ in range(rng.randint(1, 4))]
        mix.append((build_multipath(lengths, t=rng.randint(1, 2)), Variant.MULTIPATH))
    return mix


def test_the_intern_tables_stop_growing_once_every_id_is_built():
    # the tables hold one entry per distinct label and key built, so a
    # second pass over the same layouts builds nothing new
    def sweep():
        ids = set()
        for seed, (topo, variant) in enumerate(_layout_mix(23)):
            ids.update(run(topo, variant, 16, random.Random(seed)).store.ids())
        return ids

    sizes = len(bits._SECRET_IDS), len(topology._NODE_IDS)
    ids = sweep()
    grown = len(bits._SECRET_IDS) - sizes[0], len(topology._NODE_IDS) - sizes[1]
    assert grown[0] <= len(ids)
    assert grown[1] <= len({label for sid in ids for label in sid.ends})
    assert ids <= set(bits._SECRET_IDS.values())
    sizes = len(bits._SECRET_IDS), len(topology._NODE_IDS)
    assert sweep() == ids
    assert (len(bits._SECRET_IDS), len(topology._NODE_IDS)) == sizes


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
    origins = {hop.origin for hop in sched.hops} - {None}
    assert origins == {"X[A]"}
    for hop in sched.hops:
        assert origins.isdisjoint(hop.xor_ids)


def test_run_is_deterministic():
    a = trace_text(run(build_ring6(), Variant.RING_V2, 64, random.Random(21)))
    b = trace_text(run(build_ring6(), Variant.RING_V2, 64, random.Random(21)))
    assert a == b
    c = trace_text(run(build_ring6(), Variant.RING_V2, 64, random.Random(22)))
    assert a != c


def test_payload_delivery_over_chain():
    # the nonce's value, whatever it is, is what both endpoints output
    schedule = compile_schedule(plan_keys(build_chain(3), Variant.CHAIN_M))
    store, rng = KeyStore(16), random.Random(6)
    for entry in schedule.plan.entries:
        store.sample(entry.secret_id, rng)
    (nid,) = schedule.nonce_ids
    store.sample(nid, rng)
    trace = execute(schedule, store)
    assert trace.output_a == trace.output_b == store[nid]


def test_make_store_refuses_a_run_over_the_key_budget_before_drawing(monkeypatch):
    def refuse(*args):
        raise AssertionError("drew key material")

    # ring6 v2 holds 8 keys, 2 nonces and 6 messages: 16 values of n bits
    monkeypatch.setattr(KeyStore, "sample", refuse)
    schedule = compile_schedule(plan_keys(build_ring6(), Variant.RING_V2))
    at_budget = KEY_BUDGET // 16 * 8
    with pytest.raises(AssertionError, match="drew"):  # the budget admits it
        make_store(schedule, at_budget, random.Random(0))
    with pytest.raises(ValueError, match=f"^16 keys, nonces and messages of {at_budget + 1} bits"):
        make_store(schedule, at_budget + 1, random.Random(0))


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
    names = list(store.ids())
    keys = [entry.secret_id for entry in plan.entries]
    assert names[: len(keys)] == keys
    assert set(names[len(keys) :]) == {"X[A]", "X[B]"}


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


_GOLDEN_LAYOUTS = {
    "ring-v1": (build_ring6, (), Variant.RING_V1),
    "ring-v2": (build_ring6, (), Variant.RING_V2),
    "chain2": (build_chain, (2,), Variant.CHAIN2),
    "chain7": (build_chain, (7,), Variant.CHAIN_M),
    "reach9t3": (build_reach_chain, (9, 3), Variant.REACH_T),
    "multipath": (build_multipath, ((2, 3, 4),), Variant.MULTIPATH),
}

# sha256 of trace_json for every variant at n = 1, 16 and 65536, key seed
# 20 + n: any rewrite of the hop loop must reproduce the bits and the
# expressions byte for byte
_GOLDEN_TRACES = [
    ("ring-v1", 1, "ced9e68d8c3b17b279e30b7e99b8e3dd03627df8a2c32f8a3c25a4398685240f"),
    ("ring-v1", 16, "5a5574108ddfde8018c422ef3271c2e2c0f73bd0d24f7bcbbdd0ccdad97a8a60"),
    ("ring-v1", 65536, "e0e27fb49ad1a3baee690c0c91ca1416d8a19bdc2b7953c17b5a79c04c3b98bf"),
    ("ring-v2", 1, "c2e47f8744cc4adac31b0ad6447c57f66bc4a3159d8d4345b679f215e0ebd40a"),
    ("ring-v2", 16, "5b7a365bcbf17e4bd2feb5f609b833423617b3e91f53f439f699de121216a3a8"),
    ("ring-v2", 65536, "6849efe27910d88711442c78225ec0a31b68b397117151395a594044d27dc012"),
    ("chain2", 1, "ad60e92d10afd54f05ae3354b3f7cd697b72fbbf0ccd629cca978b5bf4d649f5"),
    ("chain2", 16, "aa0518de0319d0cfbb4a22f0e6cc6ba2589bdd13e95896a7b55a6b6efa542c7c"),
    ("chain2", 65536, "efdc549d46e4856f30f89fe14442d7c1385898079f065e30b92eb252289d515f"),
    ("chain7", 1, "7ba59089aa2f6c192176533358d83d4c8aef0ce0f8cd2555920cb8c61a7ae29a"),
    ("chain7", 16, "5b106ac065d79b9790184bec1c0728762997f6dbac94d6804704d653f6c289d3"),
    ("chain7", 65536, "937429afd89d98548b0452c82a81316e384bb3dfcb484eff5d1e2fc35084e902"),
    ("reach9t3", 1, "b1834d372ff2a51e42ae34a5513618743e72d46f3bf4bb7373e4c64a0c83308d"),
    ("reach9t3", 16, "7e10c7a7e33f929e3d87117b137333d60ada61ff464fea6cb12be1873a5afaab"),
    ("reach9t3", 65536, "62c7606c1ebacfcecf38cc198b2eed52a589708313a09cd0244b9881c8704687"),
    ("multipath", 1, "bd5ad55264b4892e06ec434d7774c7c84cf6256b9dfa43d0e2aa832acd3d472f"),
    ("multipath", 16, "b799b286763bb4a6400cbde7899856bb07a489ed58992de0b67be1981758b1ba"),
    ("multipath", 65536, "5817655b6bc3d8a291f25bcf19130e8966a4eb4f88b0fea96205f5e6bc7c5b4c"),
]


@pytest.mark.parametrize("layout,n,digest", _GOLDEN_TRACES)
def test_trace_json_matches_the_recorded_digest(layout, n, digest):
    build, args, variant = _GOLDEN_LAYOUTS[layout]
    trace = run(build(*args), variant, n, random.Random(20 + n))
    assert hashlib.sha256(trace_json(trace).encode()).hexdigest() == digest


def _golden_schedules():
    for build, args, variant in _GOLDEN_LAYOUTS.values():
        yield compile_schedule(plan_keys(build(*args), variant))


def test_execute_checks_every_emission_against_its_expression(monkeypatch):
    honest = KeyStore.evaluate

    def flipped(self, expr):
        bits = honest(self, expr)
        return BitString(bits.value ^ ((1 << bits.n) - 1), bits.n)

    monkeypatch.setattr(KeyStore, "evaluate", flipped)
    for schedule in _golden_schedules():
        store = make_store(schedule, 16, random.Random(0))
        with pytest.raises(AssertionError, match="emission 0 disagrees with its expression"):
            execute(schedule, store)


def _unstripped():
    """chain2's schedule with absorb rules that strip nothing, and a store
    for it: B keeps the link keys in its share, so the endpoints disagree."""
    schedule = compile_schedule(plan_keys(build_chain(2), Variant.CHAIN2))
    absorbs = tuple(AbsorbRule(rule.hop_index, ()) for rule in schedule.absorbs)
    schedule = Schedule(schedule.plan, schedule.hops, absorbs)
    return schedule, make_store(schedule, 16, random.Random(0))


def test_execute_refuses_endpoints_that_disagree():
    with pytest.raises(AssertionError, match="honest run must agree on the final key"):
        execute(*_unstripped())


def test_execute_refuses_endpoints_that_disagree_under_python_O():
    # python -O strips assert statements; the agreement check must survive it
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = "from test_protocol import _unstripped, execute; execute(*_unstripped())"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, here))}
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 1
    assert out.stderr.splitlines()[-1] == "AssertionError: honest run must agree on the final key"


def test_execute_evaluates_each_hop_once(monkeypatch):
    honest = KeyStore.evaluate
    calls = []

    def counted(self, expr):
        calls.append(expr)
        return honest(self, expr)

    monkeypatch.setattr(KeyStore, "evaluate", counted)
    for schedule in _golden_schedules():
        calls.clear()
        trace = execute(schedule, make_store(schedule, 16, random.Random(0)))
        assert calls == [msg.expr for msg in trace.messages]
        assert len(calls) == len(schedule.hops)
