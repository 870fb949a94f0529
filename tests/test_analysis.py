import random
import time
from collections import defaultdict, deque
from functools import reduce
from itertools import combinations
from operator import xor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from keyhop import analysis, protocol
from keyhop.analysis import (
    ACTIVE_STRATEGIES,
    ENUMERATION_CAP,
    SecrecyVerdict,
    Status,
    _grouped_verdict,
    _view_blocks,
    active_attack_leakage,
    brute_force_secrecy,
    coalition_audit,
    coalition_report_csv,
    coalition_rows,
    collusion_grid,
    describe,
    final_key_expr,
    grid_csv,
    held_secrets,
    is_recoverable,
    max_active_attack_leakage,
    min_breaking_coalitions,
    recover_bits,
)
from keyhop.bits import KeyStore, nonce
from keyhop.keyplan import KeyPlan, Variant, plan_keys
from keyhop.protocol import compile_schedule, run
from keyhop.topology import Shape, build_chain, build_multipath, build_reach_chain, build_ring6

# the generated layouts of at most 12 intermediaries, and the multipath lengths they draw
from test_keyplan import _layouts, _path_lengths


def _trace(builder, variant, seed=0, n=16):
    return run(builder, variant, n, random.Random(seed))


def _coalition(trace, *labels):
    return frozenset(trace.topology.node(lab) for lab in labels)


def _min_sets(trace):
    return sorted(
        (tuple(sorted(c)) for c in min_breaking_coalitions(trace.schedule)),
        key=lambda s: (len(s), s),
    )


def test_empty_coalition_view_is_just_the_traffic():
    schedule = _trace(build_ring6(), Variant.RING_V1).schedule
    assert len(schedule.exprs) == 6
    assert held_secrets(schedule, frozenset()) == ()


def test_view_includes_each_members_keys():
    trace = _trace(build_ring6(), Variant.RING_V2)
    assert held_secrets(trace.schedule, _coalition(trace, "N1")) == ("K[N1,B]", "P[A,N1]")


def test_view_rejects_endpoints_and_strangers():
    trace = _trace(build_ring6(), Variant.RING_V1)
    for end in ("A", "B"):
        with pytest.raises(ValueError, match=f"{end} is an endpoint"):
            held_secrets(trace.schedule, _coalition(trace, end))
    chain = _trace(build_chain(5), Variant.CHAIN_M)
    with pytest.raises(ValueError, match="not in this topology"):
        held_secrets(trace.schedule, _coalition(chain, "N5"))


class _Ordered(frozenset):
    """A member set that iterates in the order its members were given."""

    def __new__(cls, members):
        self = super().__new__(cls, members)
        self.order = tuple(members)
        return self

    def __iter__(self):
        return iter(self.order)


def test_view_names_the_first_bad_member_in_label_order():
    trace = _trace(build_chain(4), Variant.CHAIN_M)
    members = _Ordered([trace.topology.node(lab) for lab in ("N1", "B", "A")])
    with pytest.raises(ValueError, match="^A is an endpoint"):
        held_secrets(trace.schedule, members)


@pytest.mark.parametrize(
    "route",
    [
        held_secrets,
        lambda schedule, coal: is_recoverable(schedule, coal, final_key_expr(schedule)),
        lambda schedule, coal: brute_force_secrecy(schedule, coal, final_key_expr(schedule)),
    ],
    ids=["held_secrets", "is_recoverable", "brute_force_secrecy"],
)
def test_every_route_refuses_a_bad_coalition_alike(route):
    schedule = compile_schedule(plan_keys(build_chain(4), Variant.CHAIN_M))
    members = _Ordered([schedule.plan.topology.node(lab) for lab in ("N1", "B", "A")])
    with pytest.raises(ValueError, match="^A is an endpoint, not a corruptible intermediary$"):
        route(schedule, members)
    stranger = frozenset({build_chain(5).node("N5")})
    with pytest.raises(ValueError, match="^coalition member N5 is not in this topology$"):
        route(schedule, stranger)


def test_is_recoverable_names_a_missing_target():
    schedule = compile_schedule(plan_keys(build_chain(4), Variant.CHAIN_M))
    with pytest.raises(TypeError, match="missing required argument: 'target'"):
        is_recoverable(schedule, frozenset())


def test_passive_wiretap_breaks_ring_v1():
    trace = _trace(build_ring6(), Variant.RING_V1)
    verdict = is_recoverable(trace.schedule, frozenset(), final_key_expr(trace.schedule))
    assert SecrecyVerdict._fields == ("status", "recovery")  # the caller holds the target
    assert verdict.status is Status.BROKEN
    assert verdict.recovery_labels == ("M0", "M1", "M2", "M3", "M4", "M5")
    assert recover_bits(trace, verdict) == trace.output_a


def test_ring_v1_nonce_recovery_splits_by_arc():
    schedule = _trace(build_ring6(), Variant.RING_V1).schedule
    va = is_recoverable(schedule, frozenset(), frozenset({nonce("A")}))
    vb = is_recoverable(schedule, frozenset(), frozenset({nonce("B")}))
    assert va.recovery_labels == ("M0", "M1", "M2")
    assert vb.recovery_labels == ("M3", "M4", "M5")


def test_ring_v2_needs_all_four_intermediaries():
    trace = _trace(build_ring6(), Variant.RING_V2)
    assert _min_sets(trace) == [("N1", "N2", "N3", "N4")]


def test_ring_v2_three_corrupt_nodes_learn_nothing():
    trace = _trace(build_ring6(), Variant.RING_V2)
    target = final_key_expr(trace.schedule)
    for combo in combinations(("N1", "N2", "N3", "N4"), 3):
        verdict = is_recoverable(trace.schedule, _coalition(trace, *combo), target)
        assert verdict.status is Status.SECURE


def test_chain_minimal_coalitions_small_m():
    c2 = _trace(build_chain(2), Variant.CHAIN2)
    assert _min_sets(c2) == [("N1", "N2")]
    c3 = _trace(build_chain(3), Variant.CHAIN_M)
    assert _min_sets(c3) == [("N1", "N2"), ("N2", "N3")]


def test_chain_m4_has_a_nonadjacent_breaking_pair():
    # the ends' neighbours can pool P and K keys and cancel the middle
    trace = _trace(build_chain(4), Variant.CHAIN_M)
    assert _min_sets(trace) == [("N1", "N2"), ("N1", "N4"), ("N2", "N3"), ("N3", "N4")]


def test_chain_minimal_coalitions_are_the_odd_distance_pairs():
    """Chain m's minimal breaking coalitions are the pairs {Ni, Nj}, j - i odd.

    Write k0 = P[A,N1], k(m+1) = P[Nm,B] and ki = K[N(i-1),N(i+1)] for
    1 <= i <= m. Every sender folds in all its keys, so Mi = X[A] + ki + k(i+1)
    for i = 0..m, and Ni holds exactly k(i-1) and k(i+1). Over GF(2), read
    message Mi as the edge k(i)-k(i+1) of a path graph. An XOR of messages
    cancels every key the coalition lacks only if all its odd-degree vertices
    are held keys, i.e. it is a union of segments between held keys; it keeps
    X[A] only if it has an odd number of edges, so some segment joins two held
    keys at odd distance. Ni's keys share the parity of i+1, so a coalition
    breaks exactly when two members lie at odd distance. Adjacent pairs are
    among them, but from m = 4 on so are pairs such as {N1, N4}, which is why
    acceptance criterion 4 fails.
    """
    for m in (*range(4, 25), 40):
        trace = _trace(build_chain(m), Variant.CHAIN_M)
        got = set(min_breaking_coalitions(trace.schedule))
        pairs = combinations(range(1, m + 1), 2)
        assert got == {frozenset((f"N{i}", f"N{j}")) for i, j in pairs if (j - i) % 2}


def test_chain_minimum_size_stays_two():
    for m in range(2, 7):
        trace = _trace(build_chain(m), Variant.CHAIN_M)
        sizes = {len(c) for c in min_breaking_coalitions(trace.schedule)}
        assert min(sizes) == 2
        for left, right in combinations(range(1, m + 1), 2):
            if right == left + 1:
                coal = _coalition(trace, f"N{left}", f"N{right}")
                target = final_key_expr(trace.schedule)
                assert is_recoverable(trace.schedule, coal, target).status is Status.BROKEN


def test_reach_needs_t_plus_one_consecutive():
    trace = _trace(build_reach_chain(3, 2), Variant.REACH_T)
    assert _min_sets(trace) == [("N1", "N2", "N3")]
    trace = _trace(build_reach_chain(4, 2), Variant.REACH_T)
    sizes = {len(c) for c in min_breaking_coalitions(trace.schedule)}
    assert min(sizes) == 3


def test_multipath_requires_breaking_every_path():
    trace = _trace(build_multipath([2, 2]), Variant.MULTIPATH)
    assert min(len(c) for c in min_breaking_coalitions(trace.schedule)) == 4
    trace = _trace(build_multipath([2, 2, 2]), Variant.MULTIPATH)
    assert min(len(c) for c in min_breaking_coalitions(trace.schedule)) == 6


def test_breaking_is_monotone_under_superset():
    trace = _trace(build_ring6(), Variant.RING_V1, seed=3)
    target = final_key_expr(trace.schedule)
    base = _coalition(trace, "N1", "N2")
    assert is_recoverable(trace.schedule, base, target).status is Status.BROKEN
    bigger = _coalition(trace, "N1", "N2", "N3")
    assert is_recoverable(trace.schedule, bigger, target).status is Status.BROKEN


def test_verdicts_do_not_depend_on_key_length_or_seed():
    for n, seed in ((1, 0), (16, 5), (64, 17)):
        trace = _trace(build_ring6(), Variant.RING_V2, seed=seed, n=n)
        assert _min_sets(trace) == [("N1", "N2", "N3", "N4")]


def test_recovered_bits_match_for_every_breaking_coalition():
    trace = _trace(build_chain(4), Variant.CHAIN_M, seed=11, n=32)
    target = final_key_expr(trace.schedule)
    for coal in min_breaking_coalitions(trace.schedule):
        verdict = is_recoverable(trace.schedule, coal, target)
        assert recover_bits(trace, verdict) == trace.output_a
    secure = is_recoverable(trace.schedule, frozenset(), target)
    with pytest.raises(ValueError, match="nothing to recover from a SECURE verdict"):
        recover_bits(trace, secure)


@pytest.mark.parametrize(
    "builder,variant",
    [
        (build_ring6(), Variant.RING_V1),
        (build_ring6(), Variant.RING_V2),
        (build_chain(3), Variant.CHAIN_M),
        (build_reach_chain(3, 2), Variant.REACH_T),
    ],
)
def test_linear_verdicts_agree_with_truth_table(builder, variant):
    trace = run(builder, variant, 1, random.Random(0))
    target = final_key_expr(trace.schedule)
    inter = trace.topology.intermediaries
    for size in range(len(inter) + 1):
        for combo in combinations(inter, size):
            coal = _coalition(trace, *combo)
            linear = is_recoverable(trace.schedule, coal, target).status
            exhaustive = brute_force_secrecy(trace.schedule, coal, target)
            assert linear is exhaustive


def test_truth_table_gives_an_n2_trace_the_n1_verdict():
    # the oracle reads the trace's schedule, never its bits
    wide = _trace(build_ring6(), Variant.RING_V1, n=2)
    narrow = _trace(build_ring6(), Variant.RING_V1, n=1)
    target = final_key_expr(narrow.schedule)
    for labels in ([], ["N1"], ["N1", "N3"]):
        coal = _coalition(narrow, *labels)
        want = brute_force_secrecy(narrow.schedule, coal, target)
        assert brute_force_secrecy(wide.schedule, coal, target) is want


def test_truth_table_sweeps_multipath_444_at_21_secrets():
    # the widest layout the benchmark's oracle check runs
    trace = run(build_multipath([4, 4, 4]), Variant.MULTIPATH, 1, random.Random(0))
    assert len(trace.store.ids()) == 21
    target = final_key_expr(trace.schedule)
    whole_paths = [path[1:-1] for path in trace.topology.paths]
    adjacent_per_path = [label for path in whole_paths for label in path[:2]]
    cases = [(path, Status.SECURE) for path in whole_paths] + [(adjacent_per_path, Status.BROKEN)]
    for labels, want in cases:
        coal = _coalition(trace, *labels)
        assert is_recoverable(trace.schedule, coal, target).status is want
        assert brute_force_secrecy(trace.schedule, coal, target) is want
    # an n=2 trace gives the n=1 verdict
    wide = run(build_multipath([4, 4, 4]), Variant.MULTIPATH, 2, random.Random(0))
    for labels, want in cases:
        assert brute_force_secrecy(wide.schedule, _coalition(wide, *labels), target) is want


def test_truth_table_sweeps_multipath_3333_at_24_secrets():
    # 24 secrets in all, but each path is its own block of 6, swept alone;
    # the coalition holds the first path's five keys, which leaves its nonce
    trace = run(build_multipath([3, 3, 3, 3]), Variant.MULTIPATH, 1, random.Random(0))
    assert len(trace.store.ids()) == 24
    target = final_key_expr(trace.schedule)
    coal = _coalition(trace, *trace.topology.paths[0][1:-1])
    blocks = _view_blocks(trace.schedule, held_secrets(trace.schedule, coal))
    assert [len(secrets) for secrets, _ in blocks] == [6, 6, 6, 1]
    assert is_recoverable(trace.schedule, coal, target).status is Status.SECURE
    assert brute_force_secrecy(trace.schedule, coal, target) is Status.SECURE


def test_truth_table_sweeps_chain_m21_at_24_secrets():
    # the widest sweep the oracle accepts: one block of 24 secrets, 2^24 assignments
    trace = run(build_chain(21), Variant.CHAIN_M, 1, random.Random(0))
    assert len(trace.store.ids()) == 24
    target = final_key_expr(trace.schedule)
    coal = frozenset()
    assert is_recoverable(trace.schedule, coal, target).status is Status.SECURE
    assert brute_force_secrecy(trace.schedule, coal, target) is Status.SECURE
    # the empty coalition holds nothing to condition on, so chain m=22 is
    # one block of 25 secrets and stays refused
    wider = run(build_chain(22), Variant.CHAIN_M, 1, random.Random(0))
    with pytest.raises(ValueError, match="too many secrets for a full truth-table sweep"):
        brute_force_secrecy(wider.schedule, coal, final_key_expr(wider.schedule))
    # with no keys, each of chain m=70's 71 messages is the nonce alone: one
    # secret, but 71 view components, more than a packed entry holds
    bare = compile_schedule(KeyPlan(build_chain(70), Variant.CHAIN_M, ()))
    with pytest.raises(ValueError, match="view too wide to pack"):
        brute_force_secrecy(bare, coal, final_key_expr(bare))


def _record_tables(monkeypatch):
    """The (entries, dtype) of every table the oracle allocates from now on."""
    tables, zeros = [], np.zeros
    monkeypatch.setattr(
        np, "zeros", lambda size, dtype: tables.append((size, dtype)) or zeros(size, dtype)
    )
    return tables


@pytest.mark.parametrize("m, width", [(30, 31), (31, 32), (32, 33)])
def test_truth_table_packs_views_on_either_side_of_32_bits(monkeypatch, m, width):
    # a table entry holds the target bit and one bit per view component, so
    # 31 components fill 32 bits and 32 or more need 64. With no keys, each of
    # chain m's m+1 messages is the nonce alone: one block, m+1 components
    bare = compile_schedule(KeyPlan(build_chain(m), Variant.CHAIN_M, ()))
    coal = frozenset()
    ((_, components),) = _view_blocks(bare, ())
    assert len(components) == width
    tables = _record_tables(monkeypatch)
    target = final_key_expr(bare)
    assert is_recoverable(bare, coal, target).status is Status.BROKEN
    assert brute_force_secrecy(bare, coal, target) is Status.BROKEN
    assert tables == [(2, np.uint32 if width < 32 else np.uint64)]


def test_truth_table_sweeps_multipath_4444_at_48_secrets():
    # four blocks of 12 secrets; with reach 3, t+1 = 4 adjacent nodes break a
    # path, so on 4-node paths only every path whole breaks the key
    trace = run(build_multipath([4, 4, 4, 4], t=3), Variant.MULTIPATH, 1, random.Random(0))
    assert len(trace.store.ids()) == 48
    target = final_key_expr(trace.schedule)
    whole_paths = [path[1:-1] for path in trace.topology.paths]
    adjacent_per_path = [label for path in whole_paths for label in path]
    cases = [(path, Status.SECURE) for path in whole_paths]
    cases += [(adjacent_per_path[:-1], Status.SECURE), (adjacent_per_path, Status.BROKEN)]
    for labels, want in cases:
        coal = _coalition(trace, *labels)
        assert is_recoverable(trace.schedule, coal, target).status is want
        assert brute_force_secrecy(trace.schedule, coal, target) is want


@pytest.mark.parametrize(
    "topo,variant,count",
    [
        (build_ring6(), Variant.RING_V2, 2),
        (build_chain(2), Variant.CHAIN2, 1),
        (build_chain(9), Variant.CHAIN_M, 1),
        (build_reach_chain(8, 3), Variant.REACH_T, 1),
        (build_multipath([4]), Variant.MULTIPATH, 1),
        (build_multipath([2, 5, 3], t=1), Variant.MULTIPATH, 3),
        (build_multipath([4, 4, 4, 4], t=3), Variant.MULTIPATH, 4),
    ],
)
def test_truth_table_blocks_follow_the_layout(topo, variant, count):
    # the oracle finds its blocks in the view; the layout says what they must be
    trace = run(topo, variant, 1, random.Random(0))
    inter = topo.intermediaries
    path_of = {nd: p for p, path in enumerate(topo.paths, 1) for nd in path[1:-1]}

    def paths(block):
        """The paths a block's secrets lie on: a nonce's own (the p of
        X[A@p]), a key's intermediary end's."""
        return {
            int(sid.partition("@")[2][:-1])
            if sid.startswith("X[")
            else next(path_of[end] for end in sid.ends if end in path_of)
            for sid in block
        }

    blocks = _view_blocks(trace.schedule, ())
    assert len(blocks) == count
    secrets = [sid for block, _ in blocks for sid in block]
    assert len(secrets) == len(set(secrets)) == len(trace.store.ids())
    if variant is Variant.MULTIPATH:
        # each block is one path: its nonce and the keys of its intermediaries
        for block, _ in blocks:
            keys = [sid for sid in block if not sid.startswith("X[")]
            assert len(block) - len(keys) == 1
            assert len(paths(block)) == 1
    # a coalition's held secrets leave the sweep: the blocks partition the rest
    for labels in (inter[:1], inter):
        held = held_secrets(trace.schedule, _coalition(trace, *labels))
        blocks = _view_blocks(trace.schedule, held)
        secrets = [sid for block, _ in blocks for sid in block]
        assert len(secrets) == len(set(secrets))
        assert set(secrets) == set(trace.store.ids()) - set(held)
        if variant is Variant.MULTIPATH:
            assert all(len(paths(block)) == 1 for block, _ in blocks)


def test_truth_table_uses_no_elimination_or_rank(monkeypatch):
    layouts = [(build_chain(4), Variant.CHAIN_M), (build_multipath([2, 3, 2]), Variant.MULTIPATH)]
    cases = []
    for topo, variant in layouts:
        trace = run(topo, variant, 1, random.Random(0))
        # a one-nonce target on multipath leaves the other paths' blocks
        # without a target term
        targets = {final_key_expr(trace.schedule), *(frozenset({nid}) for nid in trace.nonce_ids)}
        inter = trace.topology.intermediaries
        for size in range(len(inter) + 1):
            for c in combinations(inter, size):
                coal = _coalition(trace, *c)
                for target in targets:
                    want = is_recoverable(trace.schedule, coal, target).status
                    cases.append((trace, coal, target, want))

    def refuse(*args, **kwargs):
        raise AssertionError("the truth-table oracle must stay independent of the analyzer")

    names = ("_eliminate", "_reduce", "_key_graphs", "_separators", "_minimal_masks")
    for name in (*names, "min_breaking_coalitions"):
        monkeypatch.setattr(analysis, name, refuse)
    monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
    for trace, coal, target, want in cases:
        assert brute_force_secrecy(trace.schedule, coal, target) is want


@settings(max_examples=100, deadline=None)
@given(_layouts(), st.data())
def test_conditioned_truth_table_equals_elimination(layout, data):
    # the oracle drops the coalition's held secrets from its sweep; whatever
    # the layout, coalition or target, its verdict stays the reference's
    schedule = compile_schedule(plan_keys(*layout))
    inter = list(schedule.plan.topology.intermediaries)
    coal = frozenset(data.draw(st.lists(st.sampled_from(inter), max_size=4, unique=True)))
    held = held_secrets(schedule, coal)
    assume(len(schedule.secret_ids) - len(held) <= 20)  # a wider sweep costs up to 0.3 s
    for target in {final_key_expr(schedule), *(frozenset({nid}) for nid in schedule.nonce_ids)}:
        want = is_recoverable(schedule, coal, target).status
        assert brute_force_secrecy(schedule, coal, target) is want


def test_truth_table_sweeps_the_benchmark_chain_checks_at_14_secrets(monkeypatch):
    # the benchmark's chain m=15 oracle check draws two interior nodes an odd
    # distance apart, which hold four of the layout's 18 secrets; every such
    # coalition sweeps one block of the other 14
    schedule = compile_schedule(plan_keys(build_chain(15), Variant.CHAIN_M))
    topo, target = schedule.plan.topology, final_key_expr(schedule)
    tables = _record_tables(monkeypatch)
    pairs = [(i, j) for i in range(2, 15) for j in range(i + 1, 15) if (j - i) % 2]
    assert len(pairs) == 42
    for i, j in pairs:
        coal = frozenset((topo.node(f"N{i}"), topo.node(f"N{j}")))
        tables.clear()
        want = is_recoverable(schedule, coal, target).status
        assert brute_force_secrecy(schedule, coal, target) is want
        assert [size.bit_length() - 1 for size, _ in tables] == [14], (i, j)


def _packed(*entries):
    """A sorted packed table from (view, target bit) pairs."""
    return np.sort(np.array([view << 1 | bit for view, bit in entries], dtype=np.uint64))


def test_grouped_verdict_fixed_groups_are_broken():
    table = _packed((0, 1), (0, 1), (1, 0), (5, 1), (5, 1), (5, 1))
    assert _grouped_verdict(table) is Status.BROKEN


def test_grouped_verdict_balanced_groups_are_secure():
    table = _packed((0, 0), (0, 1), (1, 1), (1, 0), (7, 0), (7, 1), (7, 1), (7, 0))
    assert _grouped_verdict(table) is Status.SECURE


@pytest.mark.parametrize(
    "entries",
    [
        [(0, 0), (0, 1), (3, 0), (3, 1), (3, 1), (3, 1)],  # one group split 3:1
        [(0, 0), (0, 1), (2, 1), (2, 1)],  # one balanced group, one fixed
    ],
)
def test_grouped_verdict_rejects_a_group_neither_fixed_nor_balanced(entries):
    with pytest.raises(AssertionError, match="neither fixed nor balanced"):
        _grouped_verdict(_packed(*entries))


def _largest_path_secrets(trace):
    """The most secrets one path holds: its intermediaries' keys and a nonce."""
    inners = (set(path[1:-1]) for path in trace.topology.paths)
    return max(1 + sum(not inner.isdisjoint(sid.ends) for sid in trace.store.ids()) for inner in inners)


@st.composite
def _oracle_cases(draw):
    """An n=1 trace of ring6 v1/v2 or a chain or reach layout with at most 12
    intermediaries, or a multipath layout with at most 20, whose largest path
    holds at most 18 secrets, and a coalition drawn from its intermediaries."""
    kind = draw(st.sampled_from(("ring6", "chain", "reach", "multipath")))
    if kind == "ring6":
        topo, variant = build_ring6(), draw(st.sampled_from((Variant.RING_V1, Variant.RING_V2)))
    elif kind == "chain":
        m = draw(st.integers(2, 12))
        variants = (Variant.CHAIN2, Variant.CHAIN_M) if m == 2 else (Variant.CHAIN_M,)
        topo, variant = build_chain(m), draw(st.sampled_from(variants))
    elif kind == "reach":
        t = draw(st.integers(2, 3))
        topo, variant = build_reach_chain(draw(st.integers(t + 1, 8)), t), Variant.REACH_T
    else:
        t = draw(st.integers(1, 3))
        topo, variant = build_multipath(_path_lengths(draw, t + 1, 8, 5, 20), t=t), Variant.MULTIPATH
    trace = run(topo, variant, 1, random.Random(draw(st.integers(0, 2**32 - 1))))
    assume(_largest_path_secrets(trace) <= 18)
    labels = topo.intermediaries
    return trace, _coalition(trace, *draw(st.sets(st.sampled_from(labels))))


@settings(max_examples=100, deadline=None)
@given(_oracle_cases())
def test_generated_layouts_analyzer_agrees_with_truth_table(case):
    trace, coal = case
    target = final_key_expr(trace.schedule)
    want = brute_force_secrecy(trace.schedule, coal, target)
    assert is_recoverable(trace.schedule, coal, target).status is want


def test_coalition_csv_covers_the_powerset():
    trace = _trace(build_chain(2), Variant.CHAIN2)
    rows = coalition_rows(trace.schedule)
    assert len(rows) == 4
    text = coalition_report_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "variant,topology,coalition,status"
    assert "chain2,chain(m=2),N1+N2,BROKEN" in lines
    assert "chain2,chain(m=2),(empty),SECURE" in lines


def _chain2():
    return compile_schedule(plan_keys(build_chain(2), Variant.CHAIN2))


def test_active_substitutions_leak_nothing():
    # the first relay substitutes the payload it received (M0) at the hop it
    # sends (M1), and sees M2 and the two keys it holds as well
    worst, per = max_active_attack_leakage()
    assert set(per) == set(ACTIVE_STRATEGIES)
    assert worst == 0.0
    schedule = _chain2()
    n1 = frozenset({schedule.plan.topology.node("N1")})
    assert schedule.hops[1].sender == "N1"
    for name, fn in ACTIVE_STRATEGIES.items():
        assert active_attack_leakage(schedule, n1, 1, fn) == per[name] == 0.0


@settings(max_examples=20, deadline=None)
@given(
    _layouts(5)  # no layout of more than 5 intermediaries has 8 secrets or fewer
    .map(lambda layout: compile_schedule(plan_keys(*layout)))
    .filter(lambda schedule: len(schedule.secret_ids) <= 8)  # at most 2^8 assignments a sweep
)
def test_a_substitution_leaks_exactly_what_the_passive_view_recovers(schedule):
    # every later message on the substituting member's path is the honest one
    # XOR a function of the payload it received, which the coalition sees: its
    # active view and its passive view determine each other, so the final key
    # leaks in full when is_recoverable says BROKEN and not at all otherwise
    target = final_key_expr(schedule)
    inter = schedule.plan.topology.intermediaries
    for size in range(1, len(inter) + 1):
        for members in combinations(inter, size):
            coal = frozenset(members)
            want = float(is_recoverable(schedule, coal, target).status is Status.BROKEN)
            for hop in schedule.hops:
                if hop.sender in coal:
                    for name, fn in ACTIVE_STRATEGIES.items():
                        got = active_attack_leakage(schedule, coal, hop.index, fn)
                        assert got == want, (describe(coal), hop.index, name, got)


def test_a_substitution_needs_a_member_sending_the_hop():
    schedule = _chain2()
    node = schedule.plan.topology.node
    with pytest.raises(ValueError, match="no member of N1 sends hop 2"):
        active_attack_leakage(schedule, frozenset({node("N1")}), 2, ACTIVE_STRATEGIES["identity"])
    with pytest.raises(ValueError, match="no member of N1\\+N2 sends hop 3"):
        active_attack_leakage(schedule, frozenset({node("N1"), node("N2")}), 3, lambda x: x)
    with pytest.raises(ValueError, match="A is an endpoint"):  # A sends hop 0
        active_attack_leakage(schedule, frozenset({node("A")}), 0, lambda x: x)


def test_collusion_grid_scales_with_paths_and_reach():
    rows = collusion_grid([1, 2, 3], [1, 2])
    table = {(paths, t): cost for paths, t, _, cost in rows}
    assert table == {
        (1, 1): 2,
        (1, 2): 3,
        (2, 1): 4,
        (2, 2): 6,
        (3, 1): 6,
        (3, 2): 9,
    }
    text = grid_csv(rows)
    assert text.splitlines()[0] == "paths,reach,m_per_path,min_colluding_nodes"
    assert "3,2,3,9" in text.splitlines()


def test_collusion_grid_passes_the_enumeration_cap(monkeypatch):
    # every node of every path must collude: the grid's cells of up to 25
    # intermediaries each need all of them
    rows = collusion_grid(range(1, 6), range(1, 5))
    assert [(paths, t) for paths, t, _, _ in rows] == [
        (paths, t) for paths in range(1, 6) for t in range(1, 5)
    ]
    assert max(paths * m for paths, _, m, _ in rows) == 25
    assert all(cost == paths * (t + 1) for paths, t, _, cost in rows)
    # a cell past GRID_CAP is refused before any cell is built
    monkeypatch.setattr(
        analysis, "compile_schedule", lambda *args: pytest.fail("a cell was computed")
    )
    with pytest.raises(ValueError, match="paths=11, reach=9 has 110 intermediaries"):
        collusion_grid([1, 11], [9])


def test_collusion_grid_draws_no_key_and_runs_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the grid must read each reach off its compiled one-path schedule")

    monkeypatch.setattr(KeyStore, "sample", refuse)
    monkeypatch.setattr(protocol, "make_store", refuse)
    monkeypatch.setattr(protocol, "execute", refuse)
    rows = collusion_grid([1, 2, 3], [1, 2, 3])
    assert [cost for *_, cost in rows] == [paths * (t + 1) for paths in (1, 2, 3) for t in (1, 2, 3)]


def _grid_reference(path_counts, reaches):
    """collusion_grid's rows as it once searched them: every cell's whole
    layout, compiled, then _fewest_breaking over all of its paths."""
    rows = []
    for n_paths in path_counts:
        for t in reaches:
            topo = build_multipath([t + 1] * n_paths, t=t)
            schedule = compile_schedule(plan_keys(topo, Variant.MULTIPATH))
            rows.append((n_paths, t, t + 1, analysis._fewest_breaking(schedule)))
    return rows


@settings(max_examples=40, deadline=None)
@given(  # repeated and unsorted values; at most 6 * (6 + 1) intermediaries a cell
    st.lists(st.integers(1, 6), max_size=4), st.lists(st.integers(1, 6), max_size=4)
)
def test_collusion_grid_equals_a_search_of_every_cell(path_counts, reaches):
    assert collusion_grid(path_counts, reaches) == _grid_reference(path_counts, reaches)


@pytest.mark.parametrize(
    "path_counts, reaches",
    [([0], [1, 2]), ([-1], [3]), ([2], [0]), ([1, 0], [0]), ([0, 1], [0]), ([3, 2], [2, -4])],
)
def test_collusion_grid_refuses_the_first_cell_a_search_of_every_cell_refuses(
    path_counts, reaches
):
    with pytest.raises(ValueError) as want:
        _grid_reference(path_counts, reaches)
    with pytest.raises(ValueError) as got:
        collusion_grid(path_counts, reaches)
    assert str(got.value) == str(want.value)


def test_collusion_grid_compiles_one_path_per_distinct_reach(monkeypatch):
    compiled = []

    def counted(plan):
        compiled.append(plan.topology.paths)
        return compile_schedule(plan)

    monkeypatch.setattr(analysis, "compile_schedule", counted)
    assert collusion_grid([3, 1, 3, 2], [2, 2, 1, 3, 1]) == _grid_reference(
        [3, 1, 3, 2], [2, 2, 1, 3, 1]
    )
    assert sorted(len(paths[0]) - 2 for paths in compiled) == [2, 3, 4]  # m = t+1 per reach
    assert all(len(paths) == 1 for paths in compiled)
    assert collusion_grid([], [0, 5]) == [] and collusion_grid([2], []) == []
    for refused in (([1, 0], [1]), ([2], [1, 0]), ([1, 11], [9])):
        with pytest.raises(ValueError):
            collusion_grid(*refused)
    assert len(compiled) == 3


def _run_held(trace, coalition):
    """held_secrets as it read a run: the store's ids, by name, that name a
    member."""
    return tuple(sid for sid in sorted(trace.store.ids()) if not coalition.isdisjoint(sid.ends))


@pytest.mark.parametrize("n", [1, 16, 64])
@settings(max_examples=40, deadline=None)
@given(layout=_layouts(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_schedule_answers_equal_the_run_answers(n, layout, seed, data):
    # every answer read off the schedule is the one a run of it gives: the
    # view is the messages' expressions and the store's ids a member holds
    topo, variant = layout
    trace = run(topo, variant, n, random.Random(seed))
    schedule = trace.schedule
    assert schedule.secret_ids == trace.store.ids()
    assert schedule.exprs == tuple(msg.expr for msg in trace.messages)
    inter = topo.intermediaries
    coal = _coalition(trace, *data.draw(st.lists(st.sampled_from(inter), unique=True)))
    assert held_secrets(schedule, coal) == _run_held(trace, coal)
    target = final_key_expr(schedule)
    assert target == frozenset(trace.nonce_ids)
    status = is_recoverable(schedule, coal, target).status

    for c in min_breaking_coalitions(schedule):  # each breaks, and none without any one member
        assert is_recoverable(schedule, c, target).status is Status.BROKEN
        for nd in c:
            assert is_recoverable(schedule, c - {nd}, target).status is Status.SECURE
    rows = coalition_rows(schedule)
    assert dict((row[2], row[3]) for row in rows)[describe(coal)] == status.value
    if len(schedule.secret_ids) <= 18:  # a wider sweep costs up to 0.3 s
        assert brute_force_secrecy(schedule, coal, target) is status


@st.composite
def _multipath(draw):
    t = draw(st.sampled_from((1, 2)))
    # at most 9 intermediaries: the reference sweep over 12 takes about 3 s
    return build_multipath(_path_lengths(draw, t + 1, 4, 3, 9), t=t), Variant.MULTIPATH


@st.composite
def _reach(draw):
    t = draw(st.integers(2, 4))
    return build_reach_chain(draw(st.integers(t + 1, 10)), t), Variant.REACH_T


LAYOUTS = st.one_of(
    _multipath(),
    st.integers(2, 10).map(
        lambda m: (build_chain(m), Variant.CHAIN2 if m == 2 else Variant.CHAIN_M)
    ),
    _reach(),
    st.sampled_from((Variant.RING_V1, Variant.RING_V2)).map(lambda v: (build_ring6(), v)),
)


@settings(max_examples=12, deadline=None)
@given(LAYOUTS, st.integers(0, 3))
def test_fast_decider_agrees_with_the_reference_analyzer(layout, seed):
    """coalition_rows and min_breaking_coalitions read the key graphs;
    is_recoverable is the reference they must match."""
    schedule = _trace(*layout, seed=seed, n=1).schedule
    inter = schedule.plan.topology.intermediaries
    subsets = [frozenset(c) for size in range(len(inter) + 1) for c in combinations(inter, size)]
    for target in (final_key_expr(schedule), *(frozenset({nid}) for nid in schedule.nonce_ids)):
        statuses = [is_recoverable(schedule, members, target).status for members in subsets]
        assert [row[3] for row in coalition_rows(schedule, target)] == [s.value for s in statuses]
        breaking = {m for m, s in zip(subsets, statuses) if s is Status.BROKEN}
        minimal = [m for m in subsets if m in breaking and not any(m - {x} in breaking for x in m)]
        assert min_breaking_coalitions(schedule, target) == minimal


def test_coalition_rows_list_separators_once_and_never_eliminate(monkeypatch):
    """coalition_rows reads every verdict off the minimal breaking sets, so it
    lists each path's separators once, as min_breaking_coalitions does, and
    decides no row on its own (chain m=10 has 1024 rows). Neither search
    eliminates: elimination serves only is_recoverable."""

    def refuse(rows):
        raise AssertionError("the minimal-set search must not eliminate")

    calls = []
    separators = analysis._separators
    monkeypatch.setattr(analysis, "_separators", lambda *a: calls.append(a) or separators(*a))
    monkeypatch.setattr(analysis, "_eliminate", refuse)
    layouts = ((build_chain(10), Variant.CHAIN_M), (build_multipath([3, 2, 4]), Variant.MULTIPATH))
    for topo, variant in layouts:
        trace = _trace(topo, variant, n=1)
        calls.clear()
        min_breaking_coalitions(trace.schedule)
        assert len(calls) == len(topo.paths)
        assert len(coalition_rows(trace.schedule)) == 2 ** len(topo.intermediaries)
        assert len(calls) == 2 * len(topo.paths)
        calls.clear()  # the audit reads both off one search
        minimal, rows = coalition_audit(trace.schedule)
        assert len(calls) == len(topo.paths)
        assert minimal == min_breaking_coalitions(trace.schedule)
        assert rows == coalition_rows(trace.schedule)


def test_minimal_search_rejects_other_targets():
    trace = _trace(build_multipath([2, 2, 2]), Variant.MULTIPATH, n=1)
    x1, x2, _ = trace.nonce_ids
    key = next(sid for sid in trace.store.ids() if not sid.startswith("X["))
    for target in (frozenset({x1, x2}), frozenset({x1, key}), frozenset({key})):
        with pytest.raises(ValueError, match="neither the final key nor one nonce"):
            min_breaking_coalitions(trace.schedule, target)
        with pytest.raises(ValueError, match="neither the final key nor one nonce"):
            coalition_rows(trace.schedule, target)
    with pytest.raises(ValueError, match="^target 0 is neither"):  # the empty XOR
        min_breaking_coalitions(trace.schedule, frozenset())


@pytest.mark.parametrize(
    "topo,variant,count",
    [
        (build_reach_chain(24, 3), Variant.REACH_T, 38),
        (build_multipath([6] * 6, t=2), Variant.MULTIPATH, 15_625),
    ],
)
def test_minimal_search_cost_follows_the_answer(topo, variant, count):
    trace = _trace(topo, variant, n=1)
    start = time.perf_counter()
    minimal = min_breaking_coalitions(trace.schedule)
    elapsed = time.perf_counter() - start
    assert len(minimal) == count
    assert elapsed < 1.0, f"search took {elapsed:.2f} s"


@st.composite
def _large_layouts(draw):
    """Reach layouts of up to 16 intermediaries and multipath layouts of up
    to 14: past the exhaustive reference sweep, but not past is_recoverable."""
    if draw(st.booleans()):
        t = draw(st.integers(2, 4))
        return build_reach_chain(draw(st.integers(t + 1, 16)), t), Variant.REACH_T
    t = draw(st.integers(1, 3))
    return build_multipath(_path_lengths(draw, t + 1, 8, 5, 14), t=t), Variant.MULTIPATH


@settings(max_examples=20, deadline=None)
@given(_large_layouts())
def test_minimal_sets_are_sound_and_minimal_on_large_layouts(layout):
    """Every reported set breaks under is_recoverable, and dropping any one
    member leaves it SECURE."""
    schedule = _trace(*layout, n=1).schedule
    for target in (final_key_expr(schedule), *(frozenset({nid}) for nid in schedule.nonce_ids)):
        for coal in min_breaking_coalitions(schedule, target):
            assert is_recoverable(schedule, coal, target).status is Status.BROKEN
            for member in coal:
                smaller = coal - {member}
                assert is_recoverable(schedule, smaller, target).status is Status.SECURE


def test_enumeration_cap_refuses_chain_m21():
    trace = _trace(build_chain(ENUMERATION_CAP + 1), Variant.CHAIN_M, n=1)
    message = "21 intermediaries exceeds the exhaustive enumeration cap of 20"
    with pytest.raises(ValueError, match=message):
        coalition_rows(trace.schedule)


def test_coalition_rows_refuse_before_any_search(monkeypatch):
    """The cap is checked before the minimal sets are searched or any 2^m
    table is built."""

    def refuse(*args):
        raise AssertionError("searched a layout past the enumeration cap")

    trace = _trace(build_chain(ENUMERATION_CAP + 1), Variant.CHAIN_M, n=1)
    monkeypatch.setattr(analysis, "_minimal_masks", refuse)
    for enumerate_all in (coalition_rows, coalition_audit):
        with pytest.raises(ValueError, match="exceeds the exhaustive enumeration cap of 20"):
            enumerate_all(trace.schedule)


@pytest.mark.parametrize(
    "topo,variant",
    [
        (build_chain(12), Variant.CHAIN_M),  # N10 sorts before N2
        (build_multipath([10, 2]), Variant.MULTIPATH),  # N1.2 sorts before N10.1
    ],
)
def test_coalition_rows_name_members_in_label_order(topo, variant):
    """Names join labels in label order, which here is not position order;
    rows stay in size, then position order. Each row equals one built from
    the combinations of the intermediaries themselves."""
    trace = _trace(topo, variant, n=1)
    inter = topo.intermediaries
    assert list(inter) != sorted(inter)
    head = (variant.value, topo.describe())
    for target in (final_key_expr(trace.schedule), *(frozenset({nid}) for nid in trace.nonce_ids)):
        minimal = [c for c in min_breaking_coalitions(trace.schedule, target)]
        status = {False: "SECURE", True: "BROKEN"}
        want = [
            (*head, describe(c), status[any(f <= {*c} for f in minimal)])
            for size in range(len(inter) + 1)
            for c in combinations(inter, size)
        ]
        assert coalition_rows(trace.schedule, target) == want


def test_coalition_csv_joins_every_line_across_blocks():
    rows = coalition_rows(_trace(build_chain(13), Variant.CHAIN_M, n=1))
    assert len(rows) == 8192  # two blocks of 4096 rows
    for part in (rows, rows[:5000], rows[:1], []):
        want = "\n".join(["variant,topology,coalition,status", *map(",".join, part)]) + "\n"
        assert coalition_report_csv(part) == want


def test_minimal_search_passes_the_enumeration_cap():
    m = ENUMERATION_CAP + 1
    trace = _trace(build_chain(m), Variant.CHAIN_M, n=1)
    inter = trace.topology.intermediaries
    pairs = combinations(range(m), 2)
    want = [frozenset({inter[i], inter[j]}) for i, j in pairs if (j - i) % 2]
    assert min_breaking_coalitions(trace.schedule) == want  # in combinations order


def _message_key_graphs(trace, target):
    """The key graphs as the analyzer read them off a run's messages before
    it read them off the schedule: per path whose nonce the target holds,
    one edge per key in the messages holding the nonce, from the sender of
    the first such message's hop to the receiver of the last one's."""
    graphs = []
    sent = list(zip(trace.schedule.hops, trace.messages, strict=True))
    for nid in (nid for nid in trace.nonce_ids if nid in target):
        held = [(hop, msg) for hop, msg in sent if nid in msg.expr]
        graph = defaultdict(set)
        for u, v in (sid.ends for _, msg in held for sid in msg.expr if sid != nid):
            graph[u].add(v)
            graph[v].add(u)
        graphs.append((graph, held[0][0].sender, held[-1][0].receiver))
    return graphs


@st.composite
def _any_variant(draw):
    """A layout of each of the six variants, the variant drawn first."""
    variant = draw(st.sampled_from(list(Variant)))
    if variant.shape is Shape.RING6:
        return build_ring6(), variant
    if variant is Variant.CHAIN2:
        return build_chain(2), variant
    if variant is Variant.CHAIN_M:
        return build_chain(draw(st.integers(2, 16))), variant
    if variant is Variant.REACH_T:
        t = draw(st.integers(2, 4))
        return build_reach_chain(draw(st.integers(t + 1, 16)), t), variant
    t = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(t + 1, 8), min_size=1, max_size=4))
    return build_multipath(lengths, t=t), variant


@settings(max_examples=60, deadline=None)
@given(_any_variant(), st.integers(0, 3))
def test_schedule_key_graphs_equal_the_message_key_graphs(layout, seed):
    trace = _trace(*layout, seed=seed, n=1)
    for target in (final_key_expr(trace.schedule), *(frozenset({nid}) for nid in trace.nonce_ids)):
        assert analysis._key_graphs(trace.schedule, target) == _message_key_graphs(trace, target)


def _independent_rows(rows):
    """The positions of the rows (term sets) outside the span of the rows
    before them, by a basis pivoting on each row's largest term: a column
    order the analyzer does not use."""
    basis, independent = {}, []
    for pos, row in enumerate(rows):
        while row and max(row) in basis:
            row ^= basis[max(row)]
        if row:
            basis[max(row)] = row
            independent.append(pos)
    return independent


@settings(max_examples=40, deadline=None)
@given(_layouts(8))
def test_a_recovery_set_is_the_targets_expansion_over_the_independent_rows(layout):
    """On every coalition, a BROKEN recovery set XORs to the target, and
    each of its rows is independent of every row before it in recipe order
    (messages, then held secrets by name). The target's expansion over those
    rows is unique, so no column order can change the set."""
    schedule = compile_schedule(plan_keys(*layout))
    inter = schedule.plan.topology.intermediaries
    targets = (final_key_expr(schedule), *(frozenset({nid}) for nid in schedule.nonce_ids))
    for size in range(len(inter) + 1):
        for members in combinations(inter, size):
            held = held_secrets(schedule, frozenset(members))
            rows = [*schedule.exprs, *(frozenset({sid}) for sid in held)]
            # a held secret's row follows the messages'
            position = {sid: len(schedule.exprs) + i for i, sid in enumerate(held)}
            independent = set(_independent_rows(rows))
            for target in targets:
                verdict = is_recoverable(schedule, frozenset(members), target)
                if verdict.status is Status.SECURE:
                    continue
                picked = [position.get(item, item) for item in verdict.recovery]
                assert picked == sorted(picked) and set(picked) <= independent
                assert reduce(xor, (rows[pos] for pos in picked)) == target


@st.composite
def _grid_like(draw):
    """Multipath layouts of up to 4 paths of up to 7 intermediaries, m
    anywhere from t+1 to 7."""
    t = draw(st.integers(1, 4))
    lengths = draw(st.lists(st.integers(t + 1, 7), min_size=1, max_size=4))
    return build_multipath(lengths, t=t)


@settings(max_examples=40, deadline=None)
@given(_grid_like())
def test_fewest_breaking_is_the_smallest_minimal_coalition(topo):
    trace = _trace(topo, Variant.MULTIPATH, n=1)
    want = min(len(c) for c in min_breaking_coalitions(trace.schedule))
    assert analysis._fewest_breaking(trace.schedule) == want


def _disjoint_paths(graph, origin, absorber):
    """The most internally vertex-disjoint origin-absorber paths in graph, by
    augmenting paths on the node-split graph (Menger, Fund. Math. 10, 1927;
    Even and Tarjan, SIAM J. Comput. 4, 1975): each node v other than the
    ends becomes an arc (v, 0) -> (v, 1) of capacity 1, and each edge u-v
    the arcs (u, 1) -> (v, 0) and (v, 1) -> (u, 0), which no flow fills."""
    residual = defaultdict(dict)  # node -> {successor: capacity left}

    def arc(u, v, capacity):
        residual[u][v] = capacity
        residual[v].setdefault(u, 0)

    for v in list(graph):
        if v not in (origin, absorber):
            arc((v, 0), (v, 1), 1)
        for w in graph[v]:
            arc((v, 1), (w, 0), len(graph))
    source, sink = (origin, 1), (absorber, 0)
    flow = 0
    while True:
        prev, queue = {source: None}, deque([source])
        while queue and sink not in prev:
            u = queue.popleft()
            for v, left in residual[u].items():
                if left and v not in prev:
                    prev[v] = u
                    queue.append(v)
        if sink not in prev:
            return flow
        v = sink
        while prev[v] is not None:
            u = prev[v]
            residual[u][v] -= 1
            residual[v][u] += 1
            v = u
        flow += 1


def _check_menger(topo, variant):
    """Per path, the disjoint-path count equals the smallest listed separator,
    and over the paths they sum to the fewest breaking colluders."""
    schedule = compile_schedule(plan_keys(topo, variant))
    graphs = analysis._key_graphs(schedule, final_key_expr(schedule))
    flows = [_disjoint_paths(*g) for g in graphs]
    assert flows == [min(map(len, analysis._separators(*g))) for g in graphs]
    assert sum(flows) == analysis._fewest_breaking(schedule)
    return sum(flows)


@pytest.mark.parametrize(
    "m, variant",
    [(2, Variant.CHAIN2), *((m, Variant.CHAIN_M) for m in (2, 3, 4, 9, 40, 99, 160))],
)
def test_disjoint_key_paths_certify_the_chain_minimum(m, variant):
    # a chain's key graph holds two disjoint paths from A to B and no third,
    # so two colluders are needed and two suffice
    assert _check_menger(build_chain(m), variant) == 2


@pytest.mark.parametrize("variant", [Variant.RING_V1, Variant.RING_V2])
def test_disjoint_key_paths_certify_the_ring_minimum(variant):
    _check_menger(build_ring6(), variant)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 10).flatmap(lambda t: st.tuples(st.integers(t + 1, 40), st.just(t))))
def test_disjoint_key_paths_certify_the_reach_minimum(layout):
    m, t = layout
    _check_menger(build_reach_chain(m, t), Variant.REACH_T)


@settings(max_examples=40, deadline=None)
@given(_grid_like())
def test_disjoint_key_paths_certify_the_multipath_minimum(topo):
    _check_menger(topo, Variant.MULTIPATH)


def test_disjoint_key_paths_certify_every_grid_cell():
    rows = collusion_grid([1, 2, 3], range(1, 11))
    for paths, t, m, fewest in rows:
        assert _check_menger(build_multipath([m] * paths, t=t), Variant.MULTIPATH) == fewest
