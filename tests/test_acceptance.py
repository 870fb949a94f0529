"""Acceptance gate: one test per numbered criterion, one verdict line each.

Every test re-derives its claim from the public API at the stated tolerance
and records a single PASS or FAIL line; the conftest terminal-summary hook
replays the lines as a checklist after the run. Criteria with a time budget
assert it.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations, count

import conftest

from keyhop.analysis import (
    Status,
    brute_force_secrecy,
    describe,
    final_key_expr,
    is_recoverable,
    max_active_attack_leakage,
    min_breaking_coalitions,
    recover_bits,
)
from keyhop.bits import BitString, nonce
from keyhop.keyplan import Variant, plan_keys
from keyhop.protocol import compile_schedule, execute, make_store, run
from keyhop.ratemodel import (
    RateParams,
    is_virtually_null,
    max_range,
    max_range_tf,
    rate_scheme,
    rate_tf,
)
from keyhop.topology import build_chain, build_multipath, build_reach_chain, build_ring6
from keyhop.wire import orchestrate


def _emit(line):
    # shown next to the test on failure, and replayed after the run by the
    # terminal-summary hook so the checklist survives output capture
    print(line)
    conftest.verdict_lines.append(line)


@contextmanager
def _criterion(number, title):
    note = {}
    try:
        yield note
    except BaseException:
        detail = f" ({note['detail']})" if "detail" in note else ""
        _emit(f"FAIL criterion {number}: {title}{detail}")
        raise
    detail = f" ({note['detail']})" if "detail" in note else ""
    _emit(f"PASS criterion {number}: {title}{detail}")


# every (topology, variant) pair the secrecy claims quantify over
def _all_configs():
    configs = [
        (build_ring6(), Variant.RING_V1),
        (build_ring6(), Variant.RING_V2),
        (build_chain(2), Variant.CHAIN2),
    ]
    configs += [(build_chain(m), Variant.CHAIN_M) for m in range(2, 7)]
    configs += [(build_reach_chain(3, 2), Variant.REACH_T)]
    configs += [
        (build_multipath([2] * paths), Variant.MULTIPATH) for paths in (1, 2, 3)
    ]
    return configs


def test_criterion_1_every_honest_run_agrees_on_the_nonce_fold():
    with _criterion(1, "honest-run correctness") as note:
        t0 = time.monotonic()
        runs = 0
        for topo, variant in _all_configs():
            schedule = compile_schedule(plan_keys(topo, variant))
            for n in (1, 8, 64):
                for seed in range(100):
                    trace = execute(schedule, make_store(schedule, n, random.Random(seed)))
                    key = 0
                    for nid in trace.nonce_ids:
                        key ^= trace.store[nid].value
                    assert trace.output_a == trace.output_b == BitString(key, n)
                    runs += 1
        elapsed = time.monotonic() - t0
        note["detail"] = f"{runs} runs, endpoints equal the nonce fold, {elapsed:.2f}s"
        assert elapsed < 5.0


def _table(trace):
    return [
        (f"{hop.sender}->{hop.receiver}", "+".join(sorted(msg.expr)))
        for hop, msg in zip(trace.schedule.hops, trace.messages, strict=True)
    ]


def test_criterion_2_golden_message_tables():
    with _criterion(2, "golden message tables") as note:
        v1 = run(build_ring6(), Variant.RING_V1, 8, random.Random(0))
        assert _table(v1) == [
            ("A->N1", "K[A,N2]+X[A]"),
            ("N1->N2", "K[A,N2]+K[N1,B]+X[A]"),
            ("N2->B", "K[N1,B]+X[A]"),
            ("B->N4", "K[N3,B]+X[B]"),
            ("N4->N3", "K[A,N4]+K[N3,B]+X[B]"),
            ("N3->A", "K[A,N4]+X[B]"),
        ]
        v2 = run(build_ring6(), Variant.RING_V2, 8, random.Random(0))
        assert _table(v2) == [
            ("A->N1", "K[A,N2]+P[A,N1]+X[A]"),
            ("N1->N2", "K[A,N2]+K[N1,B]+X[A]"),
            ("N2->B", "K[N1,B]+P[N2,B]+X[A]"),
            ("B->N4", "K[N3,B]+P[N4,B]+X[B]"),
            ("N4->N3", "K[A,N4]+K[N3,B]+X[B]"),
            ("N3->A", "K[A,N4]+P[A,N3]+X[B]"),
        ]
        reach = run(build_reach_chain(3, 2), Variant.REACH_T, 8, random.Random(0))
        assert _table(reach) == [
            ("A->N1", "K[A,N2]+K[A,N3]+P[A,N1]+X[A]"),
            ("N1->N2", "K[A,N2]+K[A,N3]+K[N1,B]+K[N1,N3]+X[A]"),
            ("N2->N3", "K[A,N3]+K[N1,B]+K[N1,N3]+K[N2,B]+X[A]"),
            ("N3->B", "K[N1,B]+K[N2,B]+P[N3,B]+X[A]"),
        ]
        note["detail"] = "ring v1/v2 and reach(t=2,m=3) match row for row"


def test_criterion_3_unpatched_ring_falls_to_a_passive_wiretap():
    with _criterion(3, "passive wiretap recovery on the unpatched ring") as note:
        for seed in range(20):
            trace = run(build_ring6(), Variant.RING_V1, 16, random.Random(seed))
            schedule, eavesdropper = trace.schedule, frozenset()
            key = is_recoverable(schedule, eavesdropper, final_key_expr(schedule))
            assert key.status is Status.BROKEN
            assert key.recovery_labels == ("M0", "M1", "M2", "M3", "M4", "M5")
            assert recover_bits(trace, key) == trace.output_a

            x_a = is_recoverable(schedule, eavesdropper, frozenset({nonce("A")}))
            assert x_a.recovery_labels == ("M0", "M1", "M2")
            assert recover_bits(trace, x_a) == trace.store[nonce("A")]
            x_b = is_recoverable(schedule, eavesdropper, frozenset({nonce("B")}))
            assert x_b.recovery_labels == ("M3", "M4", "M5")
            assert recover_bits(trace, x_b) == trace.store[nonce("B")]

            # two consecutive public messages cancel down to one naked link key
            k_n1b = next(s for s in trace.store.ids() if s == "K[N1,B]")
            m0, m1 = trace.messages[0].bits.value, trace.messages[1].bits.value
            assert m0 ^ m1 == trace.store[k_n1b].value
        note["detail"] = "20 seeds, key and both nonces recovered bit-exact from public messages"


def _coalition_sets(minimal):
    return sorted(tuple(sorted(c)) for c in minimal)


def test_criterion_4_minimal_breaking_coalitions():
    with _criterion(4, "minimal breaking coalitions") as note:
        t0 = time.monotonic()
        failures = []

        def expect(label, got, want):
            if got != want:
                failures.append(f"{label}: got {got!r}, want {want!r}")

        ring = run(build_ring6(), Variant.RING_V2, 1, random.Random(0))
        expect(
            "patched ring",
            _coalition_sets(min_breaking_coalitions(ring.schedule)),
            [("N1", "N2", "N3", "N4")],
        )

        chain2 = run(build_chain(2), Variant.CHAIN2, 1, random.Random(0))
        expect("chain2", _coalition_sets(min_breaking_coalitions(chain2.schedule)), [("N1", "N2")])

        for m in range(2, 7):
            trace = run(build_chain(m), Variant.CHAIN_M, 1, random.Random(0))
            minimal = min_breaking_coalitions(trace.schedule)
            expect(f"chain m={m} minimum size", min(map(len, minimal)), 2)
            adjacent = sorted((f"N{i}", f"N{i + 1}") for i in range(1, m))
            expect(f"chain m={m} exact minimal sets", _coalition_sets(minimal), adjacent)

        for paths, want in (([2], 2), ([2, 2], 4), ([2, 2, 2], 6)):
            trace = run(build_multipath(paths), Variant.MULTIPATH, 1, random.Random(0))
            minimal = min_breaking_coalitions(trace.schedule)
            expect(
                f"multipath {paths} minimum size",
                min(map(len, minimal)),
                2 * len(paths),
            )

        reach = run(build_reach_chain(3, 2), Variant.REACH_T, 1, random.Random(0))
        pair = frozenset({reach.topology.node("N1"), reach.topology.node("N2")})
        expect(
            "reach(t=2,m=3) adjacent pair",
            is_recoverable(reach.schedule, pair, final_key_expr(reach.schedule)).status,
            Status.SECURE,
        )

        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        if failures:
            note["detail"] = f"{failures[0]}" + (
                f"; {len(failures) - 1} more" if len(failures) > 1 else ""
            )
        else:
            note["detail"] = f"all coalition sets and size bounds hold, {elapsed:.2f}s"
        assert not failures, "\n".join(failures)


def test_criterion_5_eliminator_matches_the_truth_table_oracle():
    with _criterion(5, "GF(2) analyzer vs exhaustive truth table") as note:
        checks = 0
        disagreements = []
        for topo, variant in _all_configs():
            if variant is Variant.RING_V1:
                continue
            for seed in (0, 1, 2):
                schedule = run(topo, variant, 1, random.Random(seed)).schedule
                target = final_key_expr(schedule)
                inter = topo.intermediaries
                for size in range(len(inter) + 1):
                    for combo in combinations(inter, size):
                        coal = frozenset(combo)
                        gf = is_recoverable(schedule, coal, target).status
                        bf = brute_force_secrecy(schedule, coal, target)
                        checks += 1
                        if gf is not bf:
                            disagreements.append(
                                f"{variant.value} seed={seed} {describe(coal)}: "
                                f"eliminator={gf.value} oracle={bf.value}"
                            )
        # multipath (4,4,4,4; t=3) has 48 secrets in four blocks of 12, each
        # swept alone: a fixed, seeded sample of its 2^16 coalitions
        topo = build_multipath([4, 4, 4, 4], t=3)
        schedule = run(topo, Variant.MULTIPATH, 1, random.Random(0)).schedule
        target = final_key_expr(schedule)
        inter = topo.intermediaries
        rng = random.Random(5)
        sample = [frozenset(rng.sample(inter, rng.randint(0, len(inter)))) for _ in range(55)]
        # only all 16 together break it, so the sample holds them and 8 sets one short
        full = frozenset(inter)
        sample += [full] + [full - {nd} for nd in inter[::2]]
        for coal in sample:
            gf = is_recoverable(schedule, coal, target).status
            bf = brute_force_secrecy(schedule, coal, target)
            checks += 1
            if gf is not bf:
                disagreements.append(
                    f"multipath(4,4,4,4;t=3) {describe(coal)}:"
                    f" eliminator={gf.value} oracle={bf.value}"
                )
        assert checks >= 500 + len(sample)
        assert not disagreements, "\n".join(disagreements)
        note["detail"] = f"{checks} coalition checks, zero disagreements"


def test_criterion_6_active_tampering_learns_nothing():
    with _criterion(6, "active tampering leakage") as note:
        worst, per_strategy = max_active_attack_leakage()
        assert worst == 0.0
        assert all(bits == 0.0 for bits in per_strategy.values())
        note["detail"] = (
            f"chain2, coalition N1 substituting at hop 1: max over {len(per_strategy)}"
            " deterministic strategies is exactly 0.0 bits"
        )


def test_criterion_7_rate_anchors_and_identities():
    with _criterion(7, "rate-model anchors") as note:
        params = RateParams()

        def factor(got, want):
            return max(got, want) / min(got, want)

        assert math.isclose(rate_tf(300, params), 1000.0, rel_tol=1e-12)
        assert factor(rate_tf(500, params), 6.0) <= 2.5
        assert factor(rate_scheme(600, 2, params), 100.0) <= 2.5
        assert factor(rate_scheme(400, 2, params), 1000.0) <= 2.5
        assert is_virtually_null(rate_tf(600, params), params)

        # the scheme rate over distance 3L with m=2 is one relay link of 2L
        for km in range(1, 101):
            scheme = rate_scheme(3.0 * km, 2, params)
            link = rate_tf(2.0 * km, params)
            assert abs(scheme - link) / link <= 1e-12

        base = max_range_tf(params)
        for m in range(2, 7):
            assert abs(max_range(m, params) / base - (m + 1) / 2) <= 1e-9
        note["detail"] = (
            "calibration exact, four anchors within factor 2.5, "
            "segment identity to 1e-12 over 100 lengths, reach factor (m+1)/2"
        )


def test_criterion_8_wire_plane_matches_the_engine(tmp_path):
    with _criterion(8, "wire plane matches the in-process engine") as note:
        t0 = time.monotonic()
        ports = count(26000, 16)  # stay below the ephemeral port range
        cases = [
            (build_ring6(), Variant.RING_V2, "ring"),
            (build_chain(3), Variant.CHAIN_M, "chain3"),
        ]
        runs = 0
        for topo, variant, tag in cases:
            for seed in range(20):
                out_dir = tmp_path / f"{tag}_{seed}"
                wired = orchestrate(topo, variant, 128, seed, next(ports), str(out_dir))
                assert wired.code == 0, wired.report
                engine = run(topo, variant, 128, random.Random(seed))
                assert wired.output_a == engine.output_a
                assert wired.output_b == engine.output_b
                runs += 1

        tampered_dir = tmp_path / "tampered"
        tampered = orchestrate(
            build_ring6(), Variant.RING_V2, 128, 99, next(ports), str(tampered_dir), tamper_index=2
        )
        assert tampered.code == 2
        assert tampered.output_a is None and tampered.output_b is None
        assert not list(tampered_dir.glob("key_*.hex"))

        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        note["detail"] = f"{runs} runs byte-identical, tampered run aborted keyless, {elapsed:.1f}s"
