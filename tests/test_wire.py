import asyncio
import dataclasses
import gc
import random
import socket
import threading
import time
import warnings
from collections import deque
from itertools import cycle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keyhop import wire
from keyhop.keyplan import Variant, plan_keys
from keyhop.protocol import compile_schedule, make_store, run
from keyhop.topology import build_chain, build_multipath, build_reach_chain, build_ring6
from keyhop.wire import (
    FRAME_ABORT,
    FRAME_DONE,
    FRAME_HELLO,
    FRAME_RELAY,
    MAX_FRAME,
    TAG_LEN,
    Frame,
    FrameError,
    NodeMachine,
    _node_configs,
    _node_keys,
    _read_frame,
    decode_frame,
    encode_frame,
    orchestrate,
)

from test_keyplan import _layouts  # the generated layouts of at most 12 intermediaries

KEY = b"k" * 32
PORTS = iter(range(20000, 22800, 40))
LONG_CHAIN_PORT = 22800  # chain m=100 listens on 22800..22901
# generated layouts have at most 14 nodes; the blocks are reused in turn, as
# hypothesis may replay an example
GENERATED_PORTS = cycle(range(28000, 30000, 40))
STRAY_PORT = 27000  # and 27040
TIMEOUT_PORT = 27080


def test_frame_round_trip():
    frame = Frame(FRAME_RELAY, 7, b"\x01\x02\x03")
    assert decode_frame(encode_frame(frame, KEY), KEY) == frame


def test_empty_payload_round_trip():
    frame = Frame(FRAME_ABORT, 0, b"")
    assert decode_frame(encode_frame(frame, KEY), KEY) == frame


def test_flipped_bit_fails_the_tag():
    blob = bytearray(encode_frame(Frame(FRAME_RELAY, 1, b"payload"), KEY))
    blob[10] ^= 0x04
    with pytest.raises(FrameError) as err:
        decode_frame(bytes(blob), KEY)
    assert err.value.code == "BAD_TAG"


def test_wrong_key_fails_the_tag():
    blob = encode_frame(Frame(FRAME_HELLO, 0, b"hi"), KEY)
    with pytest.raises(FrameError) as err:
        decode_frame(blob, b"x" * 32)
    assert err.value.code == "BAD_TAG"


def test_tag_is_checked_before_the_type():
    # unknown type plus bad tag must report the tag, not the type
    blob = bytearray(encode_frame(Frame(FRAME_RELAY, 1, b"p"), KEY))
    blob[4] = 0x7F
    with pytest.raises(FrameError) as err:
        decode_frame(bytes(blob), KEY)
    assert err.value.code == "BAD_TAG"


def test_unknown_type_with_a_valid_tag():
    body = bytes((0x7F,)) + (1).to_bytes(2, "big") + b"p"
    import hashlib
    import hmac as hmac_mod

    tag = hmac_mod.new(KEY, body, hashlib.sha256).digest()
    blob = len(body + tag).to_bytes(4, "big") + body + tag
    with pytest.raises(FrameError) as err:
        decode_frame(blob, KEY)
    assert err.value.code == "UNKNOWN_TYPE"


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"\x00\x00",
        b"\x00\x00\x00\x00",  # zero length
        b"\x00\x00\x00\x10" + b"z" * 16,  # shorter than any tagged body
        (MAX_FRAME + 1).to_bytes(4, "big") + b"z",
        b"\x00\x00\x00\xff" + b"z" * 10,  # truncated relative to its length
    ],
)
def test_malformed_lengths_rejected(blob):
    with pytest.raises(FrameError) as err:
        decode_frame(blob, KEY)
    assert err.value.code == "BAD_LENGTH"


def test_oversize_payload_refused_on_encode():
    with pytest.raises(FrameError):
        encode_frame(Frame(FRAME_RELAY, 0, b"z" * MAX_FRAME), KEY)


KNOWN_TYPES = (FRAME_HELLO, FRAME_RELAY, FRAME_DONE, FRAME_ABORT)
MIN_LENGTH = 3 + TAG_LEN  # type + index + tag
frames = st.builds(
    Frame, st.sampled_from(KNOWN_TYPES), st.integers(0, 0xFFFF), st.binary(max_size=64)
)
bad_lengths = st.one_of(st.integers(0, MIN_LENGTH - 1), st.integers(MAX_FRAME + 1, 2**32 - 1))


def _code(blob):
    """decode_frame's FrameError code for blob, or None if it decodes; any
    other exception escapes and fails the test."""
    try:
        decode_frame(blob, KEY)
    except FrameError as exc:
        return exc.code
    return None


@given(st.binary(max_size=128))
def test_decode_random_bytes_raises_only_frame_error(blob):
    _code(blob)


@given(frames, st.data())
def test_decode_truncated_frame_is_bad_length(frame, data):
    blob = encode_frame(frame, KEY)
    assert _code(blob[: data.draw(st.integers(0, len(blob) - 1))]) == "BAD_LENGTH"


@given(frames, bad_lengths)
def test_decode_out_of_range_length_field_is_bad_length(frame, length):
    blob = encode_frame(frame, KEY)
    assert _code(length.to_bytes(4, "big") + blob[4:]) == "BAD_LENGTH"


@given(frames, st.integers(0, TAG_LEN - 1), st.integers(1, 255))
def test_decode_flipped_tag_byte_is_bad_tag(frame, pos, flip):
    blob = bytearray(encode_frame(frame, KEY))
    blob[len(blob) - TAG_LEN + pos] ^= flip
    assert _code(bytes(blob)) == "BAD_TAG"


@given(st.integers(0, 255).filter(lambda t: t not in KNOWN_TYPES), st.binary(max_size=64))
def test_decode_unknown_type_under_a_valid_tag(ftype, payload):
    assert _code(encode_frame(Frame(ftype, 1, payload), KEY)) == "UNKNOWN_TYPE"


def _read(data, count=1):
    """The first `count` reads from a stream that carries data and then ends."""

    async def reads():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [await _read_frame(reader) for _ in range(count)]

    return asyncio.run(reads())


def test_reader_returns_none_at_a_clean_end_of_stream():
    blob = encode_frame(Frame(FRAME_RELAY, 2, b"payload"), KEY)
    assert _read(blob, count=2) == [blob, None]
    assert _read(b"") == [None]


@given(frames, st.data())
def test_reader_rejects_a_truncated_frame(frame, data):
    blob = encode_frame(frame, KEY)
    with pytest.raises(FrameError) as err:
        _read(blob[: data.draw(st.integers(1, len(blob) - 1))])
    assert err.value.code == "BAD_LENGTH"


@given(frames, bad_lengths)
def test_reader_rejects_an_out_of_range_length_field(frame, length):
    blob = encode_frame(frame, KEY)
    with pytest.raises(FrameError) as err:
        _read(length.to_bytes(4, "big") + blob[4:])
    assert err.value.code == "BAD_LENGTH"


def _run(tmp_path, topo, variant, seed=5, n=64, **kw):
    return orchestrate(topo, variant, n, seed, next(PORTS), str(tmp_path), **kw)


def _mismatch_descriptor(monkeypatch, label):
    """Give node label a run descriptor no other node expects."""
    configs = wire._node_configs

    def mismatched(*args):
        cfgs = configs(*args)
        cfgs[label] = dataclasses.replace(cfgs[label], descriptor="mismatched|" + cfgs[label].descriptor)
        return cfgs

    monkeypatch.setattr(wire, "_node_configs", mismatched)


def _drop_key(monkeypatch, label, name):
    """Delete the secret called name from the keys handed to node label."""
    run_nodes = wire._run_nodes

    def dropping(cfgs, keys, *args):
        keys[label] = {sid: v for sid, v in keys[label].items() if sid.name != name}
        return run_nodes(cfgs, keys, *args)

    monkeypatch.setattr(wire, "_run_nodes", dropping)


def _files(out_dir):
    return sorted(path.name for path in out_dir.iterdir())


def _insider(monkeypatch, index):
    """The sender of hop index flips one bit of the payload it relays and
    tags the frame with its genuine link key, so every check passes."""
    relay = NodeMachine._relay

    def substituting(self, hop):
        relay(self, hop)
        if hop.index == index:
            peer, blob = self._sends[-1]
            key = self.cfg.link_keys[peer]
            payload = decode_frame(blob, key).payload
            frame = Frame(FRAME_RELAY, index, bytes((payload[0] ^ 0x01,)) + payload[1:])
            self._sends[-1] = (peer, encode_frame(frame, key))

    monkeypatch.setattr(NodeMachine, "_relay", substituting)


def test_chain_run_matches_the_engine(tmp_path):
    topo = build_chain(3)
    result = _run(tmp_path, topo, Variant.CHAIN_M, seed=5)
    assert result.code == 0
    reference = run(topo, Variant.CHAIN_M, 64, random.Random(5))
    assert result.output_a == reference.output_a
    assert result.output_b == reference.output_a
    assert (tmp_path / "key_A.hex").read_text().strip() == reference.output_a.to_hex()
    assert _files(tmp_path) == ["key_A.hex", "key_B.hex"]


def test_ring_run_matches_the_engine(tmp_path):
    topo = build_ring6()
    result = _run(tmp_path, topo, Variant.RING_V2, seed=8)
    assert result.code == 0
    reference = run(topo, Variant.RING_V2, 64, random.Random(8))
    assert result.output_a == reference.output_a


def test_multipath_run_matches_the_engine(tmp_path):
    topo = build_multipath([2, 2])
    result = _run(tmp_path, topo, Variant.MULTIPATH, seed=13)
    assert result.code == 0
    reference = run(topo, Variant.MULTIPATH, 64, random.Random(13))
    assert result.output_a == reference.output_a


def test_tampered_hop_aborts_everyone_without_keys(tmp_path):
    topo = build_chain(2)
    result = _run(tmp_path, topo, Variant.CHAIN2, seed=3, tamper_index=1, timeout=5.0)
    assert result.code == 2
    assert result.output_a is None and result.output_b is None
    assert _files(tmp_path) == []
    assert any("BAD_TAG" in line for line in result.transcript())


def test_descriptor_mismatch_aborts_in_hello(tmp_path, monkeypatch):
    topo = build_chain(2)
    _mismatch_descriptor(monkeypatch, "N1")
    result = _run(tmp_path, topo, Variant.CHAIN2, seed=3, timeout=5.0)
    assert result.code == 2
    assert any("POSITION_MISMATCH" in line for line in result.transcript())
    assert _files(tmp_path) == []


def test_missing_oracle_entry_is_a_config_failure(tmp_path, monkeypatch):
    topo = build_chain(2)
    _drop_key(monkeypatch, "N1", "K[N1,B]")
    result = _run(tmp_path, topo, Variant.CHAIN2, seed=3, timeout=5.0)
    assert result.code == 3
    assert any("MISSING_KEY" in line for line in result.transcript())
    assert _files(tmp_path) == []


def test_missing_own_nonce_is_a_config_failure(tmp_path, monkeypatch):
    topo = build_chain(2)
    _drop_key(monkeypatch, "A", "X[A]")
    result = _run(tmp_path, topo, Variant.CHAIN2, seed=3, timeout=5.0)
    assert result.code == 3
    assert any(line.startswith("A: ABORT MISSING_KEY") for line in result.transcript())
    assert _files(tmp_path) == []


def test_a_port_in_use_ends_the_run_at_once(tmp_path):
    topo = build_chain(3)  # A, B, N1, N2, N3 listen on base .. base+4
    base = next(PORTS)
    with socket.socket() as held:
        held.bind(("127.0.0.1", base + 4))
        held.listen()
        start = time.perf_counter()
        result = orchestrate(topo, Variant.CHAIN_M, 64, 5, base, str(tmp_path), timeout=5)
        elapsed = time.perf_counter() - start
    assert result.code == 3
    assert "N3: exit 3, N3: CONFIG" in result.report
    assert elapsed < 0.5, f"took {elapsed:.3f} s"
    assert _files(tmp_path) == []
    with socket.socket() as again:  # the listeners bound before N3's are closed
        again.bind(("127.0.0.1", base + 1))


def test_transcripts_never_leak_key_material(tmp_path, monkeypatch):
    topo = build_ring6()
    honest = _run(tmp_path / "honest", topo, Variant.RING_V2, seed=21)
    _insider(monkeypatch, 1)
    mismatched = _run(tmp_path / "insider", topo, Variant.RING_V2, seed=21)
    assert (honest.code, mismatched.code) == (0, 2)
    reference = run(topo, Variant.RING_V2, 64, random.Random(21))
    secrets = {reference.store[sid].to_hex() for sid in reference.store.ids()}
    secrets |= {reference.output_a.to_hex(), mismatched.output_a.to_hex(), mismatched.output_b.to_hex()}
    for result in (honest, mismatched):
        joined = "\n".join([result.report, *result.transcript()])
        for hexval in secrets:
            assert hexval not in joined


def test_reruns_on_fresh_ports_agree(tmp_path):
    topo = build_chain(2)
    first = _run(tmp_path / "one", topo, Variant.CHAIN2, seed=2)
    second = _run(tmp_path / "two", topo, Variant.CHAIN2, seed=2)
    assert first.code == second.code == 0
    assert first.output_a == second.output_a


@pytest.mark.parametrize("seed", [31, 32])
def test_tampering_any_hop_of_a_long_chain_aborts_well_inside_the_timeout(tmp_path, seed):
    # a full close with unread frames resets the link, the reset destroys an
    # ABORT the neighbour has not read, and the neighbour waits out the timeout
    topo = build_chain(10)
    for hop in range(11):
        out = tmp_path / f"hop{hop}"
        start = time.perf_counter()
        result = _run(out, topo, Variant.CHAIN_M, seed=seed, n=128, tamper_index=hop, timeout=1.0)
        elapsed = time.perf_counter() - start
        assert result.code == 2, result.report
        assert _files(out) == []
        assert elapsed < 0.5, f"hop {hop} took {elapsed:.3f} s"


def _stray_run(out_dir, monkeypatch, base):
    """Chain m=4 at timeout=2 on ports base..base+5, with an idle socket
    connected to N1's listener as the first link comes up; the socket is
    closed after the run. Returns the run and its wall time."""
    topo = build_chain(4)
    n1_port = base + [nd.label for nd in topo.nodes].index("N1")
    strays = []
    dialled = NodeMachine.dialled

    def dialled_with_a_stray(self, peer):
        if not strays:
            strays.append(socket.create_connection(("127.0.0.1", n1_port)))
        return dialled(self, peer)

    monkeypatch.setattr(NodeMachine, "dialled", dialled_with_a_stray)
    try:
        start = time.perf_counter()
        result = orchestrate(topo, Variant.CHAIN_M, 64, 5, base, str(out_dir), timeout=2.0)
        elapsed = time.perf_counter() - start
    finally:
        for stray in strays:
            stray.close()
    assert len(strays) == 1
    return result, elapsed


def test_a_stray_connection_does_not_delay_the_run(tmp_path, monkeypatch):
    # the stray never sends and never closes; the run must not wait for it
    result, elapsed = _stray_run(tmp_path, monkeypatch, STRAY_PORT)
    assert result.code == 0, result.report
    assert _files(tmp_path) == ["key_A.hex", "key_B.hex"]
    assert elapsed < 0.5, f"took {elapsed:.3f} s"


def test_a_stalled_run_times_out_at_the_deadline(tmp_path, monkeypatch):
    # N2 drops every relay, so no node can finish before the deadline
    accept_relay = NodeMachine._accept_relay

    def dropping(self, peer, frame):
        if self.cfg.label != "N2":
            accept_relay(self, peer, frame)

    monkeypatch.setattr(NodeMachine, "_accept_relay", dropping)
    start = time.perf_counter()
    result = orchestrate(build_chain(4), Variant.CHAIN_M, 64, 5, TIMEOUT_PORT, str(tmp_path), timeout=1.0)
    elapsed = time.perf_counter() - start
    causes = "; ".join(f"{lab}: exit 2, {lab}: ABORT TIMEOUT" for lab in ["A", "B", "N1", "N2", "N3", "N4"])
    assert (result.code, result.report) == (2, f"run failed (exit 2); {causes}")
    assert _files(tmp_path) == []
    assert elapsed < 1.5, f"took {elapsed:.3f} s"


def test_failed_runs_close_every_socket_transport_and_loop(tmp_path, caplog):
    topo = build_chain(2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        honest = _run(tmp_path / "honest", topo, Variant.CHAIN2, seed=3)
        with pytest.MonkeyPatch.context() as mp:
            stray, _ = _stray_run(tmp_path / "stray", mp, STRAY_PORT + 40)
        with pytest.MonkeyPatch.context() as mp:
            _drop_key(mp, "N1", "K[N1,B]")
            missing = _run(tmp_path / "missing", topo, Variant.CHAIN2, seed=3)
        tampered = _run(tmp_path / "tampered", topo, Variant.CHAIN2, seed=3, tamper_index=1)
        with pytest.MonkeyPatch.context() as mp:
            _mismatch_descriptor(mp, "N1")
            refused = _run(tmp_path / "refused", topo, Variant.CHAIN2, seed=3)
        gc.collect()
    assert (honest.code, stray.code, missing.code, tampered.code, refused.code) == (0, 0, 3, 2, 2)
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    logged = [r.getMessage() for r in caplog.records if r.name == "asyncio"]
    leaks = ("Task was destroyed but it is pending", "exception was never retrieved")
    assert [msg for msg in logged if any(leak in msg for leak in leaks)] == []


@pytest.mark.parametrize(
    "topo, variant, port",
    [
        (build_ring6(), Variant.RING_V2, None),
        (build_ring6(), Variant.RING_V1, None),
        (build_reach_chain(5, 2), Variant.REACH_T, None),
        (build_chain(10), Variant.CHAIN_M, None),
        (build_chain(100), Variant.CHAIN_M, LONG_CHAIN_PORT),
    ],
    ids=["ring6", "ring6v1", "reach52", "chain10", "chain100"],
)
def test_a_run_matches_the_engine_on_the_calling_thread_alone(
    tmp_path, monkeypatch, topo, variant, port
):
    counts = []
    feed = NodeMachine.feed

    def counting_feed(self, *args):
        counts.append(threading.active_count())
        return feed(self, *args)

    monkeypatch.setattr(NodeMachine, "feed", counting_feed)
    before = threading.active_count()
    result = orchestrate(topo, variant, 128, 17, port or next(PORTS), str(tmp_path))
    assert result.code == 0, result.report
    reference = run(topo, variant, 128, random.Random(17))
    assert result.output_a == result.output_b == reference.output_a
    assert counts and set(counts) == {before}
    assert threading.active_count() == before


# -- delivery orders, with no sockets -----------------------------------------


def _machines(topo, variant, seed, tamper_index=None, n=64):
    """Every node's NodeMachine, keyed by label, with its own keys."""
    schedule = compile_schedule(plan_keys(topo, variant))
    keys = _node_keys(topo, make_store(schedule, n, random.Random(seed)))
    return {
        lab: NodeMachine(cfg, keys[lab])
        for lab, cfg in _node_configs(schedule, n, tamper_index).items()
    }


def _deliver(topo, variant, seed, order, tamper_index=None, n=64):
    """Run every node's NodeMachine in-process and return the machines and
    the DONE frames sent on each directed link. Each direction of each link
    is a FIFO queue, as TCP keeps order within a stream; `order` picks the
    next step: a node dials one of its links, or a link delivers its next
    frame. A node that finishes half-closes its links: its peers read the
    end of stream after its last frame. Deadlines never fire, so a run that
    needs one to end leaves a node unfinished."""
    nodes = _machines(topo, variant, seed, tamper_index, n)
    queues = {}
    for lab, node in nodes.items():
        for peer in node.peers_out:
            queues[(lab, peer)] = deque()
            queues[(peer, lab)] = deque()
    dones = dict.fromkeys(queues, 0)
    closed = set()

    def send(lab, sends):
        for peer, blob in sends:
            queues[(lab, peer)].append(blob)
            dones[(lab, peer)] += blob[4] == FRAME_DONE
        if nodes[lab].code is not None and lab not in closed:
            closed.add(lab)
            for (sender, _), queue in queues.items():
                if sender == lab:
                    queue.append(None)

    dials = [(lab, peer) for lab, node in nodes.items() for peer in node.peers_out]
    while True:
        ready = sorted(link for link, queue in queues.items() if queue)
        if not ready and not dials:
            return nodes, dones
        pick = order.randrange(len(dials) + len(ready))
        if pick < len(dials):
            lab, peer = dials.pop(pick)
            send(lab, nodes[lab].dialled(peer))
        else:
            sender, receiver = ready[pick - len(dials)]
            send(receiver, nodes[receiver].feed(sender, queues[(sender, receiver)].popleft()))


DELIVERY_LAYOUTS = [
    (build_ring6(), Variant.RING_V2),
    (build_ring6(), Variant.RING_V1),
    (build_chain(2), Variant.CHAIN2),
    (build_chain(4), Variant.CHAIN_M),
    (build_reach_chain(5, 2), Variant.REACH_T),
    (build_multipath([2, 2]), Variant.MULTIPATH),
    (build_multipath([3, 3], t=2), Variant.MULTIPATH),
]
DELIVERY_IDS = ["ring6", "ring6v1", "chain2", "chain4", "reach52", "multipath22", "multipath33t2"]


@pytest.mark.parametrize("topo, variant", DELIVERY_LAYOUTS, ids=DELIVERY_IDS)
@settings(max_examples=30)
@given(order=st.randoms(use_true_random=False), seed=st.integers(0, 2**32 - 1))
def test_any_delivery_order_gives_both_endpoints_the_engine_key(topo, variant, order, seed):
    nodes, dones = _deliver(topo, variant, seed, order)
    assert {lab: node.code for lab, node in nodes.items()} == {lab: 0 for lab in nodes}
    assert dones == dict.fromkeys(dones, 1)
    key = run(topo, variant, 64, random.Random(seed)).output_a
    assert nodes[topo.endpoint_a.label].output == key
    assert nodes[topo.endpoint_b.label].output == key


@settings(max_examples=40, deadline=None)
@given(_layouts(), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_generated_layouts_give_the_engine_key_in_any_delivery_order(layout, order, seed):
    topo, variant = layout
    nodes, dones = _deliver(topo, variant, seed, order)
    assert {lab: node.code for lab, node in nodes.items()} == {lab: 0 for lab in nodes}
    assert dones == dict.fromkeys(dones, 1)
    key = run(topo, variant, 64, random.Random(seed)).output_a
    assert nodes[topo.endpoint_a.label].output == key
    assert nodes[topo.endpoint_b.label].output == key
    assert all(nodes[nd.label].output is None for nd in topo.intermediaries)


@settings(max_examples=6, deadline=None)
@given(_layouts(), st.integers(0, 2**32 - 1), st.data())
def test_generated_layouts_over_sockets_match_the_engine_and_abort_on_tampering(
    tmp_path_factory, layout, seed, data
):
    topo, variant = layout
    honest_dir = tmp_path_factory.mktemp("honest")
    honest = orchestrate(topo, variant, 64, seed, next(GENERATED_PORTS), str(honest_dir))
    assert honest.code == 0, honest.report
    key = run(topo, variant, 64, random.Random(seed)).output_a.to_hex()
    for end in (topo.endpoint_a, topo.endpoint_b):
        assert (honest_dir / f"key_{end.label}.hex").read_text().strip() == key
    assert _files(honest_dir) == ["key_A.hex", "key_B.hex"]

    hops = sum(len(path) - 1 for path in topo.paths)
    tamper = data.draw(st.integers(0, hops - 1), label="tampered hop")
    tampered_dir = tmp_path_factory.mktemp("tampered")
    tampered = orchestrate(
        topo, variant, 64, seed, next(GENERATED_PORTS), str(tampered_dir), tamper_index=tamper
    )
    assert {lab: res.code for lab, res in tampered.results.items()} == {
        nd.label: 2 for nd in topo.nodes
    }, tampered.report
    assert _files(tampered_dir) == []


@settings(max_examples=20, deadline=None)
@given(_layouts(), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_an_insider_at_any_hop_passes_every_node_and_splits_the_keys(layout, order, seed):
    # no node can tell: only the run, which sees both endpoint keys, can
    topo, variant = layout
    for index in range(sum(len(path) - 1 for path in topo.paths)):
        with pytest.MonkeyPatch.context() as mp:
            _insider(mp, index)
            nodes, _ = _deliver(topo, variant, seed, order)
        assert {lab: node.code for lab, node in nodes.items()} == {lab: 0 for lab in nodes}
        assert nodes[topo.endpoint_a.label].output != nodes[topo.endpoint_b.label].output


@settings(max_examples=6, deadline=None)
@given(_layouts(), st.integers(0, 2**32 - 1), st.data())
def test_an_insider_on_generated_layouts_over_sockets_fails_the_run_keyless(
    tmp_path_factory, layout, seed, data
):
    topo, variant = layout
    hops = sum(len(path) - 1 for path in topo.paths)
    index = data.draw(st.integers(0, hops - 1), label="insider hop")
    out = tmp_path_factory.mktemp("insider")
    with pytest.MonkeyPatch.context() as mp:
        _insider(mp, index)
        result = orchestrate(topo, variant, 64, seed, next(GENERATED_PORTS), str(out))
    assert {lab: res.code for lab, res in result.results.items()} == {
        nd.label: 0 for nd in topo.nodes
    }
    assert (result.code, result.report) == (2, "run failed (exit 2); endpoint keys differ")
    assert _files(out) == []
    assert not any("OUTPUT written" in line for line in result.transcript())


@pytest.mark.parametrize("topo, variant", DELIVERY_LAYOUTS, ids=DELIVERY_IDS)
@settings(max_examples=30)
@given(order=st.randoms(use_true_random=False), data=st.data())
def test_any_delivery_order_aborts_every_node_on_a_tampered_relay(topo, variant, order, data):
    hops = sum(len(path) - 1 for path in topo.paths)
    tamper = data.draw(st.integers(0, hops - 1), label="tampered hop")
    nodes, _ = _deliver(topo, variant, 7, order, tamper_index=tamper)
    assert {lab: node.code for lab, node in nodes.items()} == {lab: 2 for lab in nodes}
    assert all(node.output is None for node in nodes.values())


def test_a_peer_that_leaves_before_its_done_is_lost():
    nodes = _machines(build_chain(2), Variant.CHAIN2, 7)
    a, n1 = nodes["A"], nodes["N1"]
    hello, relay, done = (blob for _, blob in a.dialled("N1"))
    assert done[4] == FRAME_DONE
    assert n1.identify(hello) == "A"
    n1.feed("A", hello)
    n1.dialled("N2")
    n1.feed("A", relay)
    sends = n1.feed("A", None)  # A's end of stream, with its DONE lost
    assert n1.code == 2 and n1.output is None
    assert n1.transcript[-1] == "N1: ABORT PEER_LOST"
    assert [(peer, blob[4]) for peer, blob in sends] == [("A", FRAME_ABORT), ("N2", FRAME_ABORT)]


def test_setting_up_a_long_chain_is_linear():
    # plan, configs, every NodeMachine and the link-up key check, with no
    # sockets; a scan of the whole schedule per node makes this quadratic
    start = time.perf_counter()
    topo = build_chain(4000)
    schedule = compile_schedule(plan_keys(topo, Variant.CHAIN_M))
    keys = _node_keys(topo, make_store(schedule, 64, random.Random(3)))
    cfgs = _node_configs(schedule, 64)
    nodes = {lab: NodeMachine(cfg, keys[lab]) for lab, cfg in cfgs.items()}
    for lab, node in nodes.items():
        for peer in node.peers_out:
            (_, hello), *_ = node.dialled(peer)
            nodes[peer].feed(lab, hello)
    elapsed = time.perf_counter() - start
    assert all(node.links == node.peers and node.code is None for node in nodes.values())
    assert elapsed < 2.0, f"setup took {elapsed:.2f} s"
