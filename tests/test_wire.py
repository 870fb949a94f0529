import asyncio
import gc
import hashlib
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
REPLAY_PORT = 27120  # and 27160
HALF_CLOSE_PORT = 27200
JUNK_PORT = 27240  # and 27280, 27320
LOST_PORT = 27360  # and 27400, 27440, 27480


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


def _patch_machine(monkeypatch, label, change):
    """Apply change to node label's NodeMachine as the run builds it."""
    machines = wire._machines

    def patched(*args):
        nodes = machines(*args)
        change(nodes[label])
        return nodes

    monkeypatch.setattr(wire, "_machines", patched)


def _mismatch_descriptor(monkeypatch, label):
    """Give node label a run descriptor no other node expects."""

    def mismatch(node):
        node.descriptor = "mismatched|" + node.descriptor

    _patch_machine(monkeypatch, label, mismatch)


def _drop_key(monkeypatch, label, name):
    """Delete the secret called name from the keys held by node label."""

    def drop(node):
        node.values = {sid: v for sid, v in node.values.items() if sid != name}

    _patch_machine(monkeypatch, label, drop)


def _files(out_dir):
    return sorted(path.name for path in out_dir.iterdir())


def _flip_the_low_bit(payload):
    return bytes((payload[0] ^ 0x01,)) + payload[1:]


def _insider(monkeypatch, index, substitute=_flip_the_low_bit):
    """The sender of hop index relays substitute(payload) in place of its
    payload and tags the frame with its genuine link key, so the tag check
    passes. The default flips bit 0, which passes every check."""
    relay = NodeMachine._relay

    def substituting(self, hop):
        relay(self, hop)
        if hop.index == index:
            peer, blob = self._sends[-1]
            key = self.link_keys[peer]
            frame = Frame(FRAME_RELAY, index, substitute(decode_frame(blob, key).payload))
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


def test_a_frame_tagged_under_a_public_link_key_is_refused():
    # the wire once derived each link key from public inputs alone:
    # sha256("link|<variant>|<topology>|<n>|<u>|<v>"), u and v in label order
    topo = build_chain(4)
    nodes = _machines(topo, Variant.CHAIN_M, 5)
    public = f"link|{nodes['N1'].descriptor}|A|N1"
    public_key = hashlib.sha256(public.encode()).digest()
    key = nodes["A"].link_keys["N1"]
    (_, hello), (_, relay), *_ = nodes["A"].dialled("N1")  # A greets N1, sends M0
    assert (hello[4], relay[4]) == (FRAME_HELLO, FRAME_RELAY)
    forged_hello, forged_relay = (
        encode_frame(decode_frame(blob, key), public_key) for blob in (hello, relay)
    )
    with pytest.raises(FrameError) as err:
        nodes["N1"].identify(forged_hello)
    assert err.value.code == "BAD_TAG"
    # on a link that came up with A's genuine HELLO, the forged M0 aborts N1
    assert nodes["N1"].identify(hello) == "A"
    nodes["N1"].feed("A", hello)
    sends = nodes["N1"].feed("A", forged_relay)
    assert nodes["N1"].code == 2 and nodes["N1"].output is None
    assert nodes["N1"].transcript[-1] == "N1: ABORT BAD_TAG"
    assert [(peer, blob[4]) for peer, blob in sends] == [("A", FRAME_ABORT)]


def test_a_frame_replayed_from_another_run_is_refused(tmp_path, monkeypatch):
    # both runs share the layout and seed, so they relay the same payloads;
    # the link keys, drawn afresh per run, are all that tells them apart
    topo = build_chain(4)
    frames = []  # hop 1's frame as N1 sent it, one per run
    relay = NodeMachine._relay

    def replaying(self, hop):
        relay(self, hop)
        if hop.index == 1:
            peer, blob = self._sends[-1]
            frames.append(blob)
            if len(frames) == 2:  # the second run sends the first run's frame
                self._sends[-1] = (peer, frames[0])

    monkeypatch.setattr(NodeMachine, "_relay", replaying)
    first = orchestrate(topo, Variant.CHAIN_M, 64, 5, REPLAY_PORT, str(tmp_path / "one"))
    second = orchestrate(
        topo, Variant.CHAIN_M, 64, 5, REPLAY_PORT + 40, str(tmp_path / "two"), timeout=5.0
    )
    assert first.code == 0
    assert len(frames) == 2 and frames[0] != frames[1]
    assert frames[0][4:-TAG_LEN] == frames[1][4:-TAG_LEN]  # only the tag differs
    assert second.code == 2
    assert second.output_a is None and second.output_b is None
    assert "N2: ABORT BAD_TAG" in second.transcript()
    assert _files(tmp_path / "two") == []


def test_descriptor_mismatch_aborts_in_hello(tmp_path, monkeypatch):
    topo = build_chain(2)
    _mismatch_descriptor(monkeypatch, "N1")
    result = _run(tmp_path, topo, Variant.CHAIN2, seed=3, timeout=5.0)
    assert result.code == 2
    assert any("POSITION_MISMATCH" in line for line in result.transcript())
    assert _files(tmp_path) == []


def test_a_node_lacking_a_key_it_folds_is_a_config_failure(tmp_path, monkeypatch):
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
    # SO_REUSEADDR lets both sockets bind over the TIME_WAIT links an
    # earlier run on these ports left; Linux still lets only one listen
    with socket.socket() as held:
        held.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
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
        again.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
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


def test_a_finished_node_half_closes_so_a_slow_peer_still_reads_its_abort(tmp_path, monkeypatch):
    # B aborts on path 1's tampered hop while path 2 lags: N2.2 reads its
    # link from N1.2 slowly, so it relays M5 and DONE to B after B finished,
    # and it reads its link to B later still. A node that closed its sockets
    # fully when it finished would answer those frames with a reset, and the
    # reset would destroy B's ABORT before N2.2 read it: N2.2 would abort
    # with PEER_LOST instead of naming the tampering
    topo = build_multipath([2, 2])  # A-N1.1-N2.1-B and A-N1.2-N2.2-B
    port = {nd: HALF_CLOSE_PORT + i for i, nd in enumerate(topo.nodes)}
    read_frame = wire._read_frame

    async def slow_read(reader):
        transport = reader._transport
        if transport.get_extra_info("peername")[1] == port["B"]:  # N2.1's and N2.2's links to B
            await asyncio.sleep(0.2)
        elif transport.get_extra_info("sockname")[1] == port["N2.2"]:  # N2.2's link from N1.2
            await asyncio.sleep(0.02)
        return await read_frame(reader)

    monkeypatch.setattr(wire, "_read_frame", slow_read)
    result = orchestrate(
        topo, Variant.MULTIPATH, 64, 5, HALF_CLOSE_PORT, str(tmp_path), tamper_index=2, timeout=2.0
    )
    causes = [
        f"{lab}: exit 2, {lab}: ABORT {'BAD_TAG' if lab == 'B' else 'PEER_ABORT(BAD_TAG)'}"
        for lab in sorted(port)
    ]
    assert result.report == "run failed (exit 2); " + "; ".join(causes)
    assert _files(tmp_path) == []


def _stray_run(out_dir, monkeypatch, base, junk=None):
    """Chain m=4 at timeout=2 on ports base..base+5, with a socket connected
    to N1's listener as the first link comes up. The socket stays idle, or
    sends junk and ends its side of the stream; it is closed after the run.
    Returns the run and its wall time."""
    topo = build_chain(4)
    n1_port = base + topo.nodes.index("N1")
    strays = []
    dialled = NodeMachine.dialled

    def dialled_with_a_stray(self, peer):
        if not strays:
            strays.append(socket.create_connection(("127.0.0.1", n1_port)))
            if junk is not None:
                strays[0].sendall(junk)
                strays[0].shutdown(socket.SHUT_WR)
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


@pytest.mark.parametrize(
    "junk, port",
    [
        (encode_frame(Frame(FRAME_HELLO, 0, b"stray"), bytes(TAG_LEN)), JUNK_PORT),
        ((1 << 30).to_bytes(4, "big"), JUNK_PORT + 40),
        (b"\x00\x00", JUNK_PORT + 80),
    ],
    ids=["wrong-key", "length-2^30", "two-bytes-then-eof"],
)
def test_a_stray_that_sends_junk_is_dropped(tmp_path, monkeypatch, junk, port):
    # an inbound link whose first frame cannot be read or authenticated
    # comes from no peer: N1 closes it unfed, and the run completes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        result, elapsed = _stray_run(tmp_path, monkeypatch, port, junk)
        gc.collect()
    assert result.code == 0, result.report
    assert {lab: m.code for lab, m in result.results.items()} == dict.fromkeys(
        ["A", "B", "N1", "N2", "N3", "N4"], 0
    )
    assert _files(tmp_path) == ["key_A.hex", "key_B.hex"]
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert elapsed < 0.5, f"took {elapsed:.3f} s"


def _chain4_port(base, label):
    return base + build_chain(4).nodes.index(label)


def _chain4_lost(out_dir, monkeypatch, base, **kw):
    """Chain m=4 at timeout=2 on ports base..base+5, with N1's dial to N2
    held back 0.1 s. Returns the run, each node's last transcript line and
    the wall time."""
    open_connection = asyncio.open_connection

    async def held_back(host, port, *args, **kwargs):
        if port == _chain4_port(base, "N2"):  # only N1 dials N2
            await asyncio.sleep(0.1)
        return await open_connection(host, port, *args, **kwargs)

    monkeypatch.setattr(asyncio, "open_connection", held_back)
    start = time.perf_counter()
    result = orchestrate(build_chain(4), Variant.CHAIN_M, 64, 5, base, str(out_dir), timeout=2.0, **kw)
    elapsed = time.perf_counter() - start
    last = {lab: m.transcript[-1].split(": ", 1)[1] for lab, m in result.results.items()}
    return result, last, elapsed


def test_a_dialer_that_aborted_before_its_dial_completed_tells_its_acceptor(tmp_path, monkeypatch):
    # N1 aborts on the tampered hop 0 while its dial to N2 is held back; the
    # dial then completes onto a finished node, which half-closes it, and
    # N2 reads that hang-up before any frame as its peer leaving
    result, last, elapsed = _chain4_lost(tmp_path, monkeypatch, LOST_PORT, tamper_index=0)
    assert result.code == 2, result.report
    assert last["N2"] == "ABORT PEER_LOST"
    assert _files(tmp_path) == []
    assert elapsed < 0.5, f"took {elapsed:.3f} s"


def test_a_dial_refused_by_a_node_that_already_aborted_ends_the_run(tmp_path, monkeypatch):
    # N2 aborts on N3's refusal of its descriptor and closes its listener,
    # so N1's held-back dial is refused: the peer is gone
    _mismatch_descriptor(monkeypatch, "N2")
    result, last, elapsed = _chain4_lost(tmp_path, monkeypatch, LOST_PORT + 40)
    assert result.code == 2, result.report
    assert last["N1"] == "ABORT PEER_LOST"
    assert _files(tmp_path) == []
    assert elapsed < 0.5, f"took {elapsed:.3f} s"


@pytest.mark.parametrize(
    "error, reason, port",
    [
        (ConnectionResetError(), "PEER_LOST", LOST_PORT + 80),
        (FrameError("BAD_LENGTH", "stream ended mid-frame"), "BAD_LENGTH", LOST_PORT + 120),
    ],
    ids=["reset", "mid-frame"],
)
def test_a_link_that_breaks_after_its_first_frame_aborts_the_node(
    tmp_path, monkeypatch, error, reason, port
):
    # N2's link from N1 delivers N1's HELLO, then its next read fails: a
    # reset reads as the peer leaving, a broken frame as that frame's fault
    read_frame = wire._read_frame
    reads = []

    async def breaking(reader):
        if reader._transport.get_extra_info("sockname")[1] == _chain4_port(port, "N2"):
            reads.append(reader)
            if len(reads) == 2:
                raise error
        return await read_frame(reader)

    monkeypatch.setattr(wire, "_read_frame", breaking)
    result, last, elapsed = _chain4_lost(tmp_path, monkeypatch, port)
    assert result.code == 2, result.report
    assert last["N2"] == f"ABORT {reason}"
    assert _files(tmp_path) == []
    assert elapsed < 0.5, f"took {elapsed:.3f} s"


def test_a_stalled_run_times_out_at_the_deadline(tmp_path, monkeypatch):
    # N2 drops every relay, so no node can finish before the deadline
    accept_relay = NodeMachine._accept_relay

    def dropping(self, peer, frame):
        if self.label != "N2":
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
    return wire._machines(schedule, make_store(schedule, n, random.Random(seed)), tamper_index)


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
    assert nodes[topo.endpoint_a].output == key
    assert nodes[topo.endpoint_b].output == key


@settings(max_examples=40, deadline=None)
@given(_layouts(), st.randoms(use_true_random=False), st.integers(0, 2**32 - 1))
def test_generated_layouts_give_the_engine_key_in_any_delivery_order(layout, order, seed):
    topo, variant = layout
    nodes, dones = _deliver(topo, variant, seed, order)
    assert {lab: node.code for lab, node in nodes.items()} == {lab: 0 for lab in nodes}
    assert dones == dict.fromkeys(dones, 1)
    key = run(topo, variant, 64, random.Random(seed)).output_a
    assert nodes[topo.endpoint_a].output == key
    assert nodes[topo.endpoint_b].output == key
    assert all(nodes[nd].output is None for nd in topo.intermediaries)


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
        assert (honest_dir / f"key_{end}.hex").read_text().strip() == key
    assert _files(honest_dir) == ["key_A.hex", "key_B.hex"]

    hops = sum(len(path) - 1 for path in topo.paths)
    tamper = data.draw(st.integers(0, hops - 1), label="tampered hop")
    tampered_dir = tmp_path_factory.mktemp("tampered")
    tampered = orchestrate(
        topo, variant, 64, seed, next(GENERATED_PORTS), str(tampered_dir), tamper_index=tamper
    )
    assert {lab: res.code for lab, res in tampered.results.items()} == {
        nd: 2 for nd in topo.nodes
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
        assert nodes[topo.endpoint_a].output != nodes[topo.endpoint_b].output


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
        nd: 0 for nd in topo.nodes
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


@settings(max_examples=300)
@given(
    n=st.sampled_from([1, 12, 16]),
    peer=st.sampled_from(["A", "N2"]),
    ftype=st.sampled_from(KNOWN_TYPES),
    index=st.just(0) | st.integers(0, 0xFFFF),  # M0 is the relay N1 expects
    data=st.data(),
)
def test_an_authentic_frame_leaves_a_linked_node_running_or_aborted(n, peer, ftype, index, data):
    # whatever an authenticated peer sends, feed answers with frames: a
    # payload that is no n-bit value is a protocol abort, never an exception
    nodes = _machines(build_chain(2), Variant.CHAIN2, 7, n=n)
    n1 = nodes["N1"]
    (_, hello), *_ = nodes["A"].dialled("N1")
    n1.feed("A", hello)
    n1.dialled("N2")
    assert n1.links == n1.peers and n1.code is None
    payload = data.draw(st.binary(max_size=(n + 7) // 8 + 1), label="payload")
    sends = n1.feed(peer, encode_frame(Frame(ftype, index, payload), n1.link_keys[peer]))
    assert isinstance(sends, list)
    assert n1.code in (None, 2)


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
    # plan, store, every NodeMachine and the link-up key check, with no
    # sockets; a scan of the whole schedule per node makes this quadratic
    start = time.perf_counter()
    nodes = _machines(build_chain(4000), Variant.CHAIN_M, 3)
    for lab, node in nodes.items():
        for peer in node.peers_out:
            (_, hello), *_ = node.dialled(peer)
            nodes[peer].feed(lab, hello)
    elapsed = time.perf_counter() - start
    assert all(node.links == node.peers and node.code is None for node in nodes.values())
    assert elapsed < 2.0, f"setup took {elapsed:.2f} s"
