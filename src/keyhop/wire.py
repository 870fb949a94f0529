"""Authenticated TCP transport for the relay protocols.

Frame layout, integers big-endian:

    length  u32   byte count of everything after this field
    type    u8    0x01 HELLO, 0x02 RELAY, 0x03 DONE, 0x04 ABORT
    index   u16   hop index (0 for HELLO/DONE/ABORT)
    payload bytes n-bit value for RELAY, empty for DONE, UTF-8 text otherwise
    tag     32B   HMAC-SHA256 over type+index+payload with the link key

Each link's key is 32 bytes drawn with `secrets` once per run, as a
pre-shared authentication key would be: no public input (layout, variant,
n, seed) derives it, so no outsider can tag a frame and no frame of one run
is accepted in another.

A frame's tag is verified before any payload byte is acted on. A RELAY
payload is one n-bit value, ceil(n/8) bytes little-endian; a node refuses one
of another length or with a bit at or above n. Each node walks the hops of
the compiled Schedule the in-process engine executes that name it, in
schedule order, holding only the secrets that name it as an end, as plain
ints. Its XOR fold and output fold stay separate code from the engine's, so
wire-versus-engine equivalence checks the transport against the engine as a
reference rather than one shared code path against itself; only a node's
output becomes a BitString.

Each node's protocol is a NodeMachine, which does no I/O: it takes one
inbound event at a time (a frame, an end of stream, a read error, its
deadline) and returns the frames to send. `orchestrate` builds every node's
machine once, in one pass over the schedule and the key store, and runs
them all on one asyncio event loop. It binds every listener before any node
dials, then feeds each link's frames to its node as they arrive. An inbound
connection whose first frame cannot be read or authenticated is no peer's,
and is closed unfed; one that ends before its first frame reads as a lost
peer, as that is how a node that aborted before its dial completed tells
its acceptor.

Termination: every layout is a set of A-to-B paths, and two waves of DONE
frames run along them, one per link direction. A node's up peers are its
neighbours one step nearer A. Wave 1: a node that has walked its hops and
heard DONE from every up peer sends DONE to its other peers. Wave 2: a node
that has heard DONE from every peer sends DONE to its up peers and
succeeds. B, with no peer nearer B, succeeds first, once every node has
finished; A succeeds last. Any abort floods ABORT frames instead and stops
the waves, so every node that has not yet succeeded aborts. A RELAY that
fails its checks aborts its receiver before that node sends DONE on, so B
cannot have succeeded and both endpoints abort. This matters on chains,
where the origin endpoint finishes sending long before downstream tampering
is detected. The run has one deadline: every node that has not finished
`timeout` seconds after the run started aborts with TIMEOUT. That deadline,
or a link lost once wave 1 has reached B, can still land after B has
succeeded; the run fails all the same.

Nodes write nothing. The run writes each endpoint's key file only when
every node succeeded and the two endpoint keys agree. The protocol has no
key confirmation, so a relay that substitutes a payload under its genuine
link key passes every node's checks; only the run, which sees both keys,
can tell, and it then fails with exit 2 and writes no key.

Teardown: a finished node half-closes every link, one that attaches later
too, so a peer still running reads every frame it was sent, an ABORT among
them, then the end of the stream. No socket closes while a node runs, as a
close with unread data resets the link and destroys what the peer has not
read. Once every node has finished, the run closes every listener and socket.
"""

from __future__ import annotations

import contextlib
import hmac
import math
import os
import random
import resource
import secrets
from functools import partial
from typing import NamedTuple

from .bits import BitString, KeyStore, SecretId
from .keyplan import Variant, plan_keys
from .protocol import AbsorbRule, Hop, Schedule, compile_schedule, make_store
from .topology import MAX_HOPS, Topology

__all__ = [
    "FRAME_HELLO",
    "FRAME_RELAY",
    "FRAME_DONE",
    "FRAME_ABORT",
    "Frame",
    "FrameError",
    "encode_frame",
    "decode_frame",
    "NodeMachine",
    "WireRun",
    "orchestrate",
]

FRAME_HELLO = 0x01
FRAME_RELAY = 0x02
FRAME_DONE = 0x03
FRAME_ABORT = 0x04
_KNOWN_TYPES = (FRAME_HELLO, FRAME_RELAY, FRAME_DONE, FRAME_ABORT)

TAG_LEN = 32
_MIN_BODY = 3  # type + index
MAX_FRAME = 1 << 22
_MAX_PAYLOAD = MAX_FRAME - _MIN_BODY - TAG_LEN
# descriptors a run leaves free beside its sockets: the standard streams, the
# event loop's selector and wake-up pair, a key file and the interpreter's own
_FD_HEADROOM = 64


class FrameError(Exception):
    """Codec rejection; .code is one of BAD_LENGTH, BAD_TAG, UNKNOWN_TYPE."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code


class Frame(NamedTuple):
    ftype: int
    index: int
    payload: bytes


def _tag(body: bytes, auth_key: bytes) -> bytes:
    return hmac.digest(auth_key, body, "sha256")


def encode_frame(frame: Frame, auth_key: bytes) -> bytes:
    if len(frame.payload) > _MAX_PAYLOAD:
        raise FrameError("BAD_LENGTH", "payload too large")
    body = bytes((frame.ftype,)) + frame.index.to_bytes(2, "big") + frame.payload
    blob = body + _tag(body, auth_key)
    return len(blob).to_bytes(4, "big") + blob


def _check_length(length: int) -> None:
    if length < _MIN_BODY + TAG_LEN or length > MAX_FRAME:
        raise FrameError("BAD_LENGTH", f"length {length}")


def decode_frame(data: bytes, auth_key: bytes) -> Frame:
    """Decode one complete frame. The tag check precedes everything else
    about the content, including the type check."""
    if len(data) < 4:
        raise FrameError("BAD_LENGTH", "truncated length field")
    length = int.from_bytes(data[:4], "big")
    _check_length(length)
    if len(data) != 4 + length:
        raise FrameError("BAD_LENGTH", "frame size disagrees with length field")
    body, tag = data[4:-TAG_LEN], data[-TAG_LEN:]
    if not hmac.compare_digest(tag, _tag(body, auth_key)):
        raise FrameError("BAD_TAG")
    if body[0] not in _KNOWN_TYPES:
        raise FrameError("UNKNOWN_TYPE", f"0x{body[0]:02x}")
    return Frame(body[0], int.from_bytes(body[1:3], "big"), body[3:])


async def _read_frame(reader) -> bytes | None:
    """Read one whole frame from an asyncio.StreamReader, still unverified;
    None on a clean end of stream."""
    try:
        head = await reader.readexactly(4)
    except EOFError as exc:  # asyncio.IncompleteReadError
        if exc.partial:
            raise FrameError("BAD_LENGTH", "stream ended in the length field") from None
        return None
    length = int.from_bytes(head, "big")
    _check_length(length)
    try:
        return head + await reader.readexactly(length)
    except EOFError:
        raise FrameError("BAD_LENGTH", "stream ended mid-frame") from None


def _peer_abort_reason(payload: bytes) -> str:
    """Relabel a neighbour's abort as peer-caused without nesting the
    wrapper when the reason has already travelled several hops."""
    reason = payload.decode("utf-8", "replace")
    return reason if reason.startswith("PEER_ABORT(") else f"PEER_ABORT({reason})"


class _Abort(Exception):
    def __init__(self, reason: str, exit_code: int = 2) -> None:
        super().__init__(reason)
        self.reason = reason
        self.exit_code = exit_code


Sends = list[tuple[str, bytes]]  # (peer label, frame bytes) in send order


class NodeMachine:
    """One node's protocol as a state machine that does no I/O.

    Its caller reports each outbound link it connects (`dialled`) and each
    inbound event (`feed`); both return the frames to send. The first frame
    of an inbound link names its peer (`identify`). `code` is None while the
    node runs, then its exit code: 0 success, 2 protocol abort, 3
    configuration error (a key it needs is missing from values). After a
    success, `output` holds the key of a node that owns a nonce or absorbs
    a path, which is exactly an endpoint. Events that arrive after the node
    finished are ignored. The machine is also the node's result: the run
    reads its verdict off `code`, `transcript` and `output`.
    """

    def __init__(
        self,
        label: str,
        hops: tuple[Hop, ...],  # the schedule's hops that name this node, in order
        absorbs: tuple[AbsorbRule, ...],  # the schedule's absorbs at this node
        up: set[str],  # neighbours one step nearer A
        link_keys: dict[str, bytes],  # peer label -> that link's secret HMAC key
        values: dict[SecretId, int],  # the keys this node holds
        n: int,
        descriptor: str,  # run descriptor announced and expected in HELLO
        tamper_index: int | None = None,
    ) -> None:
        self.label, self.hops, self.absorbs, self.up = label, hops, absorbs, up
        self.link_keys, self.values, self.n = link_keys, values, n
        self.descriptor, self.tamper_index = descriptor, tamper_index
        self.transcript: list[str] = []
        self.code: int | None = None
        self.output: BitString | None = None
        inbound = [h for h in self.hops if h.receiver == label]
        outbound = [h for h in self.hops if h.sender == label]
        self.peers_in = tuple(sorted({h.sender for h in inbound}))
        self.peers_out = tuple(sorted({h.receiver for h in outbound}))
        self.peers = {*self.peers_in, *self.peers_out}
        self.expected_relays = {(h.sender, h.index) for h in inbound}
        self.nonces = tuple(h.origin for h in outbound if h.origin is not None)
        self.links: set[str] = set()  # peers greeted by us or by an authentic HELLO
        self.pc = 0  # index of the next hop in self.hops
        self.received: dict[int, int] = {}
        self.done: set[str] = set()  # peers whose DONE arrived
        self.announced = False  # wave 1 sent
        self._sends: Sends = []

    def log(self, line: str) -> None:
        self.transcript.append(f"{self.label}: {line}")

    # -- events -----------------------------------------------------------

    def identify(self, blob: bytes) -> str:
        """The inbound peer whose link key authenticates blob, the first
        frame of a new inbound link; FrameError(BAD_TAG) if none does."""
        for peer in self.peers_in:
            try:
                decode_frame(blob, self.link_keys[peer])
            except FrameError:
                continue
            return peer
        raise FrameError("BAD_TAG")

    def dialled(self, peer: str) -> Sends:
        """The outbound link to peer connected: greet it."""
        return self._step(self._greet, peer)

    def feed(self, peer: str | None, event: bytes | FrameError | TimeoutError | None) -> Sends:
        """Take one inbound event: a whole frame from peer, None for peer's
        end of stream, the FrameError that stopped a read, or TimeoutError
        for the run's deadline. peer is None for the deadline and for an
        inbound link that ended or reset before its first frame."""
        return self._step(self._dispatch, peer, event)

    def _step(self, handler, *args) -> Sends:
        if self.code is None:
            try:
                handler(*args)
                self._advance()
            except _Abort as exc:
                self.code = exc.exit_code
                self.log(f"ABORT {exc.reason}")
                self._broadcast(self.links, FRAME_ABORT, exc.reason.encode())
        sends, self._sends = self._sends, []
        return sends

    def _greet(self, peer: str) -> None:
        hello = f"{self.descriptor}|{self.label}->{peer}"
        self._send(peer, Frame(FRAME_HELLO, 0, hello.encode()))
        self.log(f"HELLO -> {peer} sent")
        self._link_up(peer)

    def _dispatch(self, peer: str | None, event: bytes | FrameError | TimeoutError | None) -> None:
        if isinstance(event, TimeoutError):
            raise _Abort("TIMEOUT")
        if isinstance(event, FrameError):
            raise _Abort(event.code)
        if event is None:
            # a peer may leave only after its DONE arrived
            if peer not in self.done:
                raise _Abort("PEER_LOST")
            return
        assert peer is not None
        try:
            frame = decode_frame(event, self.link_keys[peer])
        except FrameError as exc:
            raise _Abort(exc.code) from None
        if peer not in self.links:
            self._accept_hello(peer, frame)
        elif frame.ftype == FRAME_ABORT:
            raise _Abort(_peer_abort_reason(frame.payload))
        elif frame.ftype == FRAME_DONE:
            self.done.add(peer)
        elif frame.ftype == FRAME_RELAY:
            self._accept_relay(peer, frame)
        else:
            raise _Abort("POSITION_MISMATCH")

    # -- protocol ---------------------------------------------------------

    def _accept_hello(self, peer: str, frame: Frame) -> None:
        want = f"{self.descriptor}|{peer}->{self.label}"
        if frame.ftype != FRAME_HELLO or frame.payload.decode("utf-8", "replace") != want:
            self.links.add(peer)  # the HELLO authenticated, so the refusal can too
            raise _Abort("POSITION_MISMATCH")
        self.log(f"HELLO <- {peer} ok")
        self._link_up(peer)

    def _link_up(self, peer: str) -> None:
        self.links.add(peer)
        if self.links != self.peers:
            return
        # the secrets this node's sends and absorbs use
        uses = {*self.nonces, *(sid for rule in self.absorbs for sid in rule.strip_ids)}
        uses.update(sid for h in self.hops if h.sender == self.label for sid in h.xor_ids)
        if uses - self.values.keys():
            raise _Abort("MISSING_KEY", exit_code=3)

    def _advance(self) -> None:
        """Walk this node's hops as far as the relays received so far allow.
        Then, once DONE has arrived from every up peer, send DONE on to the
        other peers (wave 1); once it has arrived from every peer, send DONE
        back to the up peers and succeed (wave 2)."""
        if self.links != self.peers:
            return
        while self.pc < len(self.hops):
            hop = self.hops[self.pc]
            if hop.sender == self.label:
                self._relay(hop)
            elif hop.index not in self.received:
                return
            self.pc += 1
        if not self.up <= self.done:
            return
        if not self.announced:
            self.announced = True
            self._broadcast(self.peers - self.up, FRAME_DONE, b"")
        if self.done == self.peers:
            self._broadcast(self.up, FRAME_DONE, b"")
            self.code = 0
            self.output = self._output()

    def _relay(self, hop: Hop) -> None:
        # a path's hops are consecutive, so hop index - 1 carried its payload here
        acc = self.values[hop.origin] if hop.origin is not None else self.received[hop.index - 1]
        for sid in hop.xor_ids:
            acc ^= self.values[sid]
        peer = hop.receiver
        payload = acc.to_bytes((self.n + 7) // 8, "little")
        blob = encode_frame(Frame(FRAME_RELAY, hop.index, payload), self.link_keys[peer])
        if hop.index == self.tamper_index:
            blob = blob[:7] + bytes((blob[7] ^ 0x01,)) + blob[8:]  # test hook
            self.log(f"TAMPER M{hop.index}")
        self._sends.append((peer, blob))
        self.log(f"SEND M{hop.index} -> {peer} ({len(blob)}B)")

    def _accept_relay(self, peer: str, frame: Frame) -> None:
        # the frame must sit at one of this node's scheduled receive
        # positions on exactly this link, and must not be a replay; frames
        # from different paths may arrive in any relative order
        if (peer, frame.index) not in self.expected_relays or frame.index in self.received:
            raise _Abort("POSITION_MISMATCH")
        value = int.from_bytes(frame.payload, "little")
        if len(frame.payload) != (self.n + 7) // 8 or value >> self.n:  # not an n-bit value
            raise _Abort("POSITION_MISMATCH")
        self.received[frame.index] = value
        self.log(f"RECV M{frame.index} <- {peer}")

    def _output(self) -> BitString | None:
        if not self.nonces and not self.absorbs:
            return None
        acc = 0
        for nid in self.nonces:
            acc ^= self.values[nid]
        for rule in self.absorbs:
            share = self.received[rule.hop_index]
            for sid in rule.strip_ids:
                share ^= self.values[sid]
            acc ^= share
        return BitString(acc, self.n)

    def _send(self, peer: str, frame: Frame) -> None:
        self._sends.append((peer, encode_frame(frame, self.link_keys[peer])))

    def _broadcast(self, peers: set[str], ftype: int, payload: bytes) -> None:
        for peer in sorted(peers):
            self._send(peer, Frame(ftype, 0, payload))


async def _run_nodes(
    machines: dict[str, NodeMachine], addrs: dict[str, tuple[str, int]], timeout: float
) -> dict[str, NodeMachine]:
    """Run every node on the running event loop, feed each link's frames to
    its node, and return the machines. Every listener is bound before any
    node dials. If one node's listener cannot bind, no node starts: the
    listeners bound so far are closed and only that node comes back, with
    exit code 3."""
    import asyncio

    loop = asyncio.get_running_loop()
    nodes = machines.values()
    servers: dict[NodeMachine, asyncio.Server] = {}
    routes: dict[NodeMachine, dict] = {m: {} for m in nodes}  # peer label -> StreamWriter
    writers: dict[NodeMachine, list] = {m: [] for m in nodes}  # every link's, identified or not
    tasks: list[asyncio.Task] = []  # one reading task per link end
    running = set(nodes)
    finished = loop.create_future()

    def emit(m: NodeMachine, sends: Sends) -> None:
        for peer, blob in sends:
            routes[m][peer].write(blob)
        # stop listening once every inbound peer has linked, as a stray
        # connection must not end a run that no longer accepts peers
        if m in servers and (m.code is not None or m.links.issuperset(m.peers_in)):
            servers[m].close()
        if m.code is not None and m in running:
            running.remove(m)
            for writer in writers[m]:
                half_close(writer)
            if not running:
                finished.set_result(None)

    def half_close(writer) -> None:
        with contextlib.suppress(OSError):  # the peer already reset the link
            writer.write_eof()

    def attach(m: NodeMachine, writer) -> None:
        writers[m].append(writer)
        if m.code is not None:
            half_close(writer)

    def accept(m: NodeMachine, reader, writer) -> None:
        if finished.done():  # connected after the run ended
            writer.close()
            return
        attach(m, writer)
        tasks.append(loop.create_task(link(m, reader, writer, None)))

    async def dial(m: NodeMachine, peer: str) -> None:
        try:
            reader, writer = await asyncio.open_connection(*addrs[peer])
        except OSError:  # every listener was bound first: the peer is gone
            emit(m, m.feed(peer, None))
            return
        attach(m, writer)
        routes[m][peer] = writer
        emit(m, m.dialled(peer))
        await link(m, reader, writer, peer)

    async def link(m: NodeMachine, reader, writer, peer: str | None) -> None:
        """Feed the link's events to m until its stream ends. An inbound
        link (peer None) is identified by its first frame, and closed unfed
        if that frame cannot be read or authenticated."""
        while True:
            try:
                event = await _read_frame(reader)
                if peer is None and event is not None:
                    peer = m.identify(event)
                    routes[m].setdefault(peer, writer)
            except FrameError as exc:
                if peer is None:
                    writer.close()
                    return
                event = exc
            except OSError:  # a reset reads as the peer leaving
                event = None
            emit(m, m.feed(peer, event))
            if not isinstance(event, bytes):
                return

    for m in nodes:
        if m.peers_in:
            try:
                servers[m] = await asyncio.start_server(partial(accept, m), *addrs[m.label])
            except OSError as exc:
                for server in servers.values():
                    server.close()
                m.code = 3
                m.log(f"CONFIG {exc}")
                return {m.label: m}

    def expire() -> None:  # the run's one deadline; a finished node ignores it
        for m in nodes:
            emit(m, m.feed(None, TimeoutError()))

    timer = loop.call_later(timeout, expire)
    tasks.extend(loop.create_task(dial(m, peer)) for m in nodes for peer in m.peers_out)
    await finished
    # no node reads any more, so no close can destroy a frame still wanted
    timer.cancel()
    for server in servers.values():
        server.close()
    for task in tasks:
        task.cancel()
    await asyncio.wait(tasks)
    for task in tasks:  # a fault in a dial or a link surfaces here
        if not task.cancelled():
            task.result()
    links = [writer for ws in writers.values() for writer in ws]
    for writer in links:
        writer.transport.abort()  # drops unsent bytes, which no node would read
    for writer in links:
        with contextlib.suppress(OSError):  # the peer reset the link first
            await writer.wait_closed()
    return machines


def _machines(
    schedule: Schedule, store: KeyStore, tamper_index: int | None = None
) -> dict[str, NodeMachine]:
    """Every node's NodeMachine, keyed by label: the schedule's hops and
    absorbs that name it, its up peers, a fresh key for each of its links
    and the secrets that name it as an end."""
    topo = schedule.plan.topology
    nodes = topo.nodes
    descriptor = f"{schedule.plan.variant.value}|{topo.describe()}|{store.n}"

    link_keys: dict[str, dict[str, bytes]] = {nd: {} for nd in nodes}
    hops: dict[str, list[Hop]] = {nd: [] for nd in nodes}
    for hop in schedule.hops:
        s, r = hop.sender, hop.receiver
        link_keys[s][r] = link_keys[r][s] = secrets.token_bytes(32)
        hops[s].append(hop)
        hops[r].append(hop)
    absorbs: dict[str, list[AbsorbRule]] = {nd: [] for nd in nodes}
    for rule in schedule.absorbs:
        absorbs[schedule.hops[rule.hop_index].receiver].append(rule)
    up: dict[str, set[str]] = {nd: set() for nd in nodes}
    for u, v in topo.links:
        up[v].add(u)
    values: dict[str, dict[SecretId, int]] = {nd: {} for nd in nodes}
    for sid in store.ids():
        for end in sid.ends:
            values[end][sid] = store[sid].value
    return {
        nd: NodeMachine(
            nd,
            tuple(hops[nd]),
            tuple(absorbs[nd]),
            up[nd],
            link_keys[nd],
            values[nd],
            store.n,
            descriptor,
            tamper_index,
        )
        for nd in nodes
    }


class WireRun(NamedTuple):
    code: int
    results: dict[str, NodeMachine]
    output_a: BitString | None
    output_b: BitString | None
    report: str

    def transcript(self) -> list[str]:
        return [line for label in sorted(self.results) for line in self.results[label].transcript]


def orchestrate(
    topo: Topology,
    variant: Variant,
    n: int,
    seed: int,
    base_port: int,
    out_dir: str,
    tamper_index: int | None = None,
    timeout: float = 10.0,
) -> WireRun:
    """Set up keys exactly as the in-process engine would, hand each node
    its own keys in memory, run all nodes on one event loop, and collect the
    endpoint outputs. Node i listens on base_port + i of 127.0.0.1. The run
    writes only key_A.hex and key_B.hex in out_dir, and only when it
    succeeds.
    """
    # hop indices are u16; refuse an oversized schedule before building it
    hops = sum(len(p) - 1 for p in topo.paths)
    if hops > MAX_HOPS:
        raise ValueError(f"{hops} hops exceed the wire limit of {MAX_HOPS}")
    last_port = base_port + len(topo.nodes) - 1
    if base_port < 1 or last_port > 65535:
        raise ValueError(f"ports {base_port}..{last_port} fall outside 1..65535")
    if not (math.isfinite(timeout) and timeout > 0):
        raise ValueError(f"timeout must be a positive number of seconds, got {timeout}")
    if tamper_index is not None and not 0 <= tamper_index < hops:
        raise ValueError(f"tamper index {tamper_index} names no hop; hops are 0..{hops - 1}")
    if (n + 7) // 8 > _MAX_PAYLOAD:
        raise ValueError(f"n={n} bits exceed the wire's frame limit of {_MAX_PAYLOAD * 8} bits")
    schedule = compile_schedule(plan_keys(topo, variant))
    # every listener and both ends of every link are descriptors of this
    # process; past its open-file limit a bind, dial or accept fails midway
    links = {(hop.sender, hop.receiver) for hop in schedule.hops}
    sockets = len({receiver for _, receiver in links}) + 2 * len(links)
    limit = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    room = max(limit - _FD_HEADROOM, 0)
    if limit != resource.RLIM_INFINITY and sockets > room:
        raise ValueError(
            f"the run needs {sockets} sockets, but the open-file limit of {limit}"
            f" leaves room for {room}"
        )
    store = make_store(schedule, n, random.Random(seed))

    os.makedirs(out_dir, exist_ok=True)
    machines = _machines(schedule, store, tamper_index)
    addrs = {nd: ("127.0.0.1", base_port + i) for i, nd in enumerate(topo.nodes)}

    import asyncio

    results = asyncio.run(_run_nodes(machines, addrs, timeout))
    outputs = {lab: m.output for lab, m in results.items()}  # None unless it succeeded
    out_a, out_b = outputs.get(topo.endpoint_a), outputs.get(topo.endpoint_b)
    codes = [m.code for m in results.values()]
    code = 3 if 3 in codes else (2 if any(c != 0 for c in codes) else 0)
    # a failed node's last transcript line is its ABORT or CONFIG line
    causes = [
        f"{lab}: exit {m.code}, {m.transcript[-1]}"
        for lab, m in sorted(results.items())
        if m.code != 0
    ]
    if code == 0 and (out_a is None or out_a != out_b):
        # every node succeeded, so a relay substituted a validly tagged payload
        code, causes = 2, ["endpoint keys differ"]
    if code != 0:
        return WireRun(code, results, out_a, out_b, f"run failed (exit {code}); " + "; ".join(causes))
    for m in results.values():
        if m.output is not None:
            with open(f"{out_dir}/key_{m.label}.hex", "w", encoding="utf-8") as fh:
                fh.write(m.output.to_hex() + "\n")
            m.log(f"OUTPUT written ({n} bits)")
    return WireRun(0, results, out_a, out_b, f"all {len(results)} nodes completed; endpoint keys match")
