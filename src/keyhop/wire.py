"""Authenticated TCP transport for the relay protocols.

Frame layout, integers big-endian:

    length  u32   byte count of everything after this field
    type    u8    0x01 HELLO, 0x02 RELAY, 0x03 DONE, 0x04 ABORT
    index   u16   hop index (0 for HELLO/DONE/ABORT)
    payload bytes raw bitstring bytes for RELAY, UTF-8 text otherwise
    tag     32B   HMAC-SHA256 over type+index+payload with the link key

A frame's tag is verified before any payload byte is acted on. Each node
runs from its own NodeConfig and key-oracle slice and executes exactly the
hop actions the schedule compiler assigned to it; the in-process engine
executes the same schedule, which keeps wire-versus-engine equivalence a
meaningful check of the transport rather than of one shared code path.

Termination: DONE frames are gossiped (payload = label of the node that
finished), and nobody, endpoints especially, terminates cleanly before
hearing every label. An endpoint therefore never writes a key unless the
whole run succeeded; any abort floods ABORT frames instead and starves the
gossip, so both endpoints abort. This matters on chains, where the origin
endpoint finishes sending long before downstream tampering is detected.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field
from queue import Empty, Queue

from .bits import BitString, KeyStore
from .keyplan import Variant, key_oracle_text, parse_key_oracle, plan_keys
from .protocol import Schedule, compile_schedule, make_store
from .topology import Topology

__all__ = [
    "FRAME_HELLO",
    "FRAME_RELAY",
    "FRAME_DONE",
    "FRAME_ABORT",
    "Frame",
    "FrameError",
    "encode_frame",
    "decode_frame",
    "SendAction",
    "RecvAction",
    "NodeConfig",
    "NodeResult",
    "run_node",
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
_MAX_HOPS = 1 << 16  # hop indices travel as u16


class FrameError(Exception):
    """Codec rejection; .code is one of BAD_LENGTH, BAD_TAG, UNKNOWN_TYPE."""

    def __init__(self, code: str, detail: str = "") -> None:
        super().__init__(f"{code}{': ' + detail if detail else ''}")
        self.code = code


@dataclass(frozen=True)
class Frame:
    ftype: int
    index: int
    payload: bytes


def _tag(body: bytes, auth_key: bytes) -> bytes:
    return hmac.new(auth_key, body, hashlib.sha256).digest()


def encode_frame(frame: Frame, auth_key: bytes) -> bytes:
    if len(frame.payload) > MAX_FRAME - _MIN_BODY - TAG_LEN:
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


@dataclass(frozen=True)
class SendAction:
    hop_index: int
    peer: str
    origin_name: str | None  # start from this nonce, else from prev_hop's payload
    prev_hop: int | None
    xor_names: tuple[str, ...]


@dataclass(frozen=True)
class RecvAction:
    hop_index: int
    peer: str


@dataclass
class NodeConfig:
    """Everything one node needs: addresses, link keys, its key-oracle slice,
    and its slice of the schedule."""

    label: str
    n: int
    listen: tuple[str, int]
    peer_addrs: dict[str, tuple[str, int]]
    peers_in: tuple[str, ...]
    peers_out: tuple[str, ...]
    link_keys: dict[str, bytes]  # peer label -> HMAC key for that link
    oracle_path: str
    actions: tuple[SendAction | RecvAction, ...]
    absorb_rules: tuple[tuple[int, tuple[str, ...]], ...]  # (hop, keys to strip)
    own_nonce_names: tuple[str, ...]
    all_labels: tuple[str, ...]
    descriptor: str  # run descriptor announced and expected in HELLO
    output_path: str | None = None
    tamper_index: int | None = None
    timeout: float = 10.0


@dataclass
class NodeResult:
    label: str
    code: int
    transcript: list[str] = field(default_factory=list)


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


def _read_frame(sock: socket.socket) -> bytes | None:
    """Read one whole frame, still unverified; None on a clean end of stream."""
    blob, want = b"", 4
    while len(blob) < want:
        chunk = sock.recv(want - len(blob))
        if not chunk:
            if blob:
                raise FrameError("BAD_LENGTH", "stream ended mid-frame")
            return None
        blob += chunk
        if len(blob) == 4:
            length = int.from_bytes(blob, "big")
            _check_length(length)
            want += length
    return blob


class _Node:
    def __init__(self, cfg: NodeConfig) -> None:
        self.cfg = cfg
        self.transcript: list[str] = []
        self.sockets: dict[str, socket.socket] = {}
        self.inbox: Queue = Queue()
        self.aborted = False
        self.server: socket.socket | None = None
        self.values: dict[str, BitString] = {}
        self.received: dict[int, BitString] = {}
        self.finished: set[str] = set()  # labels whose DONE gossip arrived
        self.eof_peers: set[str] = set()
        self.expected_relays = {
            (act.peer, act.hop_index) for act in cfg.actions if isinstance(act, RecvAction)
        }

    def log(self, line: str) -> None:
        self.transcript.append(f"{self.cfg.label}: {line}")

    # -- setup ------------------------------------------------------------

    def load_oracle(self) -> None:
        with open(self.cfg.oracle_path, encoding="utf-8") as fh:
            parsed = parse_key_oracle(fh.read(), self.cfg.n, self.cfg.label)
        self.values = {sid.name: value for sid, value in parsed.items()}

    def needed_names(self) -> set[str]:
        names: set[str] = set(self.cfg.own_nonce_names)
        for act in self.cfg.actions:
            if isinstance(act, SendAction):
                names.update(act.xor_names)
                if act.origin_name:
                    names.add(act.origin_name)
        for _, strips in self.cfg.absorb_rules:
            names.update(strips)
        return names

    def serve(self) -> None:
        if not self.cfg.peers_in:
            return
        self.server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.server.bind(self.cfg.listen)
        self.server.listen(len(self.cfg.peers_in))
        self.server.settimeout(self.cfg.timeout)

    def accept_all(self) -> None:
        if self.server is None:
            return
        expected = set(self.cfg.peers_in)
        while expected:
            conn, _ = self.server.accept()
            conn.settimeout(self.cfg.timeout)
            pair = None
            try:
                pair = self._first_frame(conn)
                peer = self.validate_hello(pair, expected)
            except _Abort as exc:
                if pair is not None:
                    # the hello authenticated, so the refusal can too;
                    # without it the peer would sit out its whole timeout
                    frame = Frame(FRAME_ABORT, 0, exc.reason.encode())
                    try:
                        conn.sendall(encode_frame(frame, self.cfg.link_keys[pair[1]]))
                    except OSError:
                        pass
                raise
            expected.discard(peer)
            self.sockets[peer] = conn
            self.log(f"HELLO <- {peer} ok")

    def _first_frame(self, conn: socket.socket) -> tuple[Frame, str] | None:
        # The peer is unknown until its HELLO authenticates under one of our
        # inbound link keys.
        try:
            blob = _read_frame(conn)
        except FrameError:
            raise _Abort("BAD_LENGTH") from None
        if blob is None:
            return None
        for peer in self.cfg.peers_in:
            try:
                return decode_frame(blob, self.cfg.link_keys[peer]), peer
            except FrameError:
                continue
        raise _Abort("BAD_TAG")

    def validate_hello(self, pair: tuple[Frame, str] | None, expected: set[str]) -> str:
        if pair is None:
            raise _Abort("PEER_LOST")
        frame, peer = pair
        if frame.ftype != FRAME_HELLO:
            raise _Abort("POSITION_MISMATCH")
        want = f"{self.cfg.descriptor}|{peer}->{self.cfg.label}"
        if peer not in expected or frame.payload.decode("utf-8", "replace") != want:
            raise _Abort("POSITION_MISMATCH")
        return peer

    def dial_all(self) -> None:
        deadline = time.monotonic() + self.cfg.timeout
        for peer in self.cfg.peers_out:
            addr = self.cfg.peer_addrs[peer]
            while True:
                try:
                    conn = socket.create_connection(addr, timeout=self.cfg.timeout)
                    break
                except OSError:
                    if time.monotonic() > deadline:
                        raise _Abort("TIMEOUT") from None
                    time.sleep(0.01)
            conn.settimeout(self.cfg.timeout)
            hello = f"{self.cfg.descriptor}|{self.cfg.label}->{peer}"
            conn.sendall(
                encode_frame(Frame(FRAME_HELLO, 0, hello.encode()), self.cfg.link_keys[peer])
            )
            self.sockets[peer] = conn
            self.log(f"HELLO -> {peer} sent")

    def start_readers(self) -> None:
        for peer, conn in self.sockets.items():
            threading.Thread(target=self._reader, args=(peer, conn), daemon=True).start()

    def _reader(self, peer: str, conn: socket.socket) -> None:
        key = self.cfg.link_keys[peer]
        while True:
            try:
                blob = _read_frame(conn)
                frame = None if blob is None else decode_frame(blob, key)
            except (FrameError, OSError) as exc:
                self.inbox.put((peer, exc))
                return
            self.inbox.put((peer, frame))
            if frame is None or frame.ftype == FRAME_ABORT:
                return

    # -- protocol ---------------------------------------------------------

    def value_of(self, name: str) -> BitString:
        try:
            return self.values[name]
        except KeyError:
            raise _Abort("MISSING_KEY", exit_code=3) from None

    def do_send(self, act: SendAction) -> None:
        if act.origin_name is not None:
            bits = self.value_of(act.origin_name)
        else:
            assert act.prev_hop is not None
            bits = self.received[act.prev_hop]
        for name in act.xor_names:
            bits = bits ^ self.value_of(name)
        blob = encode_frame(
            Frame(FRAME_RELAY, act.hop_index, bits.to_bytes()), self.cfg.link_keys[act.peer]
        )
        if act.hop_index == self.cfg.tamper_index:
            blob = blob[:7] + bytes((blob[7] ^ 0x01,)) + blob[8:]  # test hook
            self.log(f"TAMPER M{act.hop_index}")
        try:
            self.sockets[act.peer].sendall(blob)
        except OSError:
            raise _Abort("PEER_LOST") from None
        self.log(f"SEND M{act.hop_index} -> {act.peer} ({len(blob)}B)")

    def note_done(self, origin: str) -> None:
        if origin in self.finished or origin not in self.cfg.all_labels:
            return
        self.finished.add(origin)
        self.broadcast(FRAME_DONE, origin.encode())

    def _next_item(self, deadline: float) -> tuple[str, object]:
        try:
            return self.inbox.get(timeout=max(0.0, deadline - time.monotonic()))
        except Empty:
            raise _Abort("TIMEOUT") from None

    def accept_relay(self, peer: str, frame: Frame) -> None:
        # the frame must sit at one of this node's scheduled receive
        # positions on exactly this link, and must not be a replay
        if (peer, frame.index) not in self.expected_relays or frame.index in self.received:
            raise _Abort("POSITION_MISMATCH")
        if len(frame.payload) != (self.cfg.n + 7) // 8:
            raise _Abort("POSITION_MISMATCH")
        self.received[frame.index] = BitString.from_bytes(frame.payload, self.cfg.n)
        self.log(f"RECV M{frame.index} <- {peer}")

    def do_recv(self, act: RecvAction) -> None:
        # frames from different paths may arrive in any relative order, so
        # accept and stash every scheduled one until the awaited slot fills
        deadline = time.monotonic() + self.cfg.timeout
        while act.hop_index not in self.received:
            peer, item = self._next_item(deadline)
            if isinstance(item, FrameError):
                raise _Abort(item.code)
            if item is None or isinstance(item, OSError):
                # nobody may leave while protocol frames are pending
                raise _Abort("PEER_LOST")
            assert isinstance(item, Frame)
            if item.ftype == FRAME_ABORT:
                raise _Abort(_peer_abort_reason(item.payload))
            if item.ftype == FRAME_DONE:
                self.note_done(item.payload.decode("utf-8", "replace"))
                continue
            if item.ftype != FRAME_RELAY:
                raise _Abort("POSITION_MISMATCH")
            self.accept_relay(peer, item)

    def collect_finished(self) -> None:
        """Block until every label's DONE gossip has arrived."""
        deadline = time.monotonic() + self.cfg.timeout
        want = set(self.cfg.all_labels)
        while self.finished != want:
            peer, item = self._next_item(deadline)
            if isinstance(item, FrameError):
                raise _Abort(item.code)
            if item is None or isinstance(item, OSError):
                # a peer that already announced its completion may leave;
                # its gossip was flushed to us before the FIN
                if peer not in self.finished:
                    raise _Abort("PEER_LOST")
                self.eof_peers.add(peer)
                if self.eof_peers == set(self.sockets):
                    raise _Abort("PEER_LOST")
                continue
            assert isinstance(item, Frame)
            if item.ftype == FRAME_ABORT:
                raise _Abort(_peer_abort_reason(item.payload))
            if item.ftype == FRAME_DONE:
                self.note_done(item.payload.decode("utf-8", "replace"))
            else:
                raise _Abort("POSITION_MISMATCH")

    def retire(self) -> None:
        """Half-close every link, then drain until the peers leave too.

        A full close would turn any late gossip write from a slower peer
        into a reset that destroys frames it has not read yet; the FIN from
        a shutdown leaves its inbound side intact.
        """
        for conn in self.sockets.values():
            try:
                conn.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        deadline = time.monotonic() + self.cfg.timeout
        remaining = set(self.sockets) - self.eof_peers
        while remaining:
            try:
                peer, item = self.inbox.get(timeout=max(0.0, deadline - time.monotonic()))
            except Empty:
                return
            terminal = item is None or isinstance(item, (FrameError, OSError))
            if terminal or (isinstance(item, Frame) and item.ftype == FRAME_ABORT):
                remaining.discard(peer)

    def write_output(self) -> None:
        if self.cfg.output_path is None:
            return
        acc = BitString.zeros(self.cfg.n)
        for name in self.cfg.own_nonce_names:
            acc = acc ^ self.value_of(name)
        for hop_index, strips in self.cfg.absorb_rules:
            share = self.received[hop_index]
            for name in strips:
                share = share ^ self.value_of(name)
            acc = acc ^ share
        with open(self.cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(acc.to_hex() + "\n")
        self.log(f"OUTPUT written ({self.cfg.n} bits)")

    # -- teardown ---------------------------------------------------------

    def broadcast(self, ftype: int, payload: bytes) -> None:
        for peer, conn in self.sockets.items():
            try:
                conn.sendall(encode_frame(Frame(ftype, 0, payload), self.cfg.link_keys[peer]))
            except OSError:
                pass

    def abort(self, reason: str) -> None:
        if not self.aborted:
            self.aborted = True
            self.log(f"ABORT {reason}")
            self.broadcast(FRAME_ABORT, reason.encode())

    def close_all(self) -> None:
        for conn in self.sockets.values():
            try:
                conn.close()
            except OSError:
                pass
        if self.server is not None:
            self.server.close()


def run_node(cfg: NodeConfig) -> NodeResult:
    """Run one protocol node to completion over real sockets.

    Exit codes: 0 success, 2 protocol abort, 3 configuration error (bad
    oracle slice, missing key, unusable listen address).
    """
    node = _Node(cfg)
    try:
        try:
            node.load_oracle()
            node.serve()
        except (OSError, ValueError) as exc:
            node.log(f"CONFIG {exc}")
            return NodeResult(cfg.label, 3, node.transcript)
        accept_err: list[_Abort] = []

        def accept_side() -> None:
            try:
                node.accept_all()
            except _Abort as exc:
                accept_err.append(exc)
            except OSError:
                accept_err.append(_Abort("TIMEOUT"))

        th = threading.Thread(target=accept_side, daemon=True)
        th.start()
        node.dial_all()
        th.join(cfg.timeout + 1.0)
        if th.is_alive():
            raise _Abort("TIMEOUT")
        if accept_err:
            raise accept_err[0]
        node.start_readers()
        missing = node.needed_names() - set(node.values)
        if missing:
            raise _Abort("MISSING_KEY", exit_code=3)
        for act in cfg.actions:
            if isinstance(act, SendAction):
                node.do_send(act)
            else:
                node.do_recv(act)
        node.note_done(cfg.label)
        node.collect_finished()
        node.write_output()
        node.retire()
        return NodeResult(cfg.label, 0, node.transcript)
    except _Abort as exc:
        node.abort(exc.reason)
        return NodeResult(cfg.label, exc.exit_code, node.transcript)
    finally:
        node.close_all()


def _node_configs(
    schedule: Schedule,
    n: int,
    base_port: int,
    out_dir: str,
    oracle_paths: dict[str, str],
    tamper_index: int | None,
    timeout: float,
) -> dict[str, NodeConfig]:
    topo = schedule.topology
    labels = [nd.label for nd in topo.nodes]
    addr = {lab: ("127.0.0.1", base_port + i) for i, lab in enumerate(labels)}
    descriptor = f"{schedule.variant.value}|{topo.describe()}|{n}"

    sends: dict[str, dict[int, SendAction]] = {lab: {} for lab in labels}
    recvs: dict[str, dict[int, RecvAction]] = {lab: {} for lab in labels}
    order: dict[str, list[tuple[int, str]]] = {lab: [] for lab in labels}
    peers_out: dict[str, set[str]] = {lab: set() for lab in labels}
    peers_in: dict[str, set[str]] = {lab: set() for lab in labels}
    link_keys: dict[str, dict[str, bytes]] = {lab: {} for lab in labels}
    for hop in schedule.hops:
        s, r = hop.sender.label, hop.receiver.label
        sends[s][hop.index] = SendAction(
            hop.index,
            r,
            hop.origin.name if hop.origin else None,
            None if hop.origin else hop.index - 1,
            tuple(sid.name for sid in hop.xor_ids),
        )
        recvs[r][hop.index] = RecvAction(hop.index, s)
        order[s].append((hop.index, "send"))
        order[r].append((hop.index, "recv"))
        peers_out[s].add(r)
        peers_in[r].add(s)
        key = hashlib.sha256(f"link|{descriptor}|{min(s, r)}|{max(s, r)}".encode()).digest()
        link_keys[s][r] = key
        link_keys[r][s] = key

    cfgs: dict[str, NodeConfig] = {}
    for lab in labels:
        actions = tuple(
            sends[lab][idx] if kind == "send" else recvs[lab][idx]
            for idx, kind in sorted(order[lab])
        )
        absorb = tuple(
            (rule.hop_index, tuple(sid.name for sid in rule.strip_ids))
            for rule in schedule.absorbs_for(lab)
        )
        cfgs[lab] = NodeConfig(
            label=lab,
            n=n,
            listen=addr[lab],
            peer_addrs={p: addr[p] for p in peers_out[lab] | peers_in[lab]},
            peers_in=tuple(sorted(peers_in[lab])),
            peers_out=tuple(sorted(peers_out[lab])),
            link_keys=link_keys[lab],
            oracle_path=oracle_paths[lab],
            actions=actions,
            absorb_rules=absorb,
            own_nonce_names=tuple(nid.name for nid in schedule.nonces_of(lab)),
            all_labels=tuple(labels),
            descriptor=descriptor,
            output_path=f"{out_dir}/key_{lab}.hex" if topo.node(lab).is_endpoint else None,
            tamper_index=tamper_index,
            timeout=timeout,
        )
    return cfgs


@dataclass
class WireRun:
    code: int
    results: dict[str, NodeResult]
    output_a: BitString | None
    output_b: BitString | None
    report: str

    def transcript(self) -> list[str]:
        lines: list[str] = []
        for label in sorted(self.results):
            lines.extend(self.results[label].transcript)
        return lines


def orchestrate(
    topo: Topology,
    variant: Variant,
    n: int,
    seed: int,
    base_port: int,
    out_dir: str,
    tamper_index: int | None = None,
    timeout: float = 10.0,
    wrong_variant_node: str | None = None,
    drop_key: tuple[str, str] | None = None,
) -> WireRun:
    """Set up keys exactly as the in-process engine would, hand each node its
    slice, run all nodes concurrently, and collect the endpoint outputs.

    wrong_variant_node and drop_key are fault-injection hooks for tests: the
    first gives one node a mismatched run descriptor, the second deletes one
    (node label, secret name) entry from that node's key-oracle slice.
    """
    # hop indices are u16; check before planning, which costs O(hops x links)
    hops = sum(len(p) - 1 for p in topo.paths)
    if hops > _MAX_HOPS:
        raise ValueError(f"{hops} hops exceed the wire limit of {_MAX_HOPS}")
    plan = plan_keys(topo, variant)
    schedule = compile_schedule(plan)
    store = make_store(schedule, n, random.Random(seed))

    os.makedirs(out_dir, exist_ok=True)
    oracle_paths: dict[str, str] = {}
    for nd in topo.nodes:
        held = KeyStore(n)
        for sid in store.ids():
            if sid.involves(nd.label) and (nd.label, sid.name) != drop_key:
                held.add(sid, store[sid])
        path = f"{out_dir}/oracle_{nd.label}.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(key_oracle_text(held))
        oracle_paths[nd.label] = path

    cfgs = _node_configs(schedule, n, base_port, out_dir, oracle_paths, tamper_index, timeout)
    if wrong_variant_node is not None:
        cfgs[wrong_variant_node].descriptor = "mismatched|" + cfgs[wrong_variant_node].descriptor

    results: dict[str, NodeResult] = {}
    lock = threading.Lock()

    def runner(cfg: NodeConfig) -> None:
        res = run_node(cfg)
        with lock:
            results[cfg.label] = res

    threads = [threading.Thread(target=runner, args=(cfg,)) for cfg in cfgs.values()]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout + 5.0)

    def read_output(label: str) -> BitString | None:
        path = cfgs[label].output_path
        assert path is not None
        try:
            with open(path, encoding="utf-8") as fh:
                return BitString.from_hex(fh.read().strip(), n)
        except (OSError, ValueError):
            return None

    a_label, b_label = topo.endpoint_a.label, topo.endpoint_b.label
    ok_a = a_label in results and results[a_label].code == 0
    ok_b = b_label in results and results[b_label].code == 0
    out_a = read_output(a_label) if ok_a else None
    out_b = read_output(b_label) if ok_b else None

    codes = [results[lab].code if lab in results else 2 for lab in cfgs]
    code = 3 if 3 in codes else (2 if any(c != 0 for c in codes) else 0)
    if code == 0 and (out_a is None or out_b is None or out_a != out_b):
        code = 2
    if code == 0:
        report = f"all {len(cfgs)} nodes completed; endpoint keys match"
    else:
        causes = []
        for lab in sorted(cfgs):
            res = results.get(lab)
            if res is None:
                causes.append(f"{lab}: did not finish")
            elif res.code != 0:
                last = res.transcript[-1] if res.transcript else "no transcript"
                causes.append(f"{lab}: exit {res.code}, {last}")
        report = f"run failed (exit {code}); " + "; ".join(causes)
    return WireRun(code, results, out_a, out_b, report)
