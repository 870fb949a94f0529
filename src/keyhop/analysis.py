"""Coalition secrecy analysis.

A coalition is a frozenset of corrupted intermediaries, printed by describe.
It sees every transmitted payload plus the keys its members hold (its
held_secrets). An expression is the frozenset of the secrets it XORs; over
GF(2) a target expression is recoverable exactly when it lies in the span of
those observations. Each message's expression and each secret are facts of
the compiled Schedule (its exprs and secret_ids), so every verdict is read
off a schedule: no key is drawn and no hop runs. Only recover_bits reads a
run, to XOR a recipe over its bits. Three routes answer the question; tests
hold them against each other:

- explain (is_recoverable): one coalition's view, every message plus its
  held_secrets, reduced by the elimination core _eliminate with combination
  tracking, so a BROKEN verdict carries its recovery recipe. It is the
  reference for the other two.
- decide (min_breaking_coalitions, coalition_rows, collusion_grid): a graph
  search on the compiled schedule. A path's key graph has one edge per key
  its hops fold. Its messages span the nonce plus the origin's keys, and
  each other sender's keys. With the held keys dropped, the nonce lies in
  that span iff no remaining key leaves some node set that holds the origin
  but not the absorber (the last receiver, which never sends): iff the
  coalition separates the two. Paths share no keys, so the minimal breaking
  coalitions (of the final key or one nonce) are the unions of one minimal
  separator per path. A grid cell's M paths are copies of one path of its
  reach, so the grid searches one path per distinct reach and gives each
  cell M times that path's smallest separator.
  coalition_rows reads its 2^m rows off two tables indexed by coalition
  bitmask in label order: the names, built by doubling, and the verdicts,
  the minimal sets closed upward under superset by shifts of one int.
- brute_force_secrecy, the independent check: it conditions on the held
  secrets (XORs them out of every message and the target, and drops them),
  splits the rest into independent blocks (union-find over the secrets of
  each message), sweeps the full truth table of each block that holds a
  target term, one bit per secret, and inspects the conditional
  distribution of that block's part of the target given the block's view.
  Each entry packs the target bit under the view bits; a table is built by
  doubling (each secret's column is XORed onto the half of the table where
  it is set) and sorted in place, so equal views sit together. It uses no
  rank, elimination or graph search, and reads its blocks off the view
  alone, not the layout.

active_attack_leakage is the active sweep: the member that sends one hop
replaces the payload it received with a function of it before folding its
keys. The coalition sees every message, as substituted, and its held
secrets. Sweeping one bit per secret, exact at n = 1, it returns the mutual
information between that view and the final key.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from itertools import combinations, product
from math import log2
from typing import Callable, Iterable, NamedTuple, Sequence

from .bits import BitString, SecretId
from .keyplan import Variant, plan_keys
from .protocol import ProtocolTrace, Schedule, compile_schedule
from .topology import ROW_CAP, NodeId, build_chain, build_multipath

__all__ = [
    "Status",
    "SecrecyVerdict",
    "describe",
    "final_key_expr",
    "held_secrets",
    "is_recoverable",
    "recovery_verdicts",
    "recover_bits",
    "min_breaking_coalitions",
    "coalition_rows",
    "coalition_audit",
    "check_enumerable",
    "coalition_report_csv",
    "brute_force_secrecy",
    "ACTIVE_STRATEGIES",
    "active_attack_leakage",
    "max_active_attack_leakage",
    "collusion_grid",
    "grid_csv",
]

ENUMERATION_CAP = ROW_CAP.bit_length() - 1  # coalitions.csv lists 2^m rows, at most ROW_CAP
GRID_CAP = 100  # intermediaries per grid cell; reach 99's one-path search takes about 8 ms


class Status(Enum):
    SECURE = "SECURE"
    BROKEN = "BROKEN"


def describe(coalition: Iterable[str]) -> str:
    """A coalition's printed name, as in coalitions.csv and on stdout."""
    return "+".join(sorted(coalition)) or "(empty)"


class SecrecyVerdict(NamedTuple):
    status: Status
    recovery: tuple[int | SecretId, ...] | None = None  # message indices, then secrets

    @property
    def recovery_labels(self) -> tuple[str, ...] | None:
        if self.recovery is None:
            return None
        return tuple(f"M{item}" if isinstance(item, int) else item for item in self.recovery)


def final_key_expr(schedule: Schedule) -> frozenset[SecretId]:
    """The key both endpoints output: the XOR of all path nonces."""
    return frozenset(_schedule(schedule).nonce_ids)


def held_secrets(schedule: Schedule, coalition: frozenset[NodeId]) -> tuple[SecretId, ...]:
    """The secrets the coalition's members hold (keys they are an end of,
    nonces they own), sorted by name. A member that is an endpoint or not in
    the layout is refused."""
    topo = schedule.plan.topology
    inter = set(topo.intermediaries)
    for nd in sorted(coalition):  # the first bad member in label order is named
        if nd in (topo.endpoint_a, topo.endpoint_b):
            raise ValueError(f"{nd} is an endpoint, not a corruptible intermediary")
        if nd not in inter:
            raise ValueError(f"coalition member {nd} is not in this topology")
    return tuple(sid for sid in sorted(schedule.secret_ids) if not coalition.isdisjoint(sid.ends))


def _eliminate(rows: list[int]) -> dict[int, tuple[int, int]]:
    """Row-reduce over GF(2), keeping for each pivot column the reduced row
    and the exact combination of input rows that produced it, as a bitmask
    over row positions."""
    pivots: dict[int, tuple[int, int]] = {}
    for pos, mask in enumerate(rows):
        combo = 1 << pos
        while mask:
            col = (mask & -mask).bit_length() - 1
            if col in pivots:
                pmask, pcombo = pivots[col]
                mask ^= pmask
                combo ^= pcombo
            else:
                pivots[col] = (mask, combo)
                break
    return pivots


def _reduce(pivots: dict[int, tuple[int, int]], residual: int) -> int | None:
    """The combination of input rows whose XOR is residual, or None when
    residual lies outside their span."""
    combo = 0
    while residual:
        col = (residual & -residual).bit_length() - 1
        if col not in pivots:
            return None
        pmask, pcombo = pivots[col]
        residual ^= pmask
        combo ^= pcombo
    return combo


def _mask(order: dict[SecretId, int], terms: Iterable[SecretId]) -> int:
    """The column bitmask of terms."""
    mask = 0
    for sid in terms:
        mask |= 1 << order[sid]
    return mask


def is_recoverable(
    schedule: Schedule, coalition: frozenset[NodeId], target: frozenset[SecretId] | None = None
) -> SecrecyVerdict:
    """Decide whether the coalition's view, every message's expression plus
    its held secrets, linearly determines the target (left out only in
    is_recoverable(view_of(trace, coalition), target); see view_of).

    BROKEN comes with the deterministic recovery set: the target's unique
    expansion over the greedy basis of the rows, messages first (in
    transmission order), then held secrets (by name). That basis is the rows
    independent of every row before them. _eliminate makes a row a pivot
    exactly when it is independent, and each pivot's combination involves
    only earlier pivots, so the set does not depend on the column order.
    """
    # type, not isinstance: a ProtocolTrace is a tuple too, and is no view
    if type(schedule) is tuple:  # view_of's (schedule, held)
        (schedule, held), target = schedule, coalition
    elif target is None:
        raise TypeError("is_recoverable() missing required argument: 'target'")
    else:
        held = held_secrets(schedule, coalition)
    return _verdicts(schedule, held, (target,))[0]


def recovery_verdicts(
    schedule: Schedule, coalition: frozenset[NodeId], targets: Sequence[frozenset[SecretId]]
) -> list[SecrecyVerdict]:
    """is_recoverable's verdict on each target, from one elimination of the
    coalition's view."""
    return _verdicts(schedule, held_secrets(schedule, coalition), targets)


def _verdicts(
    schedule: Schedule, held: tuple[SecretId, ...], targets: Sequence[frozenset[SecretId]]
) -> list[SecrecyVerdict]:
    observed = schedule.exprs
    atoms = frozenset().union(held, *observed, *targets)
    order = {sid: i for i, sid in enumerate(atoms)}
    # rows sit in recipe order, so a recovery set is its combination's set
    # bits read from the lowest up
    rows = [_mask(order, expr) for expr in observed]
    rows += [1 << order[sid] for sid in held]
    pivots = _eliminate(rows)
    items = (*range(len(observed)), *held)
    verdicts = []
    for target in targets:
        combo = _reduce(pivots, _mask(order, target))
        if combo is None:
            verdicts.append(SecrecyVerdict(Status.SECURE))
        else:
            recovery = tuple(item for pos, item in enumerate(items) if combo >> pos & 1)
            verdicts.append(SecrecyVerdict(Status.BROKEN, recovery))
    return verdicts


def recover_bits(trace: ProtocolTrace, verdict: SecrecyVerdict) -> BitString:
    """XOR the verdict's recovery set over the concrete run; equals the
    target's value whenever the verdict is BROKEN."""
    if verdict.recovery is None:
        raise ValueError("nothing to recover from a SECURE verdict")
    acc = 0
    for item in verdict.recovery:
        acc ^= (trace.messages[item].bits if isinstance(item, int) else trace.store[item]).value
    return BitString(acc, trace.store.n)


def check_enumerable(count: int) -> None:
    """Refuse a layout of count intermediaries, whose coalitions are too
    many to list one by one."""
    if count > ENUMERATION_CAP:
        raise ValueError(
            f"{count} intermediaries exceeds the exhaustive enumeration cap"
            f" of {ENUMERATION_CAP}"
        )


def _key_graphs(
    schedule: Schedule, target: frozenset[SecretId]
) -> list[tuple[dict, NodeId, NodeId]]:
    """Per path whose nonce the target holds: its key graph (node ->
    neighbours, one edge per key its hops fold), its origin (the first hop's
    sender) and its absorber (the last hop's receiver). The target must be
    the final key or one nonce."""
    nonce_ids = schedule.nonce_ids
    nonces = [nid for nid in nonce_ids if nid in target]
    if len(target) != len(nonces) or len(nonces) not in {1, len(nonce_ids)}:
        text = "+".join(sorted(target)) or "0"
        raise ValueError(f"target {text} is neither the final key nor one nonce")
    graphs, start = [], 0
    for rule in schedule.absorbs:  # a path's hops end at its absorb's hop
        path, start = schedule.hops[start : rule.hop_index + 1], rule.hop_index + 1
        if path[0].origin in target:
            graph: dict[NodeId, set[NodeId]] = defaultdict(set)
            for u, v in (sid.ends for hop in path for sid in hop.xor_ids):
                graph[u].add(v)
                graph[v].add(u)
            graphs.append((graph, path[0].sender, path[-1].receiver))
    return graphs


def _separators(graph: dict, origin: NodeId, absorber: NodeId) -> list[frozenset[NodeId]]:
    """Every minimal origin-absorber vertex separator of the graph, by the
    closure of Kloks and Kratsch (SIAM J. Comput. 1998) in the form of Berry,
    Bordat and Cogis (IJFCS 2000): start from the separator closest to the
    origin, then from each separator S and each x in S not adjacent to the
    absorber, move x to the origin's side. The cost follows the number of
    separators. The ends are never adjacent (compile_schedule refuses a key
    between the endpoints); disconnected ends have one separator, the empty
    set."""

    def border(removed: set[NodeId]) -> frozenset[NodeId]:
        """The neighbourhood of the absorber's component in G - removed."""
        seen, stack = {absorber}, [absorber]
        while stack:
            for w in graph[stack.pop()] - removed - seen:
                seen.add(w)
                stack.append(w)
        return frozenset().union(*(graph[v] & removed for v in seen))

    found = [border(graph[origin] | {origin})]
    known = set(found)
    for sep in found:  # grows as the closure finds new separators
        for x in sep - graph[absorber]:
            new = border(sep | graph[x] | {x})
            if new not in known:
                known.add(new)
                found.append(new)
    return found


def _minimal_masks(schedule: Schedule, target: frozenset[SecretId]) -> list[int]:
    """The minimal breaking coalitions as bitmasks over the intermediaries,
    smallest first, then by member positions: the unions of one minimal
    separator per key graph the target needs cut."""
    inter = schedule.plan.topology.intermediaries
    bit = {nd: 1 << i for i, nd in enumerate(inter)}
    graphs = _key_graphs(schedule, target)
    per_path = [[sum(bit[v] for v in sep) for sep in _separators(*g)] for g in graphs]
    masks = [sum(combo) for combo in product(*per_path)]  # paths share no intermediary
    # among sets of one size, the one holding the lowest differing position
    # comes first: the one whose mask, read with bit 0 highest, is larger
    width = len(inter)
    return sorted(masks, key=lambda t: (t.bit_count(), -int(f"{t:0{width}b}"[::-1], 2)))


def _members(items: tuple, coal: int) -> list:
    """The items at the coalition bitmask's set bits, in order."""
    out = []
    while coal:
        low = coal & -coal
        out.append(items[low.bit_length() - 1])
        coal ^= low
    return out


def _coalitions(schedule: Schedule, minimal: list[int]) -> list[frozenset[NodeId]]:
    """The bitmasks as coalitions of the intermediaries."""
    inter = schedule.plan.topology.intermediaries
    return [frozenset(_members(inter, coal)) for coal in minimal]


def min_breaking_coalitions(
    schedule: Schedule, target: frozenset[SecretId] | None = None
) -> list[frozenset[NodeId]]:
    """All minimal intermediary coalitions that recover the target
    (final key by default), smallest first, then by member position."""
    if isinstance(schedule, ProtocolTrace):  # perfbench/ only, see the end of this module
        return list(map(Coalition, min_breaking_coalitions(schedule.schedule, target)))
    target = target if target is not None else final_key_expr(schedule)
    return _coalitions(schedule, _minimal_masks(schedule, target))


def coalition_rows(
    schedule: Schedule, target: frozenset[SecretId] | None = None
) -> list[tuple[str, str, str, str]]:
    """One (variant, topology, coalition, status) row per intermediary
    coalition, smallest first, then by member positions; a row is BROKEN iff
    it contains a minimal breaking one."""
    return coalition_audit(_schedule(schedule), target)[1]


def coalition_audit(
    schedule: Schedule, target: frozenset[SecretId] | None = None
) -> tuple[list[frozenset[NodeId]], list[tuple[str, str, str, str]]]:
    """min_breaking_coalitions and coalition_rows from one search."""
    check_enumerable(len(schedule.plan.topology.intermediaries))  # before any 2^m table
    target = target if target is not None else final_key_expr(schedule)
    minimal = _minimal_masks(schedule, target)
    return _coalitions(schedule, minimal), _rows(schedule, minimal)


def _rows(schedule: Schedule, minimal: list[int]) -> list[tuple[str, str, str, str]]:
    """coalition_rows' rows, given the minimal breaking coalitions as
    bitmasks over the intermediaries.

    Both tables are indexed by coalition bitmask over the intermediaries in
    label order, the order a name joins them in. The names holding the r-th
    label are the first 2^r names with it appended. The verdict bytes are 1
    at each minimal set, closed upward one bit at a time: the entries with
    bit r clear, moved up by 2^r entries, are ORed in."""
    inter = schedule.plan.topology.intermediaries
    m = len(inter)
    bit = [0] * m  # intermediary position -> its bit in label order
    names = [""]
    for r, i in enumerate(sorted(range(m), key=inter.__getitem__)):
        bit[i] = 1 << r
        plus = "+" + inter[i]
        names += [n + plus if n else inter[i] for n in names]
    names[0] = describe(())

    table = bytearray(1 << m)
    for coal in minimal:
        table[sum(_members(bit, coal))] = 1
    acc = int.from_bytes(table, "little")
    for r in range(m):
        low = int.from_bytes((b"\x01" * (1 << r) + bytes(1 << r)) * (1 << (m - r - 1)), "little")
        acc |= (acc & low) << (8 << r)
    broken = acc.to_bytes(1 << m, "little")

    head = (schedule.plan.variant.value, schedule.plan.topology.describe())
    status = (Status.SECURE.value, Status.BROKEN.value)
    return [
        (*head, names[x], status[broken[x]])
        for size in range(m + 1)
        for x in map(sum, combinations(bit, size))
    ]


def coalition_report_csv(rows: list[tuple[str, str, str, str]]) -> str:
    """The CSV text of the rows. Lines are joined 4096 rows at a time, so
    2^20 rows never hold a million line strings beside the text."""
    out = ["variant,topology,coalition,status"]
    out += ("\n".join(map(",".join, rows[i : i + 4096])) for i in range(0, len(rows), 4096))
    out.append("")  # the final newline, without copying the text again
    return "\n".join(out)


def brute_force_secrecy(
    schedule: Schedule, coalition: frozenset[NodeId], target: frozenset[SecretId]
) -> Status:
    """Independent oracle: sweep every assignment of every secret bit the
    coalition does not hold (one bit each), group assignments by the
    coalition's view, and check the target's conditional distribution.
    BROKEN iff the view always determines it; SECURE iff it stays perfectly
    balanced in every group. Linearity guarantees one of the two holds.

    The held secrets are part of the view, so the sweep conditions on them:
    XORing each out of every message and out of the target maps the view
    groups one to one (the target stays fixed or balanced), after which
    they are independent of the rest and leave the table. What remains
    splits into independent blocks (_view_blocks), so the target's other
    terms are the XOR of one part per block, each depending only on its
    block's secrets and view. A block with no target term has its part
    fixed at 0. Every other block is swept on its own: BROKEN iff every
    swept part is fixed by its block's view (so also when the coalition
    holds every target term), SECURE iff some part is balanced. The limits
    of 24 secrets and 63 view components apply per block, and are checked
    for every block before any is swept.

    Assignment a sets a block's secret i (in name order) to bit i of a. Entry
    a of the block's packed table holds its target bit in bit 0 and its view
    component k in bit k+1. The table is filled by doubling: secret i has a
    column (its target bit, plus bit k+1 when it appears in component k), and
    entries 2^i..2^(i+1)-1 are entries 0..2^i-1 XORed with it. Each entry
    costs one XOR; one in-place sort then brings equal views together, target
    0 before target 1. No rank or elimination is involved.
    """
    import numpy as np  # the oracle is the package's only numpy user

    schedule = _schedule(schedule)
    blocks = _view_blocks(schedule, held_secrets(schedule, coalition))
    for secrets, components in blocks:
        if len(secrets) > 24:
            raise ValueError(
                f"too many secrets for a full truth-table sweep: a view block"
                f" holds {len(secrets)}, at most 24"
            )
        if len(components) > 63:  # 63 view bits and the target bit fill a uint64
            raise ValueError("view too wide to pack for the truth-table sweep")

    verdicts = []
    for secrets, components in blocks:
        # no block holds a held secret, so the target's held terms drop out
        if target.isdisjoint(secrets):
            continue
        # 31 components and the target bit fit 32 bits, which halves the table
        dtype = np.uint32 if len(components) < 32 else np.uint64
        table = np.zeros(1 << len(secrets), dtype=dtype)
        for i, sid in enumerate(secrets):
            column = sum(2 << k for k, comp in enumerate(components) if sid in comp)
            column |= sid in target
            low, high = 1 << i, 2 << i
            np.bitwise_xor(table[:low], dtype(column), out=table[low:high])
        table.sort()
        verdicts.append(_grouped_verdict(table))
    return Status.SECURE if Status.SECURE in verdicts else Status.BROKEN


def _view_blocks(
    schedule: Schedule, held: Iterable[SecretId]
) -> list[tuple[list[SecretId], list[frozenset[SecretId]]]]:
    """The view's independent blocks once the held secrets are XORed out:
    (secrets not held, in name order; view components), blocks ordered by
    their first secret. A component is one message's terms less the held
    secrets; an empty one is dropped. Union-find joins the secrets
    of each component, so no component spans two blocks and the blocks'
    secrets, being uniform and independent, give independent block views.
    A secret in no component is a block of its own."""
    held = set(held)
    ids = sorted(sid for sid in schedule.secret_ids if sid not in held)
    index = {sid: i for i, sid in enumerate(ids)}
    parent = list(range(len(ids)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    components = [comp for comp in (expr - held for expr in schedule.exprs) if comp]
    for comp in components:
        pos = [index[sid] for sid in comp]
        for i in pos[1:]:
            parent[root(i)] = root(pos[0])
    blocks: dict[int, tuple[list[SecretId], list[frozenset[SecretId]]]] = {}
    for i, sid in enumerate(ids):
        blocks.setdefault(root(i), ([], []))[0].append(sid)
    for comp in components:
        blocks[root(index[next(iter(comp))])][1].append(comp)
    return list(blocks.values())


def _grouped_verdict(table) -> Status:
    """The verdict from a sorted packed table (target bit in bit 0, view
    above it), where equal views sit together, target 0 first. BROKEN iff no
    two neighbours differ in the target bit alone (every view fixes the
    target); SECURE iff the target-0 entries, with bit 0 set, equal the
    target-1 entries (every view holds as many of each)."""
    import numpy as np

    one = table.dtype.type(1)
    if not np.any((table[1:] ^ table[:-1]) == one):
        return Status.BROKEN
    ones = (table & one).astype(bool)
    if np.array_equal(table[~ones] | one, table[ones]):
        return Status.SECURE
    raise AssertionError("conditional distribution is neither fixed nor balanced")


ACTIVE_STRATEGIES: dict[str, Callable[[int], int]] = {
    "identity": lambda x: x,
    "negate": lambda x: x ^ 1,
    "const0": lambda x: 0,
    "const1": lambda x: 1,
}


def active_attack_leakage(
    schedule: Schedule, coalition: frozenset[NodeId], hop_index: int, strategy: Callable[[int], int]
) -> float:
    """The active sweep's leakage, in bits, when the member sending hop
    hop_index substitutes strategy(payload) & 1 for the payload it received."""
    held = held_secrets(schedule, coalition)  # refuses an endpoint member
    if not 0 <= hop_index < len(schedule.hops) or schedule.hops[hop_index].sender not in coalition:
        raise ValueError(f"no member of {describe(coalition)} sends hop {hop_index}")
    order = {sid: i for i, sid in enumerate(schedule.secret_ids)}
    steps = [(order.get(hop.origin), _mask(order, hop.xor_ids)) for hop in schedule.hops]
    width, held_mask, key_mask = len(order), _mask(order, held), _mask(order, schedule.nonce_ids)
    counts: dict[int, list[int]] = defaultdict(lambda: [0, 0])  # view -> assignments per key bit
    total = 1 << width
    for a in range(total):  # bit i of a is the value of secret i
        view = acc = 0
        for i, (origin, fold) in enumerate(steps):
            acc = acc if origin is None else a >> origin & 1  # a path starts from its nonce
            acc = strategy(acc) & 1 if i == hop_index else acc
            acc ^= (a & fold).bit_count() & 1
            view = view << 1 | acc
        counts[view << width | a & held_mask][(a & key_mask).bit_count() & 1] += 1
    # the final key is a uniform bit, as each nonce is: p(key) = 1/2
    return sum(c / total * log2(2 * c / sum(row)) for row in counts.values() for c in row if c)


def max_active_attack_leakage() -> tuple[float, dict[str, float]]:
    """Leakage of every deterministic single-bit substitution strategy, by
    chain2's first relay N1 at the hop it sends (hop 1)."""
    schedule = compile_schedule(plan_keys(build_chain(2), Variant.CHAIN2))
    n1 = frozenset({schedule.plan.topology.node("N1")})
    per = {name: active_attack_leakage(schedule, n1, 1, f) for name, f in ACTIVE_STRATEGIES.items()}
    return max(per.values()), per


def collusion_grid(
    path_counts: Sequence[int], reaches: Sequence[int]
) -> list[tuple[int, int, int, int]]:
    """Minimum breaking-coalition size over (number of paths, reach) cells.

    Each cell uses M paths of m = t+1 intermediaries, the smallest chain
    where reach t keeps the endpoints out of direct range. The paths share
    no intermediary and no key, so each is cut on its own, and a cell needs
    M times what one path of its reach needs. That is computed by search,
    not by formula, on one compiled one-path schedule per distinct reach:
    no key is drawn and nothing runs. A grid of more than ROW_CAP cells, or
    with a cell of more than GRID_CAP intermediaries, is refused before any
    cell is checked; then the first cell in row order that build_multipath
    refuses is refused with its message, before any search. Returns (M, t,
    m per path, minimum colluding nodes) rows.
    """
    count = len(path_counts) * len(reaches)
    if count > ROW_CAP:
        raise ValueError(f"the grid has {count} cells; collusion_grid.csv holds at most {ROW_CAP}")
    cells = [(n_paths, t) for n_paths in path_counts for t in reaches]
    for n_paths, t in cells:
        if n_paths * (t + 1) > GRID_CAP:
            raise ValueError(
                f"grid cell paths={n_paths}, reach={t} has {n_paths * (t + 1)}"
                f" intermediaries; the grid allows at most {GRID_CAP}"
            )
    for n_paths, t in cells:
        if n_paths < 1 or t < 1:
            build_multipath([t + 1] * n_paths, t=t)  # raises the cell's refusal
    fewest = {}
    for _, t in cells:
        if t not in fewest:
            topo = build_multipath([t + 1], t=t)
            fewest[t] = _fewest_breaking(compile_schedule(plan_keys(topo, Variant.MULTIPATH)))
    return [(n_paths, t, t + 1, n_paths * fewest[t]) for n_paths, t in cells]


def _fewest_breaking(schedule: Schedule) -> int:
    """The fewest colluders that recover the final key: paths share no
    intermediary, so each path is cut at its smallest minimal separator."""
    final = frozenset(schedule.nonce_ids)
    return sum(min(map(len, _separators(*g))) for g in _key_graphs(schedule, final))


def grid_csv(rows: list[tuple[int, int, int, int]]) -> str:
    out = ["paths,reach,m_per_path,min_colluding_nodes"]
    out += [f"{m},{t},{mp},{c}" for m, t, mp, c in rows]
    return "\n".join(out) + "\n"


# Kept only for perfbench/ until ROADMAP item 20 ports its call sites: it
# builds Coalitions, reads their labels and describe(), passes traces where a
# Schedule is taken and calls is_recoverable(view_of(trace, coal), target).


def _schedule(source: Schedule | ProtocolTrace) -> Schedule:
    return getattr(source, "schedule", source)


class Coalition(frozenset):
    def __new__(cls, members: Iterable[NodeId] = ()) -> Coalition:
        return super().__new__(cls, members)  # frozenset.__new__ has no signature to inspect

    labels = property(sorted)
    describe = describe


def view_of(trace: ProtocolTrace, coalition: frozenset[NodeId]) -> tuple:
    return trace.schedule, held_secrets(trace.schedule, coalition)
