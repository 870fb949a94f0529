"""Bitstrings, secrets, and symbolic XOR expressions.

Every message the relay protocols exchange is an XOR of secret bitstrings.
This module keeps both layers in sync: concrete bits (KeyStore) and their
algebraic shadow (SymbolicExpr over SecretId terms), related by
KeyStore.evaluate. A secret is its name, as the paper writes it: a str
that hashes, compares and sorts as that name. Every fold is done on plain
ints; a BitString is the type a value leaves a fold in, as a message, an
output or a store lookup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .topology import NodeId

__all__ = [
    "SecretId",
    "tf_key",
    "p2p_key",
    "nonce",
    "BitString",
    "SymbolicExpr",
    "KeyStore",
    "check_length",
]


# Every SecretId built in this process, keyed by its name: one entry per
# distinct key and nonce built, never evicted.
_SECRET_IDS: dict[str, SecretId] = {}


class SecretId(str):
    """A secret is its name, interned: constructing it again returns the
    first instance built with that name. Hashing and equality are str's, so
    a secret equals its plain name.

    K[a,b] is a relay-established key and P[a,b] an adjacent-link key, held
    by the two nodes a and b in path order; X[a] is a nonce of endpoint a,
    X[a@p] its nonce for path p. ends holds those nodes as NodeIds.
    """

    ends: tuple[NodeId, ...]

    def __new__(cls, name: str, ends: tuple[str, ...]) -> SecretId:
        sid = _SECRET_IDS.get(name)
        if sid is None:
            if len(ends) == 2 and ends[0] == ends[1]:
                raise ValueError("a key joins two distinct nodes")
            sid = str.__new__(cls, name)
            sid.ends = tuple(map(NodeId, ends))
            _SECRET_IDS[name] = sid
        return sid

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the constructor, so they return the
        # interned instance
        return SecretId, (str(self), self.ends)


# The names are built with %, not f-strings: a NodeId is a str subclass, so
# an f-string formats it through __format__, at twice the cost.
def tf_key(a: str, b: str) -> SecretId:
    return SecretId("K[%s,%s]" % (a, b), (a, b))


def p2p_key(a: str, b: str) -> SecretId:
    return SecretId("P[%s,%s]" % (a, b), (a, b))


def nonce(owner: str, path_index: int | None = None) -> SecretId:
    if path_index is None:
        return SecretId("X[%s]" % owner, (owner,))
    return SecretId("X[%s@%d]" % (owner, path_index), (owner,))


@dataclass(frozen=True)
class BitString:
    """An n-bit string, n >= 1, stored as an int with bit i at weight 2**i:
    the range-checked, encodable form of a value that leaves a fold."""

    value: int
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("bit length must be at least 1")
        if not (self.value >= 0 and self.value.bit_length() <= self.n):
            raise ValueError("value out of range for bit length")

    @property
    def nbytes(self) -> int:
        return (self.n + 7) // 8

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.nbytes, "little")

    def to_hex(self) -> str:
        return self.to_bytes().hex()


_MAX_BITS = (1 << 31) - 1  # random.getrandbits takes a C int


class SymbolicExpr(NamedTuple):
    """An XOR of named secrets, kept as the set of terms with odd multiplicity."""

    terms: frozenset[SecretId] = frozenset()

    @classmethod
    def of(cls, *ids: SecretId) -> SymbolicExpr:
        terms = frozenset(ids)
        if len(terms) != len(ids):  # a repeated id cancels in pairs
            terms = frozenset(sid for sid in terms if ids.count(sid) % 2)
        return cls(terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def text(self) -> str:
        if self.is_zero:
            return "0"
        return "+".join(sorted(self.terms))


def check_length(n: int) -> None:
    """Refuse a key length a KeyStore cannot hold."""
    if n < 1:
        raise ValueError("key length must be at least 1")
    if n > _MAX_BITS:
        raise ValueError(f"key length must be at most {_MAX_BITS} bits")


class KeyStore:
    """Insert-once mapping from secret ids to n-bit values of one shared
    length. The values are held as plain ints; a lookup or an evaluation
    builds the BitString its caller gets."""

    def __init__(self, n: int) -> None:
        check_length(n)
        self.n = n
        self._values: dict[SecretId, int] = {}

    def sample(self, sid: SecretId, rng: random.Random) -> None:
        """Draw n uniform bits from a seeded generator as sid's value."""
        if sid in self._values:
            raise ValueError(f"duplicate secret id: {sid}")
        self._values[sid] = rng.getrandbits(self.n)

    def __getitem__(self, sid: SecretId) -> BitString:
        try:
            return BitString(self._values[sid], self.n)
        except KeyError:
            raise KeyError(f"unknown secret id: {sid}") from None

    def ids(self) -> tuple[SecretId, ...]:
        """All ids in insertion order."""
        return tuple(self._values)

    def evaluate(self, expr: SymbolicExpr) -> BitString:
        """XOR the stored values of every term; the empty expression is all zeros."""
        acc = 0
        try:
            for sid in expr.terms:
                acc ^= self._values[sid]
        except KeyError:
            raise KeyError(f"unknown secret id: {sid}") from None
        return BitString(acc, self.n)
