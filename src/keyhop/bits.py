"""Bitstrings, secrets, and symbolic XOR expressions.

Every message the relay protocols exchange is an XOR of secret bitstrings.
This module keeps both layers in sync: concrete bits (KeyStore) and their
algebraic shadow, related by KeyStore.evaluate. A secret is its name, as
the paper writes it: a str that hashes, compares and sorts as that name.
An expression is its terms: over GF(2) an XOR of distinct secrets is the
frozenset of them. Every fold is done on plain ints; a BitString is the
type a value leaves a fold in, as a message, an output or a store lookup.
"""

from __future__ import annotations

import random

from .topology import NodeId

__all__ = [
    "SecretId",
    "tf_key",
    "p2p_key",
    "nonce",
    "BitString",
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


class BitString:
    """An n-bit string, n >= 1, stored as an int with bit i at weight 2**i:
    the range-checked, encodable form of a value that leaves a fold.

    Immutable, hashable and compared by value against BitStrings alone. It
    is a slotted class, not a NamedTuple, so it has no +, < or len."""

    __slots__ = ("value", "n")
    value: int
    n: int

    def __init__(self, value: int, n: int) -> None:
        if n < 1:
            raise ValueError("bit length must be at least 1")
        if not (value >= 0 and value.bit_length() <= n):
            raise ValueError("value out of range for bit length")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"BitString(value={self.value!r}, n={self.n!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not BitString:
            return NotImplemented
        return self.value == other.value and self.n == other.n

    def __hash__(self) -> int:
        return hash((self.value, self.n))

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the constructor, as __setattr__ refuses
        return BitString, (self.value, self.n)

    @property
    def nbytes(self) -> int:
        return (self.n + 7) // 8

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.nbytes, "little")

    def to_hex(self) -> str:
        return self.to_bytes().hex()


_MAX_BITS = (1 << 31) - 1  # random.getrandbits takes a C int


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

    def evaluate(self, terms: frozenset[SecretId]) -> BitString:
        """XOR the stored values of every term; the empty set is all zeros."""
        acc = 0
        try:
            for sid in terms:
                acc ^= self._values[sid]
        except KeyError:
            raise KeyError(f"unknown secret id: {sid}") from None
        return BitString(acc, self.n)
