"""Bitstrings, secret identities, and symbolic XOR expressions.

Every message the relay protocols exchange is an XOR of secret bitstrings.
This module keeps both layers in sync: concrete bits (KeyStore) and their
algebraic shadow (SymbolicExpr over SecretId terms), related by
KeyStore.evaluate. Every fold is done on plain ints; a BitString is the type
a value leaves a fold in, as a message, an output or a store lookup.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

__all__ = [
    "SecretKind",
    "SecretId",
    "tf_key",
    "p2p_key",
    "nonce",
    "BitString",
    "SymbolicExpr",
    "KeyStore",
    "check_length",
]


class SecretKind(Enum):
    """Relay-established key, adjacent-link key, or endpoint nonce."""

    TF_KEY = "K"
    P2P_KEY = "P"
    NONCE = "X"

    # members are singletons, so identity is equality; object's C-level hash
    # spares every SecretId lookup Enum's Python-level one
    __hash__ = object.__hash__


# Every SecretId built in this process, keyed by its fields: one entry per
# distinct key and nonce built, never evicted. Equal ids are one object, so
# equality and hashing are object's identity versions.
_SECRET_IDS: dict[tuple[SecretKind, tuple[str, ...], int | None], SecretId] = {}


@dataclass(frozen=True, eq=False, init=False)
class SecretId:
    """Identity of one secret bitstring, interned: constructing it again
    returns the first instance built with the same fields.

    Relay and adjacent-link keys name the two nodes that hold them, in path
    order. Nonces name their single owner, plus a path index when one owner
    draws a nonce per path.
    """

    kind: SecretKind
    ends: tuple[str, ...]
    path_index: int | None = None

    def __new__(
        cls, kind: SecretKind, ends: tuple[str, ...], path_index: int | None = None
    ) -> SecretId:
        key = (kind, ends, path_index)
        sid = _SECRET_IDS.get(key)
        if sid is None:
            if kind is SecretKind.NONCE:
                if len(ends) != 1:
                    raise ValueError("a nonce has exactly one owner")
            else:
                if len(ends) != 2 or ends[0] == ends[1]:
                    raise ValueError("a key joins two distinct nodes")
                if path_index is not None:
                    raise ValueError("path_index is reserved for nonces")
            sid = object.__new__(cls)
            object.__setattr__(sid, "kind", kind)
            object.__setattr__(sid, "ends", ends)
            object.__setattr__(sid, "path_index", path_index)
            _SECRET_IDS[key] = sid
        return sid

    def __reduce__(self) -> tuple:
        # pickle and copy rebuild through the constructor, so they return the
        # interned instance
        return SecretId, (self.kind, self.ends, self.path_index)

    @property
    def name(self) -> str:
        if self.kind is SecretKind.NONCE:
            if self.path_index is None:
                return f"X[{self.ends[0]}]"
            return f"X[{self.ends[0]}@{self.path_index}]"
        return f"{self.kind.value}[{self.ends[0]},{self.ends[1]}]"

    def __str__(self) -> str:
        return self.name


def tf_key(a: str, b: str) -> SecretId:
    return SecretId(SecretKind.TF_KEY, (a, b))


def p2p_key(a: str, b: str) -> SecretId:
    return SecretId(SecretKind.P2P_KEY, (a, b))


def nonce(owner: str, path_index: int | None = None) -> SecretId:
    return SecretId(SecretKind.NONCE, (owner,), path_index)


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

    def sorted_terms(self) -> list[SecretId]:
        return sorted(self.terms, key=lambda s: s.name)

    def text(self) -> str:
        if self.is_zero:
            return "0"
        return "+".join(s.name for s in self.sorted_terms())


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
