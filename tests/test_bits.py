import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from keyhop import bits
from keyhop.bits import (
    BitString,
    KeyStore,
    SecretId,
    nonce,
    p2p_key,
    tf_key,
)


def test_bit_order_is_low_first():
    # bit i has weight 2**i, and its byte is byte i // 8 of the little-endian form
    assert BitString(1, 16).to_bytes() == b"\x01\x00"
    assert BitString(1 << 15, 16).to_bytes() == b"\x00\x80"
    assert BitString(1 << 8, 12).to_hex() == "0001"


def test_hex_round_trip():
    b = BitString(0b11001001101, 11)
    assert BitString(int.from_bytes(bytes.fromhex(b.to_hex()), "little"), 11) == b
    assert BitString(int.from_bytes(b.to_bytes(), "little"), 11) == b


def test_sampled_bits_are_roughly_balanced():
    store, rng = KeyStore(1000), random.Random(1234)
    for i in range(10):
        store.sample(nonce("A", i), rng)
    ones = sum(bin(store[sid].value).count("1") for sid in store.ids())
    assert abs(ones / 10_000 - 0.5) < 0.02


def test_key_names_preserve_end_order():
    # ends are stored in path order; the name reflects it
    assert tf_key("A", "N2") == "K[A,N2]" and tf_key("A", "N2").ends == ("A", "N2")
    assert tf_key("N2", "A") == "K[N2,A]" and tf_key("N2", "A").ends == ("N2", "A")
    assert tf_key("N2", "A") != tf_key("A", "N2")


def test_store_rejects_duplicates_and_names_missing_ids():
    store, rng = KeyStore(4), random.Random(0)
    sid = tf_key("A", "N2")
    store.sample(sid, rng)
    with pytest.raises(ValueError):
        store.sample(sid, rng)
    with pytest.raises(KeyError, match=r"X\[A\]"):
        store[nonce("A")]


@pytest.mark.parametrize("n", [1, 16, 65536])
def test_bitstring_range_is_zero_to_all_ones(n):
    assert BitString(0, n).value == 0
    assert BitString((1 << n) - 1, n).value >> (n - 1) == 1
    for bad in (-1, 1 << n):
        with pytest.raises(ValueError, match="out of range"):
            BitString(bad, n)


def test_bitstring_needs_at_least_one_bit():
    with pytest.raises(ValueError, match="at least 1"):
        BitString(0, 0)


def test_evaluate_names_an_unknown_id():
    store = _store_over_pool(8)
    with pytest.raises(KeyError, match=r"K\[N1,N2\]"):
        store.evaluate(frozenset((tf_key("A", "N2"), tf_key("N1", "N2"))))


def test_equal_ids_hash_equal_and_share_a_store_entry():
    store, rng = KeyStore(8), random.Random(3)
    store.sample(tf_key("A", "N1"), rng)
    store.sample(nonce("A", 2), rng)
    draws = random.Random(3)
    key, nid = BitString(draws.getrandbits(8), 8), BitString(draws.getrandbits(8), 8)
    for built in (tf_key("A", "N1"), SecretId("K[A,N1]", ("A", "N1"))):
        assert built == tf_key("A", "N1") and hash(built) == hash(tf_key("A", "N1"))
        assert store[built] == key
    for built in (nonce("A", 2), SecretId("X[A@2]", ("A",))):
        assert hash(built) == hash(nonce("A", 2))
        assert store[built] == nid


def test_relay_and_link_keys_on_the_same_ends_stay_apart():
    tf, p2p = tf_key("A", "N1"), p2p_key("A", "N1")
    assert tf != p2p
    store, rng = KeyStore(4), random.Random(0)
    store.sample(tf, rng)
    store.sample(p2p, rng)
    draws = random.Random(0)
    assert store.ids() == (tf, p2p)
    assert store[tf].value == draws.getrandbits(4) and store[p2p].value == draws.getrandbits(4)


def test_secret_ids_are_interned():
    assert tf_key("A", "N1") is SecretId("K[A,N1]", ("A", "N1"))
    assert p2p_key("A", "N1") is SecretId("P[A,N1]", ("A", "N1"))
    assert nonce("A", 2) is SecretId("X[A@2]", ("A",))
    assert nonce("B") is SecretId("X[B]", ("B",))
    assert nonce("A", 2) is not nonce("A", 3) and nonce("A") is not nonce("A", 1)


def test_relay_and_link_keys_on_the_same_ends_are_distinct_objects():
    assert tf_key("A", "N1") is not p2p_key("A", "N1")
    assert len({tf_key("A", "N1"), p2p_key("A", "N1"), tf_key("A", "N1")}) == 2


def test_secret_ids_compare_and_hash_as_their_names():
    assert "__hash__" not in vars(SecretId) and "__eq__" not in vars(SecretId)
    assert SecretId.__hash__ is str.__hash__ and SecretId.__eq__ is str.__eq__
    assert SecretId.__lt__ is str.__lt__
    # a repeat construction returns the interned id without running an
    # initialiser again
    assert SecretId.__init__ is object.__init__ and not hasattr(SecretId, "__post_init__")
    sid = tf_key("A", "N1")
    assert sid == "K[A,N1]" and hash(sid) == hash("K[A,N1]")
    assert type(str(sid)) is str and repr(sid) == "'K[A,N1]'"


_COPIES = {
    "pickle": lambda sid: pickle.loads(pickle.dumps(sid)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(_COPIES))
@pytest.mark.parametrize(
    "sid",
    [tf_key("N1", "N3"), p2p_key("N4", "B"), nonce("A"), nonce("A", 3)],
    ids=["sid0", "sid1", "sid2", "sid3"],
)
def test_copies_of_a_secret_id_are_the_interned_id(how, sid):
    assert _COPIES[how](sid) is sid


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: tf_key("A", "A"), "two distinct nodes"),
    ],
)
def test_an_invalid_secret_id_raises_every_time_and_is_never_interned(build, message):
    size = len(bits._SECRET_IDS)
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            build()
        assert len(bits._SECRET_IDS) == size


def test_store_keeps_insertion_order():
    store = KeyStore(2)
    rng = random.Random(0)
    ids = [nonce("B"), tf_key("A", "N2"), nonce("A")]
    for sid in ids:
        store.sample(sid, rng)
    assert list(store.ids()) == ids


def test_store_lookup_builds_the_drawn_value():
    store = KeyStore(12)
    store.sample(nonce("A"), random.Random(5))
    got = store[nonce("A")]
    assert isinstance(got, BitString) and got.n == 12
    assert got.value == random.Random(5).getrandbits(12)


def test_store_refuses_a_second_draw_of_one_id():
    store, rng = KeyStore(8), random.Random(0)
    store.sample(nonce("A"), rng)
    first = store[nonce("A")]
    with pytest.raises(ValueError, match=r"duplicate secret id: X\[A\]"):
        store.sample(nonce("A"), rng)
    assert store[nonce("A")] == first and store.ids() == (nonce("A"),)


_POOL = [tf_key("A", "N2"), tf_key("N1", "B"), p2p_key("A", "N1"), nonce("A"), nonce("B")]


def _store_over_pool(n):
    store = KeyStore(n)
    rng = random.Random(99)
    for sid in _POOL:
        store.sample(sid, rng)
    return store


@given(st.frozensets(st.sampled_from(_POOL)), st.frozensets(st.sampled_from(_POOL)))
def test_evaluate_is_a_xor_homomorphism(lhs, rhs):
    # the symmetric difference of two term sets evaluates to the XOR of the two
    store = _store_over_pool(8)
    folded = store.evaluate(lhs).value ^ store.evaluate(rhs).value
    assert store.evaluate(lhs ^ rhs) == BitString(folded, 8)


def test_evaluate_empty_expr_is_zero():
    store = _store_over_pool(6)
    assert store.evaluate(frozenset()) == BitString(0, 6)
