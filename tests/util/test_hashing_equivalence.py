"""The one-shot hashing and append-the-HMAC serialisation produce the
same bytes as the streaming and int-packing forms they replaced.

Each test rebuilds the replaced form as a reference and compares over
derandomized Hypothesis inputs, so a digest or image drift in the hot
path fails here before it can move a figure."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cme.counters import MINOR_BITS, MINORS_PER_BLOCK, CounterBlock
from repro.errors import ConfigError
from repro.mem.address import COUNTER_BITS_FOR_ARITY
from repro.tree.node import SITNode
from repro.util.crypto import MAC_BYTES, KeyedMac, make_otp

EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)

U64 = st.integers(min_value=0, max_value=2**64 - 1)
PARTS = st.lists(st.one_of(U64, st.binary(max_size=80)), max_size=6)


def streaming_mac(key: bytes, *parts: bytes | int) -> int:
    """The MAC as a keyed hash fed one ``update`` per part."""
    h = hashlib.blake2b(key=hashlib.blake2b(key, digest_size=32).digest(),
                        digest_size=MAC_BYTES)
    for part in parts:
        if isinstance(part, int):
            h.update(part.to_bytes(8, "little", signed=False))
        else:
            h.update(part)
    return int.from_bytes(h.digest(), "little")


def streaming_otp(key: bytes, line_addr: int, major: int,
                  minor: int) -> bytes:
    """The pad with its seed hashed one ``update`` per field."""
    h = hashlib.blake2b(key=hashlib.blake2b(key, digest_size=32).digest(),
                        digest_size=32)
    h.update(line_addr.to_bytes(8, "little"))
    h.update(major.to_bytes(8, "little"))
    h.update(minor.to_bytes(2, "little"))
    seed = h.digest()
    return hashlib.blake2b(seed + b"\x00", digest_size=32).digest() \
        + hashlib.blake2b(seed + b"\x01", digest_size=32).digest()


def packed_image(fields: list[tuple[int, int]], hmac: int) -> bytes:
    """A 64 B node image packed through one 512-bit integer: each
    ``(value, bits)`` field from bit 0 up, the HMAC in the top 64."""
    value = 0
    shift = 0
    for field, bits in fields:
        value |= field << shift
        shift += bits
    assert shift == 448
    return (value | (hmac << 448)).to_bytes(64, "little")


class TestKeyedMac:
    @EXAMPLES
    @given(key=st.binary(min_size=1, max_size=40), parts=PARTS)
    def test_mac_uncached_equals_streaming(self, key, parts):
        assert KeyedMac(key).mac_uncached(*parts) \
            == streaming_mac(key, *parts)

    def test_golden_vector(self):
        assert KeyedMac(b"repro-secret-key").mac(
            0x4000, b"\x01" * 56, 9) == 5596220706193443995

    @pytest.mark.parametrize("bad", [-1, 2**64])
    def test_out_of_range_int_part_still_raises(self, bad):
        with pytest.raises(OverflowError):
            KeyedMac(b"k").mac_uncached(bad)


class TestOneTimePad:
    @EXAMPLES
    @given(key=st.binary(min_size=1, max_size=40),
           line_addr=U64, major=U64,
           minor=st.integers(min_value=0, max_value=2**16 - 1))
    def test_make_otp_equals_streaming(self, key, line_addr, major, minor):
        assert make_otp(key, line_addr, major, minor) \
            == streaming_otp(key, line_addr, major, minor)

    def test_golden_vector(self):
        assert make_otp(b"repro-cme-key", 0x4000, 3, 17).hex() == (
            "24fc095b13293a6f7580ab4cf574fff0ea10ab8ca78ebeba62fcc3ce0f86b3bd"
            "0920cf975caca5c3214deb78e78cad0eed825ac185f11ecfa93873f68dae8435")


class TestNodeImages:
    @EXAMPLES
    @given(data=st.data(), arity=st.sampled_from(sorted(COUNTER_BITS_FOR_ARITY)),
           hmac=st.one_of(st.just(2**64 - 1), U64))
    def test_sit_node_equals_int_packing(self, data, arity, hmac):
        bits = COUNTER_BITS_FOR_ARITY[arity]
        counters = data.draw(st.lists(
            st.integers(min_value=0, max_value=2**bits - 1),
            min_size=arity, max_size=arity))
        node = SITNode(1, 0, counters=list(counters), hmac=hmac,
                       arity=arity)
        assert node.to_bytes() == packed_image(
            [(counter, bits) for counter in counters], hmac)

    @EXAMPLES
    @given(major=U64,
           minors=st.lists(st.integers(min_value=0,
                                       max_value=2**MINOR_BITS - 1),
                           min_size=MINORS_PER_BLOCK,
                           max_size=MINORS_PER_BLOCK),
           hmac=st.one_of(st.just(2**64 - 1), U64))
    def test_counter_block_equals_int_packing(self, major, minors, hmac):
        block = CounterBlock(0, major=major, minors=list(minors), hmac=hmac)
        assert block.to_bytes() == packed_image(
            [(major, 64)] + [(minor, MINOR_BITS) for minor in minors], hmac)

    @pytest.mark.parametrize("hmac", [-1, 2**64, 2**80])
    def test_out_of_range_hmac_still_raises(self, hmac):
        with pytest.raises(ConfigError):
            SITNode(1, 0, hmac=hmac).to_bytes()
        with pytest.raises(ConfigError):
            CounterBlock(0, hmac=hmac).to_bytes()

    def test_oversized_counter_still_raises(self):
        with pytest.raises(ConfigError):
            SITNode(1, 0, counters=[2**56] + [0] * 7).to_bytes()
        with pytest.raises(ConfigError):
            CounterBlock(0, minors=[2**MINOR_BITS] + [0] * 63).to_bytes()
