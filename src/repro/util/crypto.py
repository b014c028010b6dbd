"""Cryptographic primitives for the simulated secure memory controller.

The paper's hardware uses AES-CTR for counter-mode encryption and a
SHA-class keyed HMAC for integrity.  Cryptographic *strength* is irrelevant
to the mechanisms under evaluation (update schemes, crash consistency,
recovery); what matters is that MACs are keyed, deterministic, and
collision-resistant enough that a tampered input practically never matches a
stored MAC.  We therefore use ``blake2b`` (keyed, fast, in the standard
library) truncated to the field widths the paper models: 64-bit HMACs in
tree nodes, and 64-byte one-time pads for CME.
"""

from __future__ import annotations

import hashlib

MAC_BITS = 64
MAC_BYTES = MAC_BITS // 8
OTP_BYTES = 64


class KeyedMac:
    """A keyed 64-bit MAC, the simulator's stand-in for the hardware HMAC
    unit.

    The secret key lives inside the trusted on-chip domain; attackers (and
    attack-injection code) never see it, which is exactly why roll-forward
    attacks are detected (§IV-B2): without the key an attacker cannot forge
    a MAC over modified counters.
    """

    #: Entry cap on the content-keyed memo; the table is dropped wholesale
    #: when full (simple, and refill cost is one recomputation per entry).
    MEMO_LIMIT = 1 << 17

    def __init__(self, key: bytes = b"repro-secret-key") -> None:
        if not key:
            raise ValueError("MAC key must be non-empty")
        # blake2b keys are capped at 64 bytes.
        self._key = hashlib.blake2b(key, digest_size=32).digest()
        #: Content-keyed digest memo.  A MAC is a pure function of the key
        #: and the input parts, so caching by the *parts themselves* is
        #: sound: any mutation of the hashed content produces a different
        #: memo key and recomputes — a tampered node can never inherit a
        #: cached MAC (docs/performance.md).  Node code also parks
        #: structured keys here (tagged tuples) to skip image packing.
        self.memo: dict[tuple, int] = {}

    def mac(self, *parts: bytes | int) -> int:
        """Compute the 64-bit MAC over the concatenation of ``parts``.

        Integer parts are serialised as 8-byte little-endian words, which is
        how node addresses and parent counters enter the hash in our node
        layouts.  Returns the MAC as an unsigned 64-bit integer (the form
        stored in node images).
        """
        memo = self.memo
        value = memo.get(parts)
        if value is not None:
            return value
        value = self.mac_uncached(*parts)
        if len(memo) >= self.MEMO_LIMIT:
            memo.clear()
        memo[parts] = value
        return value

    def mac_uncached(self, *parts: bytes | int) -> int:
        """:meth:`mac` without the memo — for callers (node HMACs) that
        keep their own content-keyed memo and would otherwise populate
        both tables on every miss."""
        # One keyed call over the joined parts: the same digest as a
        # hash object fed one ``update`` per part, without the object.
        data = b""
        for part in parts:
            data += part.to_bytes(8, "little", signed=False) \
                if isinstance(part, int) else part
        return int.from_bytes(
            hashlib.blake2b(data, key=self._key,
                            digest_size=MAC_BYTES).digest(), "little")

    def mac_bytes(self, *parts: bytes | int) -> bytes:
        """Like :meth:`mac` but returns the raw 8-byte digest."""
        return self.mac(*parts).to_bytes(MAC_BYTES, "little")


#: Derived-key cache for :func:`make_otp`: one blake2b per distinct user
#: key instead of one per pad.  Keys are config constants, so this stays
#: a handful of entries for the life of the process.
_DERIVED_KEYS: dict[bytes, bytes] = {}


def make_otp(key: bytes, line_addr: int, major: int, minor: int) -> bytes:
    """Generate the 64-byte one-time pad for counter-mode encryption.

    Hardware computes AES_k(line_address || major || minor) blocks; we
    derive an equivalent deterministic pad from the same inputs.  The CME
    security argument only needs pads to be unique per (address, counter)
    pair and unpredictable without the key — both hold here.
    """
    derived = _DERIVED_KEYS.get(key)
    if derived is None:
        derived = hashlib.blake2b(key, digest_size=32).digest()
        _DERIVED_KEYS[key] = derived
    seed = hashlib.blake2b(
        line_addr.to_bytes(8, "little") + major.to_bytes(8, "little")
        + minor.to_bytes(2, "little"), key=derived, digest_size=32).digest()
    # Expand 32 -> 64 bytes (== OTP_BYTES) with two counter-indexed blocks.
    return hashlib.blake2b(seed + b"\x00", digest_size=32).digest() \
        + hashlib.blake2b(seed + b"\x01", digest_size=32).digest()


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (the CME encrypt/decrypt step)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")) \
        .to_bytes(len(a), "little")
