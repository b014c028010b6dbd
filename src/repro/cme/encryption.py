"""The counter-mode encryption engine (paper §II-B, Fig 1).

Encrypts/decrypts 64 B user-data lines with one-time pads derived from
(line address, major counter, minor counter).  The OTP for a *read* can be
generated while the line is in flight from NVM, so decryption adds no
latency; for a *write* the pad must reflect the freshly bumped minor
counter.  Minor-counter overflow forces re-encryption of all 64 lines the
block covers — the engine exposes :meth:`reencrypt_block` for the
controller to apply when :meth:`repro.cme.counters.CounterBlock.bump`
reports an overflow.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.cme.counters import CounterBlock, MINORS_PER_BLOCK
from repro.errors import ConfigError
from repro.mem.address import AddressMap, CACHE_LINE_SIZE, LINE_SHIFT
from repro.mem.nvm import NVMDevice
from repro.util.crypto import OTP_BYTES, make_otp, xor_bytes
from repro.util.stats import StatGroup


class CMEEngine:
    """Counter-mode encryption over an :class:`AddressMap`-shaped NVM."""

    #: Entry cap on the pad memo (64 B pads; ~4 MB at the cap).
    _PAD_MEMO_LIMIT = 1 << 16

    def __init__(self, amap: AddressMap, key: bytes = b"repro-cme-key",
                 stats: StatGroup | None = None) -> None:
        self.amap = amap
        self._data_capacity = amap.data_capacity
        self._key = key
        group = stats or StatGroup("cme")
        self.stats = group
        self._encrypts = group.counter("encrypts")
        self._decrypts = group.counter("decrypts")
        self._reencrypted_lines = group.counter("reencrypted_lines")
        # A pad is a pure function of (key, address, major, minor); the
        # read path regenerates the same pad for every re-read of a line
        # whose counters haven't moved, so memoize per engine (the key is
        # fixed per engine and excluded from the memo key).
        self._pads: dict[tuple[int, int, int], bytes] = {}

    # ------------------------------------------------------------------
    def pad(self, data_line_addr: int, major: int, minor: int) -> bytes:
        """The one-time pad for a line under ``(major, minor)``."""
        key = (data_line_addr, major, minor)
        pad = self._pads.get(key)
        if pad is None:
            pad = make_otp(self._key, data_line_addr, major, minor)
            if len(self._pads) >= self._PAD_MEMO_LIMIT:
                self._pads.clear()
            self._pads[key] = pad
        return pad

    def encrypt(self, data_line_addr: int, plaintext: bytes,
                block: CounterBlock) -> bytes:
        """Encrypt ``plaintext`` for ``data_line_addr`` under the block's
        *current* counters (bump the counter first: pads must be fresh)."""
        self._encrypts.value += 1
        return self._apply_pad(data_line_addr, plaintext, block)

    def decrypt(self, data_line_addr: int, ciphertext: bytes,
                block: CounterBlock) -> bytes:
        """Decrypt a line previously produced by :meth:`encrypt` under the
        same counter values."""
        self._decrypts.value += 1
        return self._apply_pad(data_line_addr, ciphertext, block)

    def _apply_pad(self, data_line_addr: int, data: bytes,
                   block: CounterBlock) -> bytes:
        """XOR ``data`` with the line's pad under the block's counters."""
        if not 0 <= data_line_addr < self._data_capacity:
            self.amap.data_line_index(data_line_addr)  # raises
        if len(data) != OTP_BYTES:
            raise ValueError(
                f"length mismatch: {len(data)} vs {OTP_BYTES}")
        major = block.major
        minor = block.minors[(data_line_addr >> LINE_SHIFT)
                             % MINORS_PER_BLOCK]
        pad = self._pads.get((data_line_addr, major, minor))
        if pad is None:
            pad = self.pad(data_line_addr, major, minor)
        return (int.from_bytes(data, "little")
                ^ int.from_bytes(pad, "little")).to_bytes(OTP_BYTES,
                                                          "little")

    # ------------------------------------------------------------------
    def reencrypt_block(self, nvm: NVMDevice, block: CounterBlock,
                        old_major: int, old_minors: Sequence[int]) -> int:
        """Re-encrypt the 64 data lines covered by ``block`` after a minor
        overflow (§II-B): each covered ciphertext in NVM is decrypted under
        the pre-overflow counters and re-encrypted under the new major with
        reset minors.

        The controller snapshots ``old_minors`` *before* calling
        :meth:`CounterBlock.bump`, because the reset destroys them.  Note
        the overflowing slot's snapshot still holds the pad actually used
        for its last encryption (the bump that overflowed never produced a
        pad — the line is re-encrypted fresh here).

        Returns the number of lines rewritten (for traffic accounting).
        """
        if len(old_minors) != MINORS_PER_BLOCK:
            raise ConfigError("old_minors must cover the whole block")
        base_line = block.index * MINORS_PER_BLOCK * CACHE_LINE_SIZE
        rewritten = 0
        for slot in range(MINORS_PER_BLOCK):
            addr = base_line + slot * CACHE_LINE_SIZE
            ciphertext = nvm.peek_line(addr)
            plaintext = xor_bytes(
                ciphertext, self.pad(addr, old_major, old_minors[slot]))
            fresh = xor_bytes(
                plaintext,
                self.pad(addr, block.major, block.minor_of(slot)))
            nvm.poke_line(addr, fresh)
            rewritten += 1
        self._reencrypted_lines.add(rewritten)
        return rewritten
