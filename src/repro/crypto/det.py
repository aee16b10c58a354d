"""DET: deterministic symmetric encryption.

Deterministic encryption maps equal plaintexts to equal ciphertexts, which is
precisely the property needed for *token equivalence* and for equality
predicates/joins over encrypted data.  We use an SIV-style construction
(synthetic IV): the nonce is a PRF of the plaintext, so encryption is
deterministic yet still IND-secure up to equality leakage.

Ciphertext layout: ``siv (16) || body`` hex-encoded.  Two public encodings
are provided:

* :meth:`DeterministicScheme.encrypt` — ``det:<hex>`` string ciphertext, used
  for constants (string literals in encrypted queries, cell values in
  encrypted tables);
* :meth:`DeterministicScheme.encrypt_identifier` — ``enc_<hex>`` ciphertext
  that is a valid SQL identifier, used for relation and attribute names
  (EncRel / EncAttr in the paper's high-level scheme).

Both encodings share one raw encryption, and every instance memoizes it:
logs and tables repeat the same names and constants many times (a
2000-query log makes about ten DET calls per distinct plaintext), and a
repeat of a deterministic encryption can only recompute the same bytes.
:meth:`DeterministicScheme.encrypt_reference` is the uncached construction,
kept as the equality oracle of the memo.
"""

from __future__ import annotations

from repro.crypto.base import CiphertextKind, EncryptionClass, EncryptionScheme
from repro.crypto.primitives import (
    SqlValue,
    aes_ctr_transform,
    decode_value,
    derive_key,
    encode_value,
    prf,
)
from repro.exceptions import DecryptionError, KeyError_

_VALUE_PREFIX = "det:"
_IDENTIFIER_PREFIX = "enc_"
#: Entries an instance's raw-ciphertext memo holds before it is flushed
#: (about 150 bytes each for short plaintexts).
_MEMO_MAX_ENTRIES = 16_384


class DeterministicScheme(EncryptionScheme):
    """SIV-style deterministic AES encryption of SQL values (class DET)."""

    encryption_class = EncryptionClass.DET
    preserves_equality = True
    preserves_order = False
    supports_addition = False
    is_probabilistic = False
    ciphertext_kind = CiphertextKind.STRING

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise KeyError_("DET key must be at least 16 bytes")
        self._siv_key = derive_key(key, "det-siv", 32)
        self._enc_key = derive_key(key, "det-enc", 32)
        # Encoded plaintext -> siv || body.  No lock: every value is a pure
        # function of (key, plaintext), so two threads racing on one entry
        # can only store identical bytes; a flush racing a lookup costs a
        # recomputation, and racing writers overshoot the bound by at most
        # one entry each.
        self._memo: dict[bytes, bytes] = {}

    # -- value ciphertexts ------------------------------------------------ #

    def encrypt(self, value: SqlValue) -> str:
        return _VALUE_PREFIX + self._encrypt_raw(encode_value(value)).hex()

    def encrypt_reference(self, value: SqlValue) -> str:
        """:meth:`encrypt` without the memo (equality oracle)."""
        return _VALUE_PREFIX + self._encrypt_raw_uncached(encode_value(value)).hex()

    def decrypt(self, ciphertext: object) -> SqlValue:
        if not isinstance(ciphertext, str) or not ciphertext.startswith(_VALUE_PREFIX):
            raise DecryptionError("not a DET ciphertext")
        return decode_value(self._decrypt_raw(_from_hex(ciphertext[len(_VALUE_PREFIX) :])))

    def encrypt_many(self, values: list[SqlValue]) -> list[str]:
        """Batch encryption with repeated-plaintext deduplication (DET is
        deterministic, so repeated values reuse one AES/PRF evaluation)."""
        return self._encrypt_many_deduplicated(values)  # type: ignore[return-value]

    def decrypt_many(self, ciphertexts: list[object]) -> list[SqlValue]:
        """Batch decryption with repeated-ciphertext deduplication (the dual
        of :meth:`encrypt_many`: a column batch-encrypted with dedup repeats
        its ciphertexts, so each distinct one pays AES/PRF once)."""
        return self._decrypt_many_deduplicated(ciphertexts)

    # -- identifier ciphertexts ------------------------------------------- #

    def encrypt_identifier(self, name: str) -> str:
        """Encrypt an identifier (relation or attribute name).

        The result is itself a valid SQL identifier (``enc_`` followed by hex
        characters), so encrypted queries remain parseable SQL.
        """
        return _IDENTIFIER_PREFIX + self._encrypt_raw(encode_value(name)).hex()

    def decrypt_identifier(self, ciphertext: str) -> str:
        """Decrypt an identifier produced by :meth:`encrypt_identifier`."""
        if not ciphertext.startswith(_IDENTIFIER_PREFIX):
            raise DecryptionError("not a DET identifier ciphertext")
        value = decode_value(self._decrypt_raw(_from_hex(ciphertext[len(_IDENTIFIER_PREFIX) :])))
        if not isinstance(value, str):
            raise DecryptionError("identifier ciphertext did not decrypt to a string")
        return value

    def is_identifier_ciphertext(self, text: str) -> bool:
        """Return True if ``text`` looks like an identifier ciphertext."""
        return text.startswith(_IDENTIFIER_PREFIX)

    # -- internals --------------------------------------------------------- #

    def _encrypt_raw(self, plaintext: bytes) -> bytes:
        raw = self._memo.get(plaintext)
        if raw is None:
            raw = self._encrypt_raw_uncached(plaintext)
            if len(self._memo) >= _MEMO_MAX_ENTRIES:
                self._memo.clear()
            self._memo[plaintext] = raw
        return raw

    def _encrypt_raw_uncached(self, plaintext: bytes) -> bytes:
        siv = prf(self._siv_key, "siv", plaintext)[:16]
        body = aes_ctr_transform(self._enc_key, siv, plaintext)
        return siv + body

    def _decrypt_raw(self, raw: bytes) -> bytes:
        if len(raw) < 16:
            raise DecryptionError("DET ciphertext too short")
        siv, body = raw[:16], raw[16:]
        plaintext = aes_ctr_transform(self._enc_key, siv, body)
        expected = prf(self._siv_key, "siv", plaintext)[:16]
        if expected != siv:
            raise DecryptionError("DET ciphertext failed integrity check")
        return plaintext


def _from_hex(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise DecryptionError("malformed DET ciphertext") from exc
