"""Exception hierarchy shared across the library.

Every error raised by library code derives from :class:`IodCryptError`, so
callers (and the CLI) can map failures to a single machine-readable class
name via ``type(exc).__name__``.
"""


class IodCryptError(Exception):
    """Base class for all library errors."""


class MalformedScalar(IodCryptError):
    """Scalar bytes are the wrong length or encode a value >= the group order."""


class MalformedElement(IodCryptError):
    """Element bytes are non-canonical, off-curve, or outside the prime-order subgroup."""


class UnsupportedParams(IodCryptError):
    """Precomputation parameters outside the supported set (and not explicitly allowed)."""


class TableIntegrity(IodCryptError):
    """A precomputation table entry failed its self-consistency check."""


class InvalidDesignatedPoint(IodCryptError):
    """The designated point of a receiver-bound table is degenerate (identity)."""


class InvalidOwnerBinding(IodCryptError):
    """A table's owner binding is not 32 bytes over (G, X), or not empty over (G,)."""


class InvalidIdentity(IodCryptError):
    """Identity string empty or oversized, or an identity record carries a bad key."""


class InvalidEphemeral(IodCryptError):
    """A handshake message does not end in exactly one 32-byte ephemeral u."""


class InvalidSharedPoint(IodCryptError):
    """Key derivation was attempted on the identity element."""


class MacMismatch(IodCryptError):
    """Ciphertext authentication failed; no plaintext was released."""


class KeyVerFailed(IodCryptError):
    """A self-certified key failed verification against the system public key."""


class VerifyFailed(IodCryptError):
    """A signature did not verify for the given message and signer."""


class InvalidMeasurement(IodCryptError):
    """Non-positive time/cycle input to the energy model."""


class UnknownOp(IodCryptError):
    """Benchmark selector does not name a measurable operation."""


class BadMagic(IodCryptError):
    """File does not start with a recognized magic string."""


class UnsupportedVersion(IodCryptError):
    """Recognized file family but unknown version, group, or kind byte."""


class IntegrityMismatch(IodCryptError):
    """File integrity hash does not match the file contents."""


class TruncatedFile(IodCryptError):
    """File ends before the declared payload is complete."""
