"""Lightweight elliptic-curve crypto for drone-class devices.

The package provides four building blocks that fit together:

- ``iodcrypt.group``: a prime-order group with explicit operation
  counting, so every higher-level routine can state its cost in scalar
  multiplications and point additions.
- ``iodcrypt.selfcert``: self-certified identity keys issued by a key
  generation centre, pairwise static secrets, and an ephemeral
  handshake that derives fresh session keys.
- ``iodcrypt.bpv`` + ``iodcrypt.sign`` + ``iodcrypt.encrypt``: offline
  precomputation tables that replace the online scalar multiplication
  in signing and hybrid encryption with a short run of point additions.
- ``iodcrypt.bench``: measurement harness and energy projection for
  battery-powered targets.

The ``sign`` and ``encrypt`` submodules each define a function named
after the module; call those as ``iodcrypt.sign.sign(...)`` and
``iodcrypt.encrypt.encrypt(...)`` (or import them directly).  This
top-level namespace re-exports everything that does not shadow a
submodule.

Top-level names resolve on first use: ``import iodcrypt`` loads no
submodule, and reading ``iodcrypt.BpvParams`` (or ``from iodcrypt import
BpvParams``) imports the submodule that defines it, then keeps the
value here.  Each name is the very object of its submodule.
"""

import importlib

__version__ = "0.1.0"

# Submodule -> the names this namespace re-exports from it.
_EXPORTS = {
    "bench": ("BENCH_OPS", "PROFILES", "BenchResult", "DeviceProfile", "EnergyReport",
              "device_report", "format_ldjson", "format_text_table", "host_report",
              "project_energy", "run_bench"),
    "bpv": ("SUPPORTED_PARAMS", "BpvParams", "PrecompTable", "bpv_offline", "bpv_online",
            "dbpv_offline", "dbpv_online", "deserialize_table", "sample_subset",
            "serialize_table", "subset_space_bits", "verify_table"),
    "encrypt": ("WIRE_OVERHEAD", "Ciphertext", "SenderContext", "decode_ciphertext",
                "decrypt", "deserialize_ciphertext_file", "enc_kg_sender", "kdf",
                "reference_encrypt", "serialize_ciphertext_file"),
    "errors": ("BadMagic", "IntegrityMismatch", "InvalidDesignatedPoint", "InvalidEphemeral",
               "InvalidIdentity", "InvalidMeasurement", "InvalidOwnerBinding",
               "InvalidSharedPoint", "IodCryptError", "KeyVerFailed", "MacMismatch",
               "MalformedElement", "MalformedScalar", "TableIntegrity", "TruncatedFile",
               "UnknownOp", "UnsupportedParams", "UnsupportedVersion", "VerifyFailed"),
    "group": ("ELEMENT_LEN", "G", "GROUP_ID", "IDENTITY", "SCALAR_LEN", "GroupElement",
              "OpCounter", "Scalar", "decode_element", "decode_scalar", "hash_to_scalar",
              "point_add", "random_scalar", "scalar_mult"),
    "selfcert": ("HangState", "IdentityRecord", "KgcKeypair", "SelfCertKeypair", "SessionKey",
                 "aq_hang_finalize", "aq_hang_initiate", "aq_kg", "aq_shared_static",
                 "deserialize_drone_keypair", "deserialize_kgc_keypair",
                 "deserialize_record", "deserialize_system_public", "kgc_setup", "key_ver",
                 "parse_record", "reconstruct_pub", "serialize_drone_keypair",
                 "serialize_kgc_keypair", "serialize_record", "serialize_system_public"),
    "sign": ("SIGNATURE_LEN", "Signature", "SignerContext", "VerifierContext",
             "decode_signature", "deserialize_signature_file", "reference_sign",
             "reference_verify", "serialize_signature_file", "sign_kg", "verify"),
}

_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    """Import what ``name`` needs on first access (PEP 562) and keep it here."""
    if name in _EXPORTS:  # a submodule: its import binds it on this package
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
