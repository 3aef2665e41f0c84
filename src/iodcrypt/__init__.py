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

Each name is imported from the submodule that defines it, for example
``from iodcrypt.bpv import BpvParams`` or ``from iodcrypt.sign import
sign``; this package re-exports nothing, and ``import iodcrypt`` loads
no submodule.
"""

__version__ = "0.1.0"
