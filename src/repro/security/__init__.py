"""Security substrate for SeNDlog: principals, keys, signatures, ``says``.

The paper's evaluation signs every exchanged tuple with RSA (via OpenSSL);
here one signature covers each wire message, a tuple being the one-tuple case.
This package provides the equivalent building blocks from scratch:

* :mod:`repro.security.primes` — Miller–Rabin primality testing and prime
  generation;
* :mod:`repro.security.rsa` — textbook RSA key generation, signing and
  verification over SHA-256 digests;
* :mod:`repro.security.keystore` — per-principal key management and public
  key distribution;
* :mod:`repro.security.principal` — security principals with the multi-level
  "says" trust levels of Section 2.2 / 4.5;
* :mod:`repro.security.says` — the authentication modes of the ``says``
  operator (none, cleartext, signed);
* :mod:`repro.security.authenticator` — the signing / verification pipeline
  used when exporting and importing tuples: one signature per wire message
  over a Merkle root of its tuples, and per-tuple evidence that verifies
  alone.
"""

from repro.security.primes import is_probable_prime, generate_prime
from repro.security.rsa import RSAKeyPair, generate_keypair, sign, verify
from repro.security.keystore import KeyStore
from repro.security.principal import Principal, PrincipalRegistry
from repro.security.says import SaysMode
from repro.security.authenticator import (
    AuthenticationError,
    Authenticator,
    SignedEnvelope,
    verify_evidence,
)

__all__ = [
    "AuthenticationError",
    "Authenticator",
    "KeyStore",
    "Principal",
    "PrincipalRegistry",
    "RSAKeyPair",
    "SaysMode",
    "SignedEnvelope",
    "generate_keypair",
    "generate_prime",
    "is_probable_prime",
    "sign",
    "verify",
    "verify_evidence",
]
