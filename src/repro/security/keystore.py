"""Key management: per-principal key pairs and public-key distribution.

A :class:`KeyStore` owns the private keys of the principals hosted on one
simulation (or one node) and a directory of public keys for every principal
it has heard about.  In a real deployment key distribution would involve a
PKI; in the simulation every node's keystore is pre-populated with the public
keys of all principals, which matches the paper's assumption that ``says``
abstracts away the details of authentication.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Tuple

from repro.security.rsa import DEFAULT_KEY_BITS, RSAKeyPair, generate_keypair


class KeyStore:
    """Private keys for owned principals plus a public-key directory."""

    def __init__(self, key_bits: int = DEFAULT_KEY_BITS, seed: Optional[int] = None) -> None:
        self._key_bits = key_bits
        self._rng = random.Random(seed)
        self._private: Dict[str, RSAKeyPair] = {}
        self._public: Dict[str, Tuple[int, int]] = {}

    # -- key creation ---------------------------------------------------------

    @property
    def key_bits(self) -> int:
        return self._key_bits

    def create_keypair(self, principal: str) -> RSAKeyPair:
        """Generate (or return the existing) key pair for *principal*."""
        existing = self._private.get(principal)
        if existing is not None:
            return existing
        keypair = generate_keypair(self._key_bits, self._rng)
        self._private[principal] = keypair
        self._public[principal] = keypair.public_key
        return keypair

    def create_all(self, principals: Iterable[str]) -> None:
        for principal in principals:
            self.create_keypair(principal)

    # -- lookups --------------------------------------------------------------

    def private_key(self, principal: str) -> RSAKeyPair:
        try:
            return self._private[principal]
        except KeyError:
            raise KeyError(f"no private key for principal {principal!r}") from None

    def has_private_key(self, principal: str) -> bool:
        return principal in self._private

    def public_key(self, principal: str) -> Tuple[int, int]:
        try:
            return self._public[principal]
        except KeyError:
            raise KeyError(f"no public key known for principal {principal!r}") from None

    def has_public_key(self, principal: str) -> bool:
        return principal in self._public

    def register_public_key(self, principal: str, public_key: Tuple[int, int]) -> None:
        """Install another principal's public key (simulated key distribution)."""
        self._public[principal] = public_key

    def import_directory(self, other: "KeyStore") -> None:
        """Copy every public key known to *other* into this store."""
        for principal, public_key in other._public.items():
            self._public.setdefault(principal, public_key)

    def principals(self) -> Tuple[str, ...]:
        return tuple(self._public)
