"""Textbook RSA signatures over SHA-256 digests.

This stands in for the OpenSSL RSA signing used by the paper's modified P2
system.  Signatures are computed as ``digest ** d mod n`` and verified as
``signature ** e mod n == digest``; digests are SHA-256 (via :mod:`hashlib`)
reduced modulo *n*.  Key sizes are configurable so that tests run with small
fast keys while examples can use larger ones.

This is *simulation-grade* cryptography: it exercises the same code path and
cost structure (modular exponentiations, constant-size signatures added to
each signed message) as the paper's implementation, but no padding scheme is
applied and it must not be used to protect real data.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.security.primes import DEFAULT_SEED, generate_prime

DEFAULT_KEY_BITS = 512
DEFAULT_PUBLIC_EXPONENT = 65537
#: The smallest modulus :func:`generate_keypair` makes: below it a SHA-256
#: digest reduced modulo *n* keeps too few bits to bind a message.
MIN_KEY_BITS = 64


@dataclass(frozen=True)
class RSAKeyPair:
    """An RSA key pair.

    ``n`` and ``e`` form the public key, ``d`` the private exponent.
    ``signature_bytes`` is the one length a signature under this key has —
    the byte length of the modulus — which the bandwidth model charges per
    signed wire message and :func:`verify` insists on.

    ``dp``, ``dq`` and ``qinv`` are the precomputed CRT parameters
    (``d mod p-1``, ``d mod q-1``, ``q^-1 mod p``); when present, signing
    uses the Chinese-Remainder shortcut, producing byte-identical signatures
    with two half-size modular exponentiations instead of one full-size one.
    They are optional so externally constructed ``(n, e, d)`` keys keep
    working through the plain path.
    """

    n: int
    e: int
    d: int
    bits: int
    p: Optional[int] = None
    q: Optional[int] = None
    dp: Optional[int] = None
    dq: Optional[int] = None
    qinv: Optional[int] = None

    @property
    def public_key(self) -> Tuple[int, int]:
        return (self.n, self.e)

    @property
    def signature_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8


def _egcd(a: int, b: int) -> Tuple[int, int, int]:
    if a == 0:
        return (b, 0, 1)
    g, y, x = _egcd(b % a, a)
    return (g, x - (b // a) * y, y)


def _modinv(a: int, modulus: int) -> int:
    g, x, _ = _egcd(a % modulus, modulus)
    if g != 1:
        raise ValueError("modular inverse does not exist")
    return x % modulus


def generate_keypair(
    bits: int = DEFAULT_KEY_BITS,
    rng: Optional[random.Random] = None,
    public_exponent: int = DEFAULT_PUBLIC_EXPONENT,
) -> RSAKeyPair:
    """Generate an RSA key pair with a modulus of roughly *bits* bits."""
    if bits < MIN_KEY_BITS:
        raise ValueError(
            f"key size below {MIN_KEY_BITS} bits cannot hold a SHA-256-derived "
            "digest securely"
        )
    rng = rng or random.Random(DEFAULT_SEED)
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        if phi % public_exponent == 0:
            continue
        try:
            d = _modinv(public_exponent, phi)
        except ValueError:
            continue
        return RSAKeyPair(
            n=n,
            e=public_exponent,
            d=d,
            bits=bits,
            p=p,
            q=q,
            dp=d % (p - 1),
            dq=d % (q - 1),
            qinv=_modinv(q, p),
        )


def _digest(message: bytes, n: int) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % n


def sign(message: bytes, key: RSAKeyPair) -> bytes:
    """Sign *message* with the private exponent of *key*."""
    digest = _digest(message, key.n)
    if key.qinv is not None:
        # CRT shortcut: identical output, two half-size exponentiations.
        m1 = pow(digest % key.p, key.dp, key.p)
        m2 = pow(digest % key.q, key.dq, key.q)
        signature = m2 + ((m1 - m2) * key.qinv % key.p) * key.q
    else:
        signature = pow(digest, key.d, key.n)
    return signature.to_bytes(key.signature_bytes, "big")


def verify(message: bytes, signature: bytes, public_key: Tuple[int, int]) -> bool:
    """Verify a signature produced by :func:`sign` against ``(n, e)``.

    A signature has exactly the modulus's byte length: without that, padding
    a valid signature with zero bytes yields other byte strings that verify,
    and "the same signature seen twice" could not be decided on bytes.
    """
    n, e = public_key
    if len(signature) != (n.bit_length() + 7) // 8:
        return False
    value = int.from_bytes(signature, "big")
    if value >= n:
        return False
    recovered = pow(value, e, n)
    return recovered == _digest(message, n)
