"""Tests for the security substrate: primes, RSA, keystore, says, authenticator."""

from __future__ import annotations

import random

import pytest

from repro.engine.node_engine import EngineConfig, NodeEngine, OutgoingFact
from repro.engine.tuples import Fact
from repro.security.authenticator import Authenticator, Seal, SignedEnvelope
from repro.security.keystore import KeyStore
from repro.security.primes import generate_prime, is_probable_prime
from repro.security.principal import Principal, PrincipalRegistry
from repro.security.rsa import generate_keypair, sign, verify
from repro.security.says import SEQUENCE_BYTES, SaysMode


class TestPrimes:
    def test_small_primes_recognised(self):
        for prime in (2, 3, 5, 7, 11, 13, 97, 101, 7919):
            assert is_probable_prime(prime)

    def test_small_composites_rejected(self):
        for composite in (1, 0, -7, 4, 9, 15, 91, 561, 7917):
            assert not is_probable_prime(composite)

    def test_carmichael_numbers_rejected(self):
        # Carmichael numbers fool Fermat's test but not Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(carmichael)

    def test_generated_prime_has_requested_bits(self):
        rng = random.Random(1)
        prime = generate_prime(64, rng)
        assert prime.bit_length() == 64
        assert is_probable_prime(prime)

    def test_generated_prime_is_odd(self):
        prime = generate_prime(32, random.Random(2))
        assert prime % 2 == 1

    def test_too_small_bit_size_rejected(self):
        with pytest.raises(ValueError):
            generate_prime(1)


class TestRSA:
    @pytest.fixture(scope="class")
    def keypair(self):
        return generate_keypair(bits=128, rng=random.Random(5))

    def test_sign_verify_round_trip(self, keypair):
        message = b"reachable(a,c)"
        signature = sign(message, keypair)
        assert verify(message, signature, keypair.public_key)

    def test_verify_rejects_modified_message(self, keypair):
        signature = sign(b"link(a,b)", keypair)
        assert not verify(b"link(a,c)", signature, keypair.public_key)

    def test_verify_rejects_modified_signature(self, keypair):
        signature = bytearray(sign(b"link(a,b)", keypair))
        signature[0] ^= 0xFF
        assert not verify(b"link(a,b)", bytes(signature), keypair.public_key)

    def test_verify_rejects_wrong_key(self, keypair):
        other = generate_keypair(bits=128, rng=random.Random(6))
        signature = sign(b"link(a,b)", keypair)
        assert not verify(b"link(a,b)", signature, other.public_key)

    def test_signature_has_fixed_size(self, keypair):
        assert len(sign(b"x", keypair)) == keypair.signature_bytes
        assert len(sign(b"a much longer message " * 10, keypair)) == keypair.signature_bytes

    def test_only_the_canonical_length_verifies(self, keypair):
        """Zero-padding a signature keeps its integer value, not its validity:
        otherwise one signature has many byte forms and replay detection
        cannot compare bytes."""
        signature = sign(b"link(a,b)", keypair)
        assert verify(b"link(a,b)", signature, keypair.public_key)
        assert not verify(b"link(a,b)", b"\x00" + signature, keypair.public_key)

    def test_oversized_signature_rejected_cleanly(self, keypair):
        bogus = (keypair.n + 1).to_bytes(keypair.signature_bytes + 2, "big")
        assert not verify(b"x", bogus, keypair.public_key)

    def test_key_generation_is_deterministic_in_seed(self):
        a = generate_keypair(bits=128, rng=random.Random(42))
        b = generate_keypair(bits=128, rng=random.Random(42))
        assert a.n == b.n and a.d == b.d

    def test_tiny_keys_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(bits=32)


class TestKeyStore:
    def test_create_and_lookup(self):
        store = KeyStore(key_bits=128, seed=1)
        keypair = store.create_keypair("alice")
        assert store.has_private_key("alice")
        assert store.public_key("alice") == keypair.public_key

    def test_create_is_idempotent(self):
        store = KeyStore(key_bits=128, seed=1)
        first = store.create_keypair("alice")
        second = store.create_keypair("alice")
        assert first is second

    def test_unknown_keys_raise(self):
        store = KeyStore(key_bits=128, seed=1)
        with pytest.raises(KeyError):
            store.private_key("nobody")
        with pytest.raises(KeyError):
            store.public_key("nobody")

    def test_register_public_key_only(self):
        store = KeyStore(key_bits=128, seed=1)
        other = KeyStore(key_bits=128, seed=2)
        keypair = other.create_keypair("bob")
        store.register_public_key("bob", keypair.public_key)
        assert store.has_public_key("bob")
        assert not store.has_private_key("bob")

    def test_import_directory(self):
        a = KeyStore(key_bits=128, seed=1)
        b = KeyStore(key_bits=128, seed=2)
        a.create_keypair("alice")
        b.import_directory(a)
        assert b.has_public_key("alice")

    def test_signature_bytes(self):
        """A signature is as long as its signer's modulus, which is what the
        wire model charges for it."""
        for bits, length in ((128, 16), (256, 32)):
            keypair = KeyStore(key_bits=bits).create_keypair("alice")
            assert keypair.signature_bytes == length
            assert len(sign(b"x", keypair)) == length


class TestPrincipals:
    def test_registry_assigns_default_level(self):
        registry = PrincipalRegistry(default_level=3)
        principal = registry.register("node1")
        assert principal.security_level == 3

    def test_register_with_explicit_level(self):
        registry = PrincipalRegistry()
        registry.register("trusted", security_level=5)
        assert registry.security_level("trusted") == 5

    def test_get_auto_registers(self):
        registry = PrincipalRegistry()
        assert registry.get("new").name == "new"
        assert "new" in registry

    def test_reregister_keeps_level_unless_overridden(self):
        registry = PrincipalRegistry()
        registry.register("a", security_level=4)
        registry.register("a")
        assert registry.security_level("a") == 4
        registry.register("a", security_level=1)
        assert registry.security_level("a") == 1

    def test_names_and_len(self):
        registry = PrincipalRegistry()
        registry.register_all(["a", "b"])
        assert set(registry.names()) == {"a", "b"}
        assert len(registry) == 2

    def test_principal_str(self):
        assert str(Principal("alice", 2)) == "alice"


class TestSaysMode:
    def test_requires_signature(self):
        # The two modes the evaluated configurations use.
        assert list(SaysMode) == [SaysMode.NONE, SaysMode.SIGNED]
        assert SaysMode.SIGNED.requires_signature
        assert not SaysMode.NONE.requires_signature

    def test_header_bytes_ordering(self):
        none = SaysMode.NONE.header_bytes("node1")
        signed = SaysMode.SIGNED.header_bytes("node1")
        assert none == 0
        # The principal name and the export sequence number; the signature
        # is the wire message's, charged once per message.
        assert signed == len("node1") + SEQUENCE_BYTES


class TestAuthenticator:
    @pytest.fixture(scope="class")
    def keystore(self):
        store = KeyStore(key_bits=128, seed=4)
        store.create_all(["a", "b"])
        return store

    def test_signed_export_import_round_trip(self, keystore):
        exporter = Authenticator("a", keystore, SaysMode.SIGNED)
        importer = Authenticator("b", keystore, SaysMode.SIGNED)
        fact = Fact("link", ("a", "b", 1.0))
        # Numbered when its message is sealed: the seal names the signer and
        # the first number, once.
        sealed = exporter.seal_batch([fact], "b")
        assert (sealed.principal, sealed.first) == ("a", 1)
        # Verified and fresh: the tuple's evidence comes back, for the engine
        # to store it with, attributed to the seal's principal.
        (envelope,) = importer.import_batch([(fact, None, None)], sealed)
        assert envelope == SignedEnvelope(1, sealed.signature, ())

    def test_import_rejects_missing_principal(self, keystore):
        importer = Authenticator("b", keystore, SaysMode.SIGNED)
        fact = Fact("link", ("a", "b", 1.0))
        # No seal, or a bare signature that names no principal.
        assert importer.import_batch([(fact, None, None)]) == [None]
        assert importer.import_batch([(fact, None, None)], b"x" * 16) == [None]

    def test_import_rejects_unknown_principal(self, keystore):
        importer = Authenticator("b", keystore, SaysMode.SIGNED)
        fact = Fact("link", ("a", "b", 1.0))
        assert importer.import_batch([(fact, None, None)], Seal("stranger", 1, b"x" * 16)) == [
            None
        ]

    def test_import_rejects_bad_signature(self, keystore):
        importer = Authenticator("b", keystore, SaysMode.SIGNED)
        fact = Fact("link", ("a", "b", 1.0))
        # The refusal is the None; the engine counts it on its report.
        assert importer.import_batch([(fact, None, None)], Seal("a", 1, b"\x01" * 16)) == [None]

    def test_none_mode_passthrough(self, keystore, compiled_best_path):
        # Without ``says`` nothing is authenticated: the receiving engine
        # stores the very tuple that arrived, unattributed.
        config = EngineConfig(says_mode=SaysMode.NONE)
        receiver = NodeEngine("b", compiled_best_path, config, keystore)
        fact = Fact("link", ("a", "b", 1.0))
        report = receiver.receive_batch([((OutgoingFact("b", fact),), None)], 0.0).report
        assert (report.facts_verified, report.facts_rejected) == (0, 0)
        (stored,) = receiver.facts("link")
        assert stored is fact and stored.asserted_by is None

    def test_a_seal_charges_its_envelope_once(self, keystore):
        exporter = Authenticator("a", keystore, SaysMode.SIGNED)
        facts = [Fact("link", ("a", node, 1.0)) for node in "bcd"]
        sealed = exporter.seal_batch(facts, "b")
        # One principal, one 8-byte first number and one signature for the
        # whole message: what one tuple alone would pay.
        assert sealed.wire_bytes() == len(b"a") + SEQUENCE_BYTES + len(sealed.signature)
        assert sealed.wire_bytes() == exporter.seal_batch(facts[:1], "b").wire_bytes()
        # The next message numbers on from the last tuple of this one.
        assert (sealed.first, exporter.seal_batch(facts, "c").first) == (1, 5)
