"""Authenticated provenance (Section 4.3).

In an untrusted environment the provenance itself must be authenticated:
every node of the derivation tree is asserted by a principal using ``says``,
and carries that principal's digital signature so a querier can validate that
the provenance was not spoofed.  This module wraps a derivation graph with
per-node signatures and implements chain verification.  (The condensed
annotation piggy-backed on a shipped tuple is part of that tuple's Merkle leaf,
covered by its wire message's one signature and stored in its
:class:`~repro.security.authenticator.SignedEnvelope` — not signed here.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.engine.tuples import FactKey
from repro.provenance.graph import DerivationGraph, DerivationNode, OperatorNode
from repro.security.keystore import KeyStore
from repro.security.rsa import sign, verify


class ProvenanceVerificationError(Exception):
    """Raised when an authenticated provenance graph fails verification."""


def _assertion_payload(node: DerivationNode) -> bytes:
    """Canonical bytes a principal signs when asserting a provenance node."""
    rendered = ",".join(str(v) for v in node.values)
    return (
        f"{node.asserted_by or ''}|{node.relation}({rendered})|{node.location or ''}"
    ).encode("utf-8")


def _operator_payload(operator: OperatorNode) -> bytes:
    inputs = ";".join(f"{k[0]}{k[1]}" for k in operator.inputs)
    return (
        f"{operator.rule_label}|{operator.location or ''}|"
        f"{operator.output[0]}{operator.output[1]}|{inputs}"
    ).encode("utf-8")


@dataclass
class AuthenticatedProvenance:
    """A derivation graph whose nodes carry principal signatures.

    ``signatures`` maps a tuple key to the signature produced by the
    asserting principal; ``operator_signatures`` maps the index of each
    operator node to the signature of the principal in whose context the rule
    executed.
    """

    graph: DerivationGraph
    signatures: Dict[FactKey, bytes] = field(default_factory=dict)
    operator_signatures: Dict[int, bytes] = field(default_factory=dict)

    # -- signing ---------------------------------------------------------------

    @classmethod
    def sign_graph(cls, graph: DerivationGraph, keystore: KeyStore) -> "AuthenticatedProvenance":
        """Sign every node of *graph* with its asserting principal's key.

        Tuple nodes without an asserting principal are signed by their
        location's principal (the node that holds them); operator nodes by
        the principal at whose context the rule fired.
        """
        result = cls(graph=graph)
        for node in graph.tuple_nodes():
            principal = node.asserted_by or node.location
            if principal is None or not keystore.has_private_key(principal):
                continue
            result.signatures[node.key] = sign(
                _assertion_payload(node), keystore.private_key(principal)
            )
        for index, operator in enumerate(graph.operators()):
            principal = operator.location
            if principal is None or not keystore.has_private_key(principal):
                continue
            result.operator_signatures[index] = sign(
                _operator_payload(operator), keystore.private_key(principal)
            )
        return result

    # -- verification ------------------------------------------------------------

    def verify(self, keystore: KeyStore, require_complete: bool = True) -> bool:
        """Verify every signature in the graph.

        Raises :class:`ProvenanceVerificationError` on any invalid signature;
        with ``require_complete`` it also fails when a node that names a
        principal has no signature at all (a stripped provenance chain).
        """
        for node in self.graph.tuple_nodes():
            principal = node.asserted_by or node.location
            signature = self.signatures.get(node.key)
            if signature is None:
                if require_complete and principal is not None:
                    raise ProvenanceVerificationError(
                        f"provenance node {node.label()} is unsigned"
                    )
                continue
            if principal is None or not keystore.has_public_key(principal):
                raise ProvenanceVerificationError(
                    f"no public key to verify provenance node {node.label()}"
                )
            if not verify(
                _assertion_payload(node), signature, keystore.public_key(principal)
            ):
                raise ProvenanceVerificationError(
                    f"signature check failed for provenance node {node.label()}"
                )

        for index, operator in enumerate(self.graph.operators()):
            signature = self.operator_signatures.get(index)
            if signature is None:
                if require_complete and operator.location is not None:
                    raise ProvenanceVerificationError(
                        f"operator node {operator.label()} is unsigned"
                    )
                continue
            principal = operator.location
            if principal is None or not keystore.has_public_key(principal):
                raise ProvenanceVerificationError(
                    f"no public key to verify operator node {operator.label()}"
                )
            if not verify(
                _operator_payload(operator), signature, keystore.public_key(principal)
            ):
                raise ProvenanceVerificationError(
                    f"signature check failed for operator node {operator.label()}"
                )
        return True

    def signature_overhead_bytes(self) -> int:
        """Total bytes of signatures attached to this provenance graph."""
        return sum(len(s) for s in self.signatures.values()) + sum(
            len(s) for s in self.operator_signatures.values()
        )

    def tamper_with_node(self, key: FactKey, forged_signature: bytes) -> None:
        """Replace a node's signature (used by tests to exercise detection)."""
        self.signatures[key] = forged_signature
