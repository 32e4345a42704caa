"""Network provenance: the paper's core contribution.

This package implements the full taxonomy of Section 4:

* **provenance semirings** (:mod:`semiring`, :mod:`polynomial`) — derivations
  are annotated with polynomial expressions over base-tuple / principal
  variables, following Green et al.;
* **condensed provenance** (:mod:`bdd`, :mod:`condensed`) — polynomials are
  canonicalised through reduced ordered BDDs and minimised by absorption
  (``a + a*b -> a``), Section 4.4;
* **the derivation log** (:mod:`log`) — the one live per-node record: every
  rule firing appended once as a pointer, plus base keys, remote origins,
  tuple metadata and condensed annotations;
* **derivation graphs** (:mod:`graph`) — the explicit derivation trees of
  Figures 1 and 2, annotated with locations, rules, timestamps and ``says``
  principals: views built on read from the log or an archive;
* **local vs distributed provenance** (:mod:`log`, :mod:`distributed`) —
  the piggy-backed full tree versus per-node pointers reconstructed by a
  recursive traceback query, Section 4.1;
* **online vs offline provenance** (:mod:`log`, :mod:`store`) — the live log,
  which forgets retracted state, versus an append-only archive that survives
  expiry, Section 4.2;
* **authenticated provenance** (:mod:`authenticated`) — per-derivation-node
  signatures, Section 4.3;
* **quantifiable provenance** (:mod:`quantify`) — trust levels, counts and
  votes evaluated over provenance expressions, Section 4.5;
* **optimizations** (:mod:`pruning`) — sampling and AS-granularity
  aggregation, Section 5.
"""

from repro.provenance.semiring import (
    BOOLEAN,
    COUNTING,
    TRUST,
    Semiring,
    TrustSemiring,
)
from repro.provenance.polynomial import (
    ProvenanceExpression,
    p_one,
    p_product,
    p_sum,
    p_var,
    p_zero,
)
from repro.provenance.bdd import BDD, BDDManager
from repro.provenance.condensed import CondensedProvenance, condense_expression
from repro.provenance.graph import DerivationGraph, DerivationNode, OperatorNode
from repro.provenance.log import DerivationLog, ProvenancePointer
from repro.provenance.distributed import TracebackResult
from repro.provenance.store import OfflineProvenanceArchive
from repro.provenance.authenticated import (
    AuthenticatedProvenance,
    ProvenanceVerificationError,
)
from repro.provenance.quantify import (
    count_derivations,
    trust_level,
    vote_principals,
)
from repro.provenance.taxonomy import ProvenanceAxes, UseCase, recommend_provenance
from repro.provenance.pruning import ASAggregator, ProvenanceSampler

__all__ = [
    "ASAggregator",
    "AuthenticatedProvenance",
    "BDD",
    "BDDManager",
    "BOOLEAN",
    "COUNTING",
    "CondensedProvenance",
    "DerivationGraph",
    "DerivationLog",
    "DerivationNode",
    "OfflineProvenanceArchive",
    "OperatorNode",
    "ProvenanceAxes",
    "ProvenanceExpression",
    "ProvenancePointer",
    "ProvenanceSampler",
    "ProvenanceVerificationError",
    "Semiring",
    "TRUST",
    "TracebackResult",
    "TrustSemiring",
    "UseCase",
    "condense_expression",
    "count_derivations",
    "p_one",
    "p_product",
    "p_sum",
    "p_var",
    "p_zero",
    "recommend_provenance",
    "trust_level",
    "vote_principals",
]
