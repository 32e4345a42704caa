"""Network provenance: the paper's core contribution.

This package implements the full taxonomy of Section 4:

* **provenance semirings** (:mod:`semiring`, :mod:`polynomial`) — derivations
  are annotated with polynomial expressions over base-tuple / principal
  variables, following Green et al.;
* **condensed provenance** (:mod:`polynomial`, :mod:`quantify`) — a tuple's
  annotation is its polynomial reduced by absorption to the minimal DNF
  (``a + a*b -> a``, :meth:`ProvenanceExpression.condense`), and a node
  accepts it when some derivation rests on trusted sources alone
  (:func:`acceptable`), Section 4.4.  The minimal DNF is the one canonical
  form: two expressions denote the same boolean function iff they condense
  to the same polynomial;
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
  expiry (a bounded hot tier over a write-through spill log), Section 4.2;
* **authenticated provenance**, Section 4.3, is signed where it is
  created: each admitted tuple keeps its wire message's signature in a
  :class:`~repro.security.authenticator.SignedEnvelope`, and authenticated
  queries have every responder sign its answer (:mod:`repro.net.query`);
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
    join_all,
    p_one,
    p_product,
    p_sum,
    p_var,
    p_zero,
)
from repro.provenance.graph import DerivationGraph, DerivationNode, OperatorNode
from repro.provenance.log import DerivationLog, ProvenancePointer
from repro.provenance.distributed import TracebackResult
from repro.provenance.store import OfflineProvenanceArchive
from repro.provenance.quantify import (
    acceptable,
    count_derivations,
    trust_level,
    vote_principals,
)
from repro.provenance.pruning import ASAggregator, ProvenanceSampler

__all__ = [
    "ASAggregator",
    "BOOLEAN",
    "COUNTING",
    "DerivationGraph",
    "DerivationLog",
    "DerivationNode",
    "OfflineProvenanceArchive",
    "OperatorNode",
    "ProvenanceExpression",
    "ProvenancePointer",
    "ProvenanceSampler",
    "Semiring",
    "TRUST",
    "TracebackResult",
    "TrustSemiring",
    "acceptable",
    "count_derivations",
    "join_all",
    "p_one",
    "p_product",
    "p_sum",
    "p_var",
    "p_zero",
    "trust_level",
    "vote_principals",
]
