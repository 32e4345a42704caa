"""The per-node engine: one simulated P2 process.

A :class:`NodeEngine` owns one node's soft-state database, evaluates the
compiled NDlog/SeNDlog program whenever a new tuple arrives (from the local
application or from the network), authenticates imported/exported tuples
according to the configured ``says`` mode, and maintains whichever kinds of
provenance the configuration asks for.

The engine is deliberately independent of the simulator: processing a delta
returns the list of tuples to ship plus a :class:`ProcessingReport` of
operation counters, and the simulator's cost model converts those counters
into simulated CPU time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.datalog.planner import CompiledProgram, RulePlan
from repro.engine.aggregates import AggregateState
from repro.engine.database import Database
from repro.engine.seminaive import (
    BoundStrand,
    RuleFiring,
    bind_strand,
    evaluate_plan_with_delta,
)
from repro.engine.table import Table
from repro.engine.tuples import Fact, FactKey
from repro.provenance.log import DerivationLog
from repro.provenance.polynomial import (
    BaseVariables,
    ProvenanceExpression,
    flat_values,
    from_position_mask,
    from_support_code,
    join_all,
    position_mask,
    support_code,
)
from repro.provenance.pruning import ProvenanceSampler
from repro.provenance.store import OfflineProvenanceArchive
from repro.security.authenticator import (
    AuthenticationError,
    Authenticator,
    Carried,
    Seal,
)
from repro.security.keystore import KeyStore
from repro.security.principal import PrincipalRegistry
from repro.security.says import SaysMode


class ProvenanceMode(Enum):
    """Which provenance representation a node maintains and ships."""

    #: No provenance at all (plain NDlog / SeNDlog configurations).
    NONE = "none"
    #: Condensed (absorption-minimal) annotations piggy-backed on shipped tuples.
    CONDENSED = "condensed"
    #: Pointers stored per node, nothing shipped (distributed provenance).
    DISTRIBUTED = "distributed"

    @property
    def maintains_provenance(self) -> bool:
        return self is not ProvenanceMode.NONE

    @property
    def ships_provenance(self) -> bool:
        return self is ProvenanceMode.CONDENSED


@dataclass
class EngineConfig:
    """Configuration of one node engine.

    The three configurations evaluated in Section 6 map to:

    * NDlog          — ``says_mode=NONE``,   ``provenance_mode=NONE``
    * SeNDlog        — ``says_mode=SIGNED``, ``provenance_mode=NONE``
    * SeNDlogProv    — ``says_mode=SIGNED``, ``provenance_mode=CONDENSED``
    """

    says_mode: SaysMode = SaysMode.NONE
    provenance_mode: ProvenanceMode = ProvenanceMode.NONE
    sampler: Optional[ProvenanceSampler] = None
    keep_offline_provenance: bool = False
    #: Offline-archive hot-tier capacity in archived entries: an LRU cache
    #: of whole per-key entry groups over the write-through spill log (see
    #: provenance/store.py).
    hot_tier_entries: int = 256
    #: Directory for the archive's per-node spill log files; ``None`` keeps
    #: the log in process memory, so the run writes no file.
    spill_dir: Optional[str] = None
    default_ttl: Optional[float] = None
    #: Maintain the antecedent -> derived-tuple index that lets
    #: :meth:`NodeEngine.retract_base` cascade invalidation through local
    #: derivations.  Off by default: it costs a dict update per antecedent
    #: per firing, and the static evaluation sweeps never retract.
    track_dependencies: bool = False
    #: One-fixpoint deletions: maintain a base-support polynomial (a
    #: semiring annotation over *base tuple keys*) per stored/exported
    #: tuple, so :meth:`NodeEngine.retract_base` can decide survival
    #: exactly — a tuple survives iff a monomial free of the retracted
    #: base remains — instead of over-deleting and waiting for TTL decay.
    #: Exported facts ship their polynomial; remote copies are chased with
    #: anti-deltas carrying the retracted base keys.
    rederivation: bool = False

    def __post_init__(self) -> None:
        if self.default_ttl is not None and self.default_ttl <= 0:
            raise ValueError(f"default_ttl must be positive, got {self.default_ttl}")
        if self.hot_tier_entries < 1:
            raise ValueError(
                f"hot_tier_entries must be >= 1, got {self.hot_tier_entries}"
            )
        if self.spill_dir is not None and not self.spill_dir:
            raise ValueError("spill_dir must be a non-empty directory path")


@dataclass(slots=True)
class ProcessingReport:
    """Operation counters produced while processing one delta."""

    facts_received: int = 0
    facts_verified: int = 0
    verification_failures: int = 0
    facts_rejected: int = 0
    #: Signatures made and checked: one per signed wire message (the kernel
    #: counts those it seals) and one per anti-delta.
    signatures_created: int = 0
    signatures_verified: int = 0
    facts_inserted: int = 0
    facts_derived: int = 0
    facts_retracted: int = 0
    #: Tuples that *survived* a retraction pass because a surviving
    #: alternative derivation exists (their base-support polynomial stayed
    #: nonzero after pruning the retracted base).
    rederivations: int = 0
    rule_firings: int = 0
    payload_bytes_processed: int = 0
    provenance_annotations: int = 0
    provenance_bytes_computed: int = 0


@dataclass(eq=False, slots=True)
class OutgoingFact:
    """A derived tuple that must be shipped to another node: one item of the
    data wire message (:class:`~repro.net.message.MessageBatch`), with the
    provenance annotation bytes it adds.  Under signed ``says`` the message
    that carries it names and numbers it: the tuple itself is unattributed.

    The item, not the tuple, holds the wire forms of what rides with it:
    ``mask``, the position mask an annotation its own payload names travels
    as (:func:`~repro.provenance.polynomial.position_mask`), and ``code``,
    the support code of its base-support polynomial
    (:func:`~repro.provenance.polynomial.support_code`).  The receiver
    rebuilds the annotation and the support from them and the payload and
    never reads the sender's ``provenance`` or ``support``; an item without
    one has its tuple's field travel explicitly."""

    destination: str
    fact: Fact
    provenance_bytes: int = 0
    mask: Optional[int] = None
    code: Optional[bytes] = None

    def __reduce__(self):
        """Pickle as the constructor call over the fields, as a fact does:
        shard frames carry every item that crosses a shard boundary."""
        return (
            OutgoingFact,
            (self.destination, self.fact, self.provenance_bytes, self.mask, self.code),
        )


@dataclass(slots=True)
class ProcessingResult:
    """Everything one call to :meth:`NodeEngine.process` produced."""

    outgoing: List[OutgoingFact] = field(default_factory=list)
    report: ProcessingReport = field(default_factory=ProcessingReport)
    #: Anti-delta fanout produced by a retraction pass: destination address
    #: -> retracted base keys that destination must be told about (it holds
    #: tuples whose shipped support polynomial mentions them).  Empty except
    #: under ``rederivation=True``.
    anti_deltas: Dict[str, List[FactKey]] = field(default_factory=dict)


def facts_by_node(
    engines: Dict[str, "NodeEngine"], relation: str
) -> Dict[str, Tuple[Fact, ...]]:
    """All stored facts of *relation*, per node — the one snapshot helper
    behind every result object's ``facts()``."""
    return {
        address: engine.facts(relation) for address, engine in engines.items()
    }


def collect_facts(
    engines: Dict[str, "NodeEngine"], relation: str
) -> Tuple[Fact, ...]:
    """All stored facts of *relation* across *engines*, in node order."""
    collected: List[Fact] = []
    for engine in engines.values():
        collected.extend(engine.facts(relation))
    return tuple(collected)


def group_outgoing(outgoing: List[OutgoingFact]) -> Dict[str, List[OutgoingFact]]:
    """Group one delta round's outgoing tuples by destination.

    Destinations appear in first-send order and each group preserves the
    engine's FIFO derivation order, so batching the groups onto the wire
    keeps per-destination delivery order identical to the per-tuple format.
    """
    grouped: Dict[str, List[OutgoingFact]] = {}
    for item in outgoing:
        bucket = grouped.get(item.destination)
        if bucket is None:
            grouped[item.destination] = [item]
        else:
            bucket.append(item)
    return grouped


#: What a receive round made of one arrived tuple before admitting it:
#: ``None`` (refused), the arrived tuple (stored as it arrived), or what it
#: carried with its principal and evidence (:meth:`NodeEngine._admitted`).
Verdict = Union[None, Fact, Tuple[Carried, Optional[str], object]]


class NodeEngine:
    """One simulated declarative-networking node."""

    def __init__(
        self,
        address: str,
        compiled: CompiledProgram,
        config: EngineConfig,
        keystore: Optional[KeyStore] = None,
        registry: Optional[PrincipalRegistry] = None,
    ) -> None:
        self.address = address
        self.compiled = compiled
        self.config = config
        self.keystore = keystore or KeyStore()
        self.registry = registry or PrincipalRegistry()
        self.registry.register(address)

        from repro.datalog.catalog import Catalog

        catalog = Catalog.from_program(compiled.program)
        self.database = Database(catalog)
        #: Support variables both ways, and the catalog's relations as a
        #: support code names them (read only under ``rederivation``).
        self._bases = BaseVariables(
            {name: catalog.schema(name).arity for name in catalog}
        )
        #: Relation -> its strand bound to this node's tables, filled by
        #: :meth:`_drain` on the relation's first delta.
        self._strands: Dict[str, BoundStrand] = {}
        self.authenticator = Authenticator(address, self.keystore, config.says_mode)
        self.aggregates: Dict[str, AggregateState] = {}
        self._ttl_cache: Dict[str, Optional[float]] = {}
        # Per-firing hot-path flags, hoisted out of the enum properties.
        #: Signed ``says``: local tuples are attributed, imports verified (the
        #: kernel seals what this node exports; the other mode attributes
        #: nothing).
        self._signed = config.says_mode.requires_signature
        self._maintains_provenance = config.provenance_mode.maintains_provenance
        self._ships_provenance = config.provenance_mode.ships_provenance
        self._track_dependencies = config.track_dependencies
        self._rederivation = config.rederivation
        #: Antecedent tuples feed provenance recording, retraction dependency
        #: tracking and base-support polynomials; configurations needing none
        #: of those skip accumulating them in the join loops entirely.
        self._collect_antecedents = (
            self._maintains_provenance
            or self._track_dependencies
            or self._rederivation
        )
        self._records_derivations = (
            self._maintains_provenance or self._track_dependencies
        )
        #: One-fixpoint deletion state (``rederivation=True`` only).
        #: Base-support polynomial per stored/exported tuple key — a sum of
        #: monomials, each a conjunction of *rendered base tuple keys* that
        #: suffices to derive the tuple.
        self._support: Dict[FactKey, ProvenanceExpression] = {}
        #: Reverse index: rendered base key -> tuple keys whose polynomial
        #: mentions it (insertion-ordered; entries may go stale when a merge
        #: drops a variable and are re-checked against the live polynomial).
        self._base_uses: Dict[str, Dict[FactKey, None]] = {}
        #: Rendered base keys known retracted.  Dedups anti-delta floods
        #: (monotone per epoch, so the flood terminates) and prunes stale
        #: in-flight support; re-inserting a base clears its mark.
        self._dead_bases: Set[str] = set()
        #: Rendered base key -> destinations that received an exported tuple
        #: whose polynomial mentions it — the anti-delta fanout targets.
        self._export_dests: Dict[str, Dict[str, None]] = {}
        #: Aggregate-head relations: predicate -> (aggregate state key, head
        #: plan) per rule, used to forget groups when their stored tuple is
        #: retracted or expires (so a refreshed, possibly worse, contribution
        #: can re-establish the group instead of being rejected forever).
        self._aggregate_heads: Dict[str, List[Tuple[str, object]]] = {}
        self._index_aggregate_heads()

        #: The live derivation log: every firing recorded once, read by the
        #: graph, pointer, annotation and dependency views.  Invalidated on
        #: retraction and replaced on a crash; the archive below is the
        #: append-only copy that outlives both.
        self.provenance = DerivationLog(
            address, config.track_dependencies, self.registry.pairs
        )
        self.offline_provenance = OfflineProvenanceArchive(
            address,
            hot_entries=config.hot_tier_entries,
            spill_dir=config.spill_dir,
        )
        #: Monotonic generation counter of this node's provenance log,
        #: bumped on every mutation (base/derivation/remote recording,
        #: invalidation cascades, crash resets).  The service plane's query
        #: result cache tags each memoized closure with the epoch it was
        #: computed under and discards entries the moment the epoch moves,
        #: which is what guarantees a cached traceback is structurally
        #: identical to a cold walk at the same simulated instant.
        self.provenance_epoch = 0

    def _index_aggregate_heads(self) -> None:
        """(Re)build the aggregate-head index and the table expiry hooks."""
        self._aggregate_heads.clear()
        for plan in self.compiled.plans:
            if plan.head.aggregate is not None:
                self._aggregate_heads.setdefault(plan.head.predicate, []).append(
                    (plan.aggregate_key, plan.head)
                )
        for relation, entries in self._aggregate_heads.items():
            _, head = entries[0]
            table = self.database.table(relation, arity=len(head.atom.terms))
            table.on_expire = self._forget_expired_aggregates

    # -- pickling ----------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Ship an engine without its compiled program.

        The compiled plans carry their generated join functions, which
        cannot — and need not — cross a process boundary: every forked
        worker inherits the coordinator's own compiled program.  The
        aggregate-head index and the bound strands hold references into
        those plans, so they are dropped too; :meth:`attach_program` restores
        the first and :meth:`_drain` rebinds the second.
        """
        state = self.__dict__.copy()
        state["compiled"] = None
        state["_aggregate_heads"] = {}
        state["_strands"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def attach_program(self, compiled: CompiledProgram) -> None:
        """Reattach the compiled program after unpickling.

        The program must compile from the same source the engine ran with;
        plans are looked up by structure (head predicates, aggregate keys),
        so any equivalent compilation restores identical behavior.
        """
        self.compiled = compiled
        self._strands.clear()
        self._index_aggregate_heads()

    # -- public entry points ----------------------------------------------------

    def insert_base(self, fact: "Fact | FactKey", now: float = 0.0) -> ProcessingResult:
        """Insert a base (application-provided) fact at this node.

        *fact* is a :class:`Fact`, whose TTL, principal and annotation are
        kept, or its ``(relation, values)`` key, which carries none; either
        way the engine builds the one fact it stores, stamped with *now*,
        the TTL and this node as its origin.
        """
        result = ProcessingResult()
        prepared = self._attribute_local(fact, now)
        self._record_base(prepared)
        self._process_local(prepared, now, result)
        return result

    def receive_batch(
        self,
        messages: Iterable[Tuple[Sequence[OutgoingFact], Optional[Seal]]],
        now: float,
    ) -> ProcessingResult:
        """Process one receive round: the items of one or more wire messages.

        *messages* are ``(items, seal)`` pairs in arrival order — one
        delivered message, or every message a busy node queued until it
        freed.  Each item's mask and code are rebuilt against its tuple's
        payload first (:meth:`_resolve`).  Under signed ``says`` each
        message's *seal* names its signer, numbers its tuples and signs the
        Merkle root of their leaves, built from the rebuilt annotations and
        supports: it is checked once per message, and a root that fails
        refuses that message's tuples only
        (:meth:`~repro.security.authenticator.Authenticator.import_batch`).
        Each tuple admitted is built once, with its attribution, evidence,
        annotation and support, right before :meth:`_admit` admits it
        (:meth:`_admitted`); an unsigned tuple with nothing to rebuild is
        admitted as it arrived.  Then every tuple of the round is
        admitted and locally fixpointed strictly in arrival order
        (:meth:`_process_local`: its whole delta fixpoint runs before the
        next tuple is stored), sharing one :class:`ProcessingResult` /
        :class:`ProcessingReport` — so the round ships one message per
        destination.  A per-tuple wire message is a batch of one.

        The caller accounts the merged report once; the cost model is linear
        in its counters, so the charge equals the sum over the tuples.
        Every tuple of the round is stamped with the same *now* (the round's
        start), not advanced by its predecessors' accrued CPU.
        """
        result = ProcessingResult()
        arrived: List[Fact] = []
        verdicts: List[Verdict] = []
        for items, seal in messages:
            facts = [item.fact for item in items]
            arrived.extend(facts)
            if not self._signed:
                for item, fact in zip(items, facts):
                    if item.mask is None and item.code is None:
                        verdicts.append(fact)
                        continue
                    carried = self._resolve(item)
                    verdicts.append(
                        None
                        if carried is None
                        else (carried, fact.asserted_by, fact.signature)
                    )
                continue
            resolved = [self._resolve(item) for item in items]
            if None in resolved:
                # A mask or code nothing rebuilds from leaves no leaf to check:
                # the message's root cannot verify, so none of it is admitted.
                verdicts.extend([None] * len(items))
            else:
                envelopes = self.authenticator.import_batch(resolved, seal)
                verdicts.extend(
                    None if envelope is None else (carried, seal.principal, envelope)
                    for carried, envelope in zip(resolved, envelopes)
                )
            if items:
                result.report.signatures_verified += 1
        for fact, verdict in zip(arrived, verdicts):
            if type(verdict) is tuple:
                verdict = self._admitted(*verdict)
            verified = self._admit(fact, verdict, result)
            if verified is not None:
                self._process_local(verified, now, result)
        # Variables decoded for tuples the round did not store are dropped.
        self._bases.fresh.clear()
        return result

    def retract_base(self, fact: Fact, now: float = 0.0) -> ProcessingResult:
        """Withdraw a base fact, cascading invalidation through local state.

        Under ``rederivation=True`` this is the full DRed story in one pass:
        the retracted base is pruned out of every affected base-support
        polynomial (via the reverse index — no transitive search), tuples
        whose polynomial survives stay put (counted as ``rederivations``),
        tuples whose polynomial zeroes out are deleted, and the result's
        ``anti_deltas`` name every destination that must be told (it holds
        exported tuples whose shipped polynomial mentions the base).  The
        caller ships those as :class:`~repro.net.message.AntiDelta` wire
        messages; receivers run :meth:`retract_remote`, so a retraction
        converges in a single distributed fixpoint.

        Without rederivation only the over-deleting half runs: the stored
        tuple is deleted and — when ``track_dependencies`` is on — every
        locally derived tuple transitively supported by it.  Nothing is
        shipped; remote copies decay through soft-state expiry and are
        repaired by refresh traffic, the paper's original dynamic-network
        story.

        Either way, aggregate groups of deleted aggregate-head tuples are
        forgotten so refreshed (possibly worse) alternatives can
        re-establish them, and the queryable provenance stores stop
        vouching for every invalidated tuple; the offline archive
        deliberately keeps the historical record for forensics.
        """
        if self._rederivation:
            result = ProcessingResult()
            self._apply_dead_bases((fact.key(),), now, result)
            return result
        result = ProcessingResult()
        queue: Deque[FactKey] = deque((fact.key(),))
        seen: Set[FactKey] = {fact.key()}
        swept: Set[str] = set()
        while queue:
            key = queue.popleft()
            relation, values = key
            table = self.database.table(relation, arity=len(values))
            # Expiry first (once per relation — idempotent at fixed *now*):
            # a tuple whose TTL already elapsed ceased to exist on its own —
            # it must neither count as retraction work nor be charged CPU,
            # though its provenance is still invalidated below and its
            # dependents still cascade.
            if relation not in swept:
                swept.add(relation)
                table.expire(now)
            current = table.get_by_values(values)
            if current is not None:
                table.delete(current)
                result.report.facts_retracted += 1
                self._forget_aggregate_groups(relation, values)
            self._invalidate_provenance(key)
            for dependent in self.provenance.pop_dependents(key):
                if dependent not in seen:
                    seen.add(dependent)
                    queue.append(dependent)
        return result

    def retract_remote(
        self,
        keys: Tuple[FactKey, ...],
        now: float,
        source: Optional[str] = None,
        sequence: int = 0,
        signature: Optional[bytes] = None,
    ) -> ProcessingResult:
        """Process an anti-delta: base keys retracted somewhere upstream.

        Runs the same polynomial-pruning pass as a local retraction and
        cascades: the result's ``anti_deltas`` carry the keys onward to any
        destination *this* node exported affected tuples to.  The per-node
        dead-base set dedups re-deliveries, so the flood over the export
        graph terminates even on cyclic topologies.

        Under signed ``says`` the anti-delta is opened first (*signature* is
        *source*'s over these keys, this node and a message *sequence* not
        seen before); one that fails prunes nothing and is counted rejected.
        """
        result = ProcessingResult()
        if self._signed:
            result.report.signatures_verified += 1
            try:
                self.authenticator.open_anti_delta(keys, source, sequence, signature)
            except AuthenticationError:
                result.report.verification_failures += 1
                result.report.facts_rejected += 1
                return result
            result.report.facts_verified += 1
        self._apply_dead_bases(keys, now, result)
        return result

    def settle_retractions(self) -> None:
        """End-of-fixpoint bookkeeping for one-fixpoint deletions.

        The dead-base set exists to catch in-flight facts racing an
        anti-delta flood: while the deletion fixpoint is running, an
        arriving polynomial mentioning a dead base describes a derivation
        that no longer exists and is pruned (:meth:`_merge_incoming_support`).
        Once the network is quiescent nothing is in flight, and *keeping*
        the marks would make a later re-assertion of the same base — a link
        flap restored, a recovered node re-injecting — look dead on
        arrival.  The kernel calls this when its scheduler drains (both
        backends, at the same logical instant), so the marks live exactly
        as long as the fixpoint they guard.
        """
        self._dead_bases.clear()

    def reset_state(self) -> None:
        """Crash semantics: lose all runtime state.

        Database tables, aggregate state and the live derivation log (with
        its dependency index) are wiped; the offline provenance
        archive — modelling a persistent log — survives the crash, which is
        what makes post-mortem forensics of a failed node possible.  The
        crash costs the archive exactly its volatile hot tier: the spill
        log persists and every entry stays answerable offline.
        """
        for table in self.database.tables():
            table.clear()
        self.aggregates.clear()
        self._support.clear()
        self._base_uses.clear()
        self._dead_bases.clear()
        self._export_dests.clear()
        self._bases.clear()
        self.provenance_epoch += 1
        self.provenance = DerivationLog(
            self.address, self._track_dependencies, self.registry.pairs
        )
        self.offline_provenance.drop_cache()

    # -- queries -----------------------------------------------------------------

    def facts(self, relation: str) -> Tuple[Fact, ...]:
        return self.database.facts(relation)

    def provenance_of(self, fact: Fact) -> ProvenanceExpression:
        """Condensed provenance annotation of a locally stored fact."""
        return self.provenance.annotation(fact.key())

    # -- internals ----------------------------------------------------------------

    def _admit(
        self, fact: Fact, verified: Optional[Fact], result: ProcessingResult
    ) -> Optional[Fact]:
        """Admit one received tuple and record its provenance.

        *verified* is what :meth:`receive_batch` made of the arrived *fact*:
        the tuple to store (under signed ``says``, attributed and carrying
        its evidence), or ``None`` when it was refused.  Returns the fact
        ready for local processing, or ``None`` when it was refused or its
        arity is not its relation's (the rejection counters are recorded on
        *result* either way).  Under
        signed ``says`` the message's one signature covers the annotation and
        the support polynomial recorded below too.
        """
        result.report.facts_received += 1
        result.report.payload_bytes_processed += fact.payload_size()
        if verified is None:
            if self._signed:
                result.report.verification_failures += 1
            result.report.facts_rejected += 1
            return None
        if self._signed:
            result.report.facts_verified += 1

        # A tuple shaped unlike its relation would index past its end in the
        # key getter, or replace the genuine row it shares key columns with.
        if len(verified.values) != self._table_for(verified).schema.arity:
            result.report.facts_rejected += 1
            return None

        # Sampled provenance (Section 5): received tuples obey the same
        # sampler as base facts and local derivations — verification above
        # is a security decision and is never sampled away.
        if self._maintains_provenance and self._should_record(verified.key()):
            self._record_remote_provenance(verified)
        if self._rederivation and not self._merge_incoming_support(verified):
            # Every derivation the sender knew for this tuple rested on a
            # base this node already saw retracted: the fact was in flight
            # when the anti-delta overtook it, and storing it would revive
            # state the deletion fixpoint just cleaned up.
            return None
        return verified

    def _admitted(
        self, carried: Carried, asserted_by: Optional[str], signature: object
    ) -> Fact:
        """The tuple a receiver stores for *carried*, verified: the arrived
        tuple's payload with the annotation and support it carried,
        attributed and evidenced as given — built once, right before
        :meth:`_admit` checks its shape.  Its annotation is the log's shared
        copy (:meth:`DerivationLog.share`), taken only when that check will
        pass: a refused tuple leaves nothing in the log."""
        fact, provenance, support = carried
        if (
            provenance is not None
            and self._maintains_provenance
            and len(fact.values) == self._table_for(fact).schema.arity
        ):
            provenance = self.provenance.share(provenance)
        return Fact(
            fact.relation,
            fact.values,
            fact.timestamp,
            fact.ttl,
            asserted_by,
            signature,
            provenance,
            fact.origin,
            support,
        )

    def _resolve(self, item: OutgoingFact) -> Optional[Carried]:
        """What *item*'s tuple carries, as its receiver acts on it: the
        tuple, its annotation and its support, each masked annotation and
        coded support rebuilt from its wire form and the tuple's own payload
        — never read from the sender's ``provenance`` or ``support`` — or
        ``None`` when a mask or code names nothing there.  One
        ``flat_values`` per tuple serves both."""
        fact, mask, code = item.fact, item.mask, item.code
        annotation, support = fact.provenance, fact.support
        if mask is not None or code is not None:
            flat = flat_values(fact.values)
            if mask is not None:
                annotation = from_position_mask(mask, flat, self.provenance.pairs)
                if annotation is None:
                    return None
            if code is not None:
                support = from_support_code(code, flat, self._bases)
                if support is None:
                    return None
        return fact, annotation, support

    def _attribute_local(self, fact: "Fact | FactKey", now: float) -> Fact:
        if isinstance(fact, Fact):
            relation, values = fact.relation, fact.values
            ttl, asserted_by, provenance = fact.ttl, fact.asserted_by, fact.provenance
        else:
            (relation, values), ttl, asserted_by, provenance = fact, None, None, None
        return Fact(
            relation=relation,
            values=values,
            timestamp=now,
            ttl=ttl if ttl is not None else self._ttl_for(relation),
            asserted_by=self.address if self._signed else asserted_by,
            origin=self.address,
            provenance=provenance,
        )

    def _ttl_for(self, relation: str) -> Optional[float]:
        if relation in self._ttl_cache:
            return self._ttl_cache[relation]
        ttl = self.config.default_ttl
        if relation in self.database.catalog:
            lifetime = self.database.catalog.schema(relation).lifetime
            if lifetime is not None:
                ttl = lifetime
        self._ttl_cache[relation] = ttl
        return ttl

    def _should_record(self, key: FactKey) -> bool:
        sampler = self.config.sampler
        if sampler is None:
            return True
        return sampler.should_record(key)

    def _record_base(self, fact: Fact) -> None:
        """Record a locally asserted base tuple's provenance and support."""
        if self._maintains_provenance and self._should_record(fact.key()):
            self.provenance_epoch += 1
            self.provenance.record_base(fact, source=self.address)
            if self.config.keep_offline_provenance:
                # The persistent archive keeps the pointer-chasing shape of
                # the live log, so offline traceback queries can walk it
                # even after a crash wiped the log.
                self.offline_provenance.record_base(fact)
        if self._rederivation:
            self._note_base_support(fact)

    def _record_remote_provenance(self, fact: Fact) -> None:
        self.provenance_epoch += 1
        self.provenance.record_remote(fact, fact.provenance)
        if self.config.keep_offline_provenance:
            self.offline_provenance.record_remote(fact, fact.origin)

    def _process_local(self, fact: Fact, now: float, result: ProcessingResult) -> None:
        """Store an entering (base or received) tuple and run the local delta
        fixpoint it triggers.  It is alone in the queue, so storing it here is
        storing it when the queue reaches it, as :meth:`_drain` does."""
        if self._store(fact, now, result):
            queue: Deque[Fact] = deque()
            self._fire(fact, now, result, queue)
            self._drain(queue, now, result)

    def _drain(
        self, queue: Deque[Fact], now: float, result: ProcessingResult
    ) -> None:
        """Run the local delta fixpoint in *queue* to empty, in FIFO order.

        *queue* holds locally derived tuples, unstored: each is stored when
        the queue reaches it, and fires its delta only if that changed its
        table.  So a firing whose inputs are new in one round is found once,
        from the input the queue reaches last — pipelined semi-naive
        evaluation (Loo et al., SIGMOD 2006), as P2 runs it.
        """
        while queue:
            fact = queue.popleft()
            inserted = self._store(fact, now, result)
            result.report.payload_bytes_processed += fact.payload_size()
            if inserted:
                self._fire(fact, now, result, queue)

    def _fire(
        self, delta: Fact, now: float, result: ProcessingResult, queue: Deque[Fact]
    ) -> None:
        """Evaluate every rule with the stored tuple *delta* as its delta.

        The relation's bound strand names the ``(plan, delta position)``
        pairs to evaluate and holds the tables they probe, which are expired
        here — only when their expiry watermark says a scan is due — rather
        than inside the joins.
        """
        database = self.database
        strand = self._strands.get(delta.relation)
        if strand is None:
            strand = self._strands[delta.relation] = bind_strand(
                self.compiled, delta.relation, database
            )
        pairs, probes = strand
        for table in probes:
            if table._soft_count and now >= table._next_expiry:
                table.expire(now)
        collect = self._collect_antecedents
        for plan, delta_index in pairs:
            firings = evaluate_plan_with_delta(
                plan, database, delta, delta_index, collect_antecedents=collect
            )
            if firings:
                result.report.rule_firings += len(firings)
                for firing in firings:
                    self._handle_firing(plan, firing, now, result, queue)

    def _handle_firing(
        self,
        plan: RulePlan,
        firing: RuleFiring,
        now: float,
        result: ProcessingResult,
        queue: Deque[Fact],
    ) -> None:
        """Derive one firing's tuple: update an aggregate head's group (a
        firing that leaves it unchanged derives nothing), record the firing
        and its support, then queue a local tuple unstored (:meth:`_drain`)
        or charge and annotate a remote one for the wire."""
        derived_values = firing.head_values
        head = plan.head

        if head.aggregate is not None:
            state = self.aggregates.get(plan.aggregate_key)
            if state is None:
                state = self.aggregates[plan.aggregate_key] = AggregateState(
                    head.aggregate.function
                )
            group = tuple(derived_values[i] for i in head.group_by_indexes)
            value = derived_values[head.aggregate_index]
            changed = state.update(group, value, contribution_key=derived_values)
            if changed is None:
                return
            updated = list(derived_values)
            updated[head.aggregate_index] = changed
            derived_values = tuple(updated)

        address = self.address
        destination = firing.destination
        if destination is None:
            destination = address
        elif type(destination) is not str:
            destination = str(destination)
        predicate = head.atom.name
        if predicate in self._ttl_cache:
            ttl = self._ttl_cache[predicate]
        else:
            ttl = self._ttl_for(predicate)
        key = (predicate, derived_values)
        result.report.facts_derived += 1

        support: Optional[ProvenanceExpression] = None
        if self._rederivation:
            support = join_all([self._support_of(a.key()) for a in firing.antecedents])

        annotation = None
        if self._records_derivations:
            annotation = self._record_derivation(key, ttl, plan, firing, now, result)

        if destination == address:
            if support is not None:
                self._note_support(key, support)
            queue.append(
                Fact(
                    predicate,
                    derived_values,
                    now,
                    ttl,
                    address if self._signed else None,
                    provenance=annotation,
                    origin=address,
                )
            )
            return

        provenance_bytes = 0
        mask = code = None
        shipped = annotation if self._ships_provenance else None
        if shipped is not None or support is not None:
            flat = flat_values(derived_values)
        if shipped is not None:
            # An annotation the payload names travels as the mask of its
            # positions, sized (and charged) as the mask; any other as itself.
            packed = position_mask(shipped, flat)
            if packed is None:
                provenance_bytes = shipped.serialized_size()
            else:
                mask, provenance_bytes = packed
            result.report.provenance_bytes_computed += provenance_bytes
        if support is not None:
            # The base-support polynomial rides the export (charged as
            # provenance overhead on the wire, in the form it travels) so the
            # receiver can answer a later anti-delta locally; remember where
            # each mentioned base travelled — those are the anti-delta fanout
            # targets.
            code = support_code(support, flat, self._bases)
            if code is None:
                provenance_bytes += support.serialized_size()
            else:
                provenance_bytes += len(code)
            dests = self._export_dests
            for var in support.variables():
                bucket = dests.get(var)
                if bucket is None:
                    bucket = dests[var] = {}
                bucket[destination] = None
        exported = Fact(
            predicate,
            derived_values,
            now,
            ttl,
            provenance=shipped,
            origin=address,
            support=support,
        )
        # Remote tuples render their payload regardless (the message's seal
        # covers it and the wire model measures it).
        result.report.payload_bytes_processed += exported.payload_size()
        # Section 4.3 under signed ``says``: the kernel seals the wire message
        # carrying it, which names this principal and numbers its tuples once;
        # one signature covers the tuple, its number, its destination, and the
        # annotation and support on it.
        result.outgoing.append(
            OutgoingFact(destination, exported, provenance_bytes, mask, code)
        )

    def _record_derivation(
        self,
        key: FactKey,
        ttl: Optional[float],
        plan: RulePlan,
        firing: RuleFiring,
        now: float,
        result: ProcessingResult,
    ) -> Optional[ProvenanceExpression]:
        """Append one firing of *key* (derived at *now*, living *ttl*) to the
        derivation log; return its annotation.

        Remote-destined derivations are recorded (and dependency-indexed)
        too: they are not stored locally, but a retraction cascade must be
        able to reach and invalidate the provenance this node vouches for.
        """
        if not self._maintains_provenance or not self._should_record(key):
            if self._track_dependencies:
                self.provenance.depend(key, [a.key() for a in firing.antecedents])
            return None
        log = self.provenance
        self.provenance_epoch += 1
        annotation = log.append(key, plan.label, now, ttl, firing.antecedents)
        if self.config.keep_offline_provenance:
            expires = None if ttl is None else now + ttl
            self.offline_provenance.record(log.pointers(key)[-1], expires, annotation)
        result.report.provenance_annotations += 1
        return annotation

    def _forget_aggregate_groups(
        self, relation: str, values: Tuple[object, ...]
    ) -> None:
        """Forget the aggregate group a deleted tuple of *relation* occupied."""
        for aggregate_key, head in self._aggregate_heads.get(relation, ()):
            state = self.aggregates.get(aggregate_key)
            if state is None:
                continue
            group = tuple(values[i] for i in head.group_by_indexes)
            state.best.pop(group, None)
            state.contributions.pop(group, None)

    def _forget_expired_aggregates(self, expired: List[Fact]) -> None:
        """Table expiry hook: an expired aggregate tuple frees its group.

        Without this, a soft-state ``min``/``max`` relation could never be
        re-established after expiry — the aggregate state would keep
        rejecting refreshed contributions that are no better than the value
        the network has already forgotten.

        The group is only freed while the aggregate state still mirrors the
        expired tuple: an insert-triggered sweep can fire *after* a firing
        already recorded a fresher best for the group (the stored invariant
        tuple expires as its replacement arrives), and wiping that would
        let a later, worse contribution displace the fresher value.
        """
        for fact in expired:
            for aggregate_key, head in self._aggregate_heads.get(fact.relation, ()):
                state = self.aggregates.get(aggregate_key)
                if state is None:
                    continue
                group = tuple(fact.values[i] for i in head.group_by_indexes)
                if state.best.get(group) == fact.values[head.aggregate_index]:
                    state.best.pop(group, None)
                    state.contributions.pop(group, None)

    def _invalidate_provenance(self, key: FactKey) -> None:
        if not self._maintains_provenance:
            return
        self.provenance_epoch += 1
        # Only the offline archive keeps the historical record.
        self.provenance.invalidate(key)

    # -- one-fixpoint deletions (rederivation=True) -------------------------------

    def _base_var(self, key: FactKey) -> str:
        """A base tuple key as a support-polynomial variable: its rendering
        (:func:`~repro.provenance.polynomial.render_base_variable`), looked
        up in this node's table of the variables it has named.  The table
        also holds each variable's code template, which the sender fills in
        relative to the payload, so no rendering is parsed."""
        return self._bases.name(key)

    def _note_base_support(self, fact: Fact) -> None:
        """A base insert supports itself; (re)asserting clears a dead mark."""
        var = self._base_var(fact.key())
        self._dead_bases.discard(var)
        self._note_support(fact.key(), ProvenanceExpression.var(var))

    def _note_support(self, key: FactKey, poly: ProvenanceExpression) -> None:
        """Merge *poly* into the support of *key* and index its bases.

        Merging is ``+`` then condense: absorption makes it idempotent, so
        re-recording the same derivations leaves the polynomial (and the
        reverse index) unchanged.
        """
        existing = self._support.get(key)
        if existing is not None:
            poly = existing.absorb(poly)
            if poly is existing:
                return
        self._support[key] = poly
        uses = self._base_uses
        for var in poly.variables():
            bucket = uses.get(var)
            if bucket is None:
                bucket = uses[var] = {}
            bucket[key] = None

    def _support_of(self, key: FactKey) -> ProvenanceExpression:
        """The support polynomial of *key*, a firing's factor.

        A key with no recorded support (stored before rederivation was
        enabled, or shipped by a sender running without it) is
        conservatively treated as its own base.
        """
        poly = self._support.get(key)
        if poly is None:
            poly = ProvenanceExpression.var(self._base_var(key))
        return poly

    def _merge_incoming_support(self, fact: Fact) -> bool:
        """Fold a received fact's shipped polynomial into the local index.

        Monomials resting on a base this node already knows retracted are
        pruned on arrival — they describe derivations that no longer exist
        (the fact crossed an anti-delta in flight).  Returns ``False`` when
        *every* monomial is dead, i.e. the fact must not be stored.
        """
        support = fact.support
        if not isinstance(support, ProvenanceExpression):
            return True
        dead = self._dead_bases
        if dead:
            kept = {
                monomial: coefficient
                for monomial, coefficient in support.monomials
                if not any(var in dead for var, _ in monomial)
            }
            if len(kept) != len(support.monomials):
                if not kept:
                    return False
                support = ProvenanceExpression.from_monomials(kept)
        if self._bases.fresh:
            # Variables rebuilt from a support code enter the table only
            # with a support the node stores.
            self._bases.admit(support)
        self._note_support(fact.key(), support)
        return True

    def _apply_dead_bases(
        self,
        base_keys: Tuple[FactKey, ...],
        now: float,
        result: ProcessingResult,
    ) -> None:
        """One deletion pass: prune retracted bases, delete zeroed tuples.

        For each newly dead base the reverse index names exactly the tuples
        whose polynomial mentions it — no transitive search.  Dropping the
        dead monomials either leaves a nonzero polynomial (the tuple
        survives on an alternative derivation: one ``rederivation``) or
        zeroes it (the tuple and its queryable provenance go).  Every
        destination the base ever travelled to inside an exported
        polynomial is queued in ``result.anti_deltas`` so the caller can
        continue the fixpoint across the wire.

        Surviving *stored* tuples re-enter the delta pipeline after the
        pruning pass.  Their downstream copies were shipped with the
        polynomial current at fire time — possibly a strict subset of
        today's (duplicate arrivals merge polynomial growth locally but do
        not re-export it) — so the copy at the receiver can zero out on the
        anti-delta even though an alternative derivation survives here.
        Re-firing the survivor re-derives and re-ships that state with the
        pruned, up-to-date support: an arriving copy either merges into a
        still-live tuple or re-inserts a deleted one, and a re-insert
        cascades onward, so the repair travels exactly as far as the
        over-deletion did — all inside the same distributed fixpoint.
        """
        fresh: List[Tuple[FactKey, str]] = []
        for key in base_keys:
            var = self._base_var(key)
            if var in self._dead_bases:
                continue  # flood dedup: this retraction already ran here
            self._dead_bases.add(var)
            fresh.append((key, var))
        swept: Set[str] = set()
        revived: List[Fact] = []
        for key, var in fresh:
            for affected in self._base_uses.pop(var, {}):
                poly = self._support.get(affected)
                if poly is None:
                    continue  # stale index entry: tuple already deleted
                kept = {
                    monomial: coefficient
                    for monomial, coefficient in poly.monomials
                    if not any(v == var for v, _ in monomial)
                }
                if len(kept) == len(poly.monomials):
                    continue  # stale index entry: a merge dropped the base
                relation, values = affected
                table = self.database.table(relation, arity=len(values))
                # Expiry first (idempotent at fixed *now*): a tuple whose
                # TTL already elapsed must not count as retraction work,
                # nor may a survivor that only exists as an expired row be
                # re-fired into the rules.
                if relation not in swept:
                    swept.add(relation)
                    table.expire(now)
                current = table.get_by_values(values)
                if kept:
                    self._support[affected] = ProvenanceExpression.from_monomials(
                        kept
                    )
                    result.report.rederivations += 1
                    if current is not None:
                        revived.append(current)
                    continue
                del self._support[affected]
                if current is not None:
                    table.delete(current)
                    result.report.facts_retracted += 1
                    self._forget_aggregate_groups(relation, values)
                self._invalidate_provenance(affected)
            for destination in self._export_dests.pop(var, {}):
                bucket = result.anti_deltas.get(destination)
                if bucket is None:
                    bucket = result.anti_deltas[destination] = []
                bucket.append(key)
        if revived:
            # Survivors are stored already, so they fire here rather than
            # through the queue; what they derive drains behind them.
            queue: Deque[Fact] = deque()
            for fact in revived:
                self._fire(fact, now, result, queue)
            self._drain(queue, now, result)

    # -- storage ------------------------------------------------------------------

    def _table_for(self, fact: Fact) -> Table:
        """The table of *fact*'s relation; a first-seen relation gets one of
        the catalog's arity, or failing that the fact's own."""
        tables = self.database.by_name
        relation = fact.relation
        if relation in tables:
            return tables[relation]
        return self.database.table(relation, arity=len(fact.values))

    def _store(self, fact: Fact, now: float, result: ProcessingResult) -> bool:
        insert = self._table_for(fact).insert(fact, now=now)
        if insert.inserted:
            result.report.facts_inserted += 1
            return True
        return False
