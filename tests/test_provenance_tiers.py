"""Tests for the offline archive's tiers (hot tier + spill log).

Covers the forensics contract under eviction, crash and pickling; the
write-through discipline; deterministic LRU eviction; spill-record
round-tripping; both spill logs (a file under ``spill_dir``, or process
memory); and storage accounting (index-aware ``storage_bytes``).
"""

from __future__ import annotations

import pickle
import tempfile

import pytest

from reference_stores import ReferenceOfflineArchive, pointer_for

from repro.api import Network
from repro.engine.tuples import Fact
from repro.net.events import LinkDown, LinkUp
from repro.net.topology import line_topology
from repro.provenance.polynomial import p_var
from repro.provenance.store import (
    DEFAULT_HOT_TIER_ENTRIES,
    LogSpillBackend,
    MemorySpillBackend,
    OfflineProvenanceArchive,
    ProvenanceEntry,
    decode_entry,
    encode_entry,
)
from repro.usecases.forensics import ForensicInvestigator


def _firing(relation, values, t=0.0, rule="r", antecedents=()):
    return pointer_for(
        Fact(relation, values),
        rule,
        "a",
        tuple(Fact(rel, val) for rel, val in antecedents),
        timestamp=t,
    )


def _tiered(tmp_path, **kw):
    kw.setdefault("spill_dir", str(tmp_path))
    return OfflineProvenanceArchive("a", **kw)


class TestSpillRecordCodec:
    def test_entry_round_trips_exactly(self):
        entry = ProvenanceEntry(
            key=("bestPath", ("a", "c", ("a", "b", "c"), 2.0)),
            rule_label="p4",
            node="a",
            antecedent_keys=(("link", ("a", "b")),),
            timestamp=3.5,
            expires_at=13.5,
            annotation=p_var("link@a"),
        )
        assert decode_entry(encode_entry(entry)) == entry

    def test_entry_without_annotation_round_trips(self):
        entry = ProvenanceEntry(
            key=("link", ("a", "b")),
            rule_label="base",
            node="a",
            antecedent_keys=(),
            timestamp=0.0,
            expires_at=None,
        )
        assert decode_entry(encode_entry(entry)) == entry

    def test_interning_callback_shares_annotations(self):
        entry = ProvenanceEntry(
            key=("x", ("v",)),
            rule_label="r",
            node="a",
            antecedent_keys=(),
            timestamp=0.0,
            expires_at=None,
            annotation=p_var("s"),
        )
        table = {}

        def intern(annotation):
            return table.setdefault(annotation.monomials, annotation)

        first = decode_entry(encode_entry(entry), intern_annotation=intern)
        second = decode_entry(encode_entry(entry), intern_annotation=intern)
        assert first.annotation is second.annotation


class TestLogSpillBackend:
    def test_append_read_round_trip(self, tmp_path):
        backend = LogSpillBackend(str(tmp_path / "a.plog"))
        slot_one = backend.append(b"first\n")
        slot_two = backend.append(b"second\n")
        assert backend.read(*slot_one) == b"first\n"
        assert backend.read(*slot_two) == b"second\n"

    def test_pickle_drops_handles_and_appends_continue(self, tmp_path):
        backend = LogSpillBackend(str(tmp_path / "a.plog"))
        slot_one = backend.append(b"first\n")
        clone = pickle.loads(pickle.dumps(backend))
        slot_two = clone.append(b"second\n")
        assert clone.read(*slot_one) == b"first\n"
        assert clone.read(*slot_two) == b"second\n"

    def test_fresh_backend_truncates_stale_file(self, tmp_path):
        path = tmp_path / "a.plog"
        path.write_bytes(b"stale junk from an earlier run\n")
        backend = LogSpillBackend(str(path))
        slot = backend.append(b"fresh\n")
        assert slot == (0, 6)
        assert backend.read(*slot) == b"fresh\n"


class TestMemorySpillBackend:
    def test_same_slots_as_the_file_log(self, tmp_path):
        memory = MemorySpillBackend()
        file_log = LogSpillBackend(str(tmp_path / "a.plog"))
        for record in (b"first\n", b"second\n"):
            slot = memory.append(record)
            assert slot == file_log.append(record)
            assert memory.read(*slot) == record
        assert memory.resident_bytes() == len(b"first\nsecond\n")
        assert file_log.resident_bytes() == 0

    def test_pickle_keeps_the_log(self):
        backend = MemorySpillBackend()
        slot = backend.append(b"first\n")
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.read(*slot) == b"first\n"
        assert clone.append(b"second\n") == (6, 7)

    def test_resident_bytes_count_an_in_memory_log(self, tmp_path):
        in_memory = OfflineProvenanceArchive("a", hot_entries=0)
        on_disk = _tiered(tmp_path, hot_entries=0)
        for archive in (in_memory, on_disk):
            archive.record(_firing("x", ("1",)))
        assert on_disk.resident_bytes() == 0
        assert in_memory.resident_bytes() == in_memory.spilled_bytes() > 0
        assert in_memory.spilled_bytes() == on_disk.spilled_bytes()

    def test_archived_run_without_spill_dir_writes_no_file(
        self, tmp_path, monkeypatch
    ):
        # No spill_dir: the log stays in memory — nothing lands in the
        # system temporary directory or the working directory.
        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        monkeypatch.chdir(tmp_path)
        network = Network.build(
            topology=line_topology(4),
            program="best-path",
            provenance="condensed",
            keep_offline_provenance=True,
            hot_tier_entries=1,
        )
        assert network.run().converged
        assert network.stats.summary()["provenance_bytes_spilled"] > 0
        assert list(tmp_path.iterdir()) == []


class TestWriteThrough:
    def test_every_record_lands_in_the_log_before_caching(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=DEFAULT_HOT_TIER_ENTRIES)
        archive.record(_firing("x", ("1",)))
        assert archive.spilled_bytes() > 0
        # The entry is also hot, so reading it back costs no spill read.
        assert archive.entries(("x", ("1",)))
        assert archive.spill_read_count() == 0

    def test_forensics_survive_any_capacity(self, tmp_path):
        for capacity in (0, 1, 2, 1000):
            archive = _tiered(tmp_path, hot_entries=capacity)
            for i in range(10):
                archive.record(_firing("x", (str(i),), t=float(i)))
            got = {entry.key for entry in archive.entries()}
            assert got == {("x", (str(i),)) for i in range(10)}

    def test_zero_capacity_archive_reads_everything_from_disk(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=0)
        archive.record(_firing("x", ("1",)))
        assert archive.resident_bytes() == 0
        assert archive.entries(("x", ("1",)))
        assert archive.spill_read_count() == 1


class TestLruEviction:
    def test_eviction_is_oldest_touch_first(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=2)
        archive.record(_firing("x", ("1",)))
        archive.record(_firing("x", ("2",)))
        # Touch key 1 so key 2 becomes the LRU victim.
        archive.entries(("x", ("1",)))
        archive.record(_firing("x", ("3",)))
        archive.entries(("x", ("1",)))
        assert archive.spill_read_count() == 0  # still hot
        archive.entries(("x", ("2",)))
        assert archive.spill_read_count() == 1  # evicted, refetched

    def test_hot_count_never_exceeds_capacity(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=3)
        for i in range(20):
            archive.record(_firing("x", (str(i),), t=float(i)))
            assert archive._hot_count <= 3

    def test_groups_are_cached_whole_or_not_at_all(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=10)
        for t in (0.0, 1.0, 2.0):
            archive.record(_firing("x", ("1",), t=t))
        # Evict the group, then re-derive the key: the partial (new) entry
        # must not mask the two archived ones.
        archive.drop_cache()
        archive.record(_firing("x", ("1",), t=3.0))
        entries = archive.entries(("x", ("1",)))
        assert [e.timestamp for e in entries] == [0.0, 1.0, 2.0, 3.0]

    def test_full_scans_do_not_thrash_the_lru(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=1)
        archive.record(_firing("x", ("1",)))
        archive.record(_firing("x", ("2",)))  # evicts key 1
        before = dict(archive._hot)
        archive.entries()  # full scan fetches key 1 from the log...
        assert dict(archive._hot) == before  # ...but does not cache it

    def test_resident_bytes_bounded_while_spill_grows(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=4)
        high_water = 0
        for i in range(200):
            archive.record(_firing("x", (str(i),), t=float(i)))
            high_water = max(high_water, archive.resident_bytes())
        assert archive.resident_bytes() <= high_water
        # 200 near-identical entries: the hot payload stays around the
        # 4-entry mark while the log holds all 200.
        assert archive.spilled_bytes() > 20 * high_water


class TestCrashAndPickle:
    def test_drop_cache_loses_only_the_hot_tier(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=100)
        for i in range(5):
            archive.record(
                _firing("x", (str(i),), antecedents=(("y", ("0",)),))
            )
        archive.drop_cache()
        assert archive.resident_bytes() == 0
        got = {entry.key for entry in archive.entries()}
        assert got == {("x", (str(i),)) for i in range(5)}
        assert archive.spill_read_count() == 5

    def test_archive_pickles_across_spawn_boundary(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=2)
        archive.record(_firing("x", ("1",)))
        clone = pickle.loads(pickle.dumps(archive))
        clone.record(_firing("x", ("2",)))
        got = {entry.key for entry in clone.entries()}
        assert got == {("x", ("1",)), ("x", ("2",))}

    def test_graph_reconstruction_matches_memory_oracle_after_crash(self, tmp_path):
        oracle = ReferenceOfflineArchive("a")
        tiered = _tiered(tmp_path, hot_entries=1)
        link = Fact("link", ("a", "b"))
        hop = pointer_for(Fact("hop", ("a", "b")), "h1", "a", (link,), timestamp=1.0)
        path = pointer_for(
            Fact("path", ("a", "b")), "p1", "a", (Fact("hop", ("a", "b")),), timestamp=2.0
        )
        for archive in (oracle, tiered):
            archive.record_base(link)
            archive.record(hop)
            archive.record(path)
        tiered.drop_cache()
        root = ("path", ("a", "b"))
        assert tiered.graph(root).same_structure(oracle.graph(root))
        assert tiered.pointers(root) == oracle.pointers(root) == (path,)


class TestAnnotationSharing:
    def test_structurally_equal_annotations_share_one_object(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=10)
        note = p_var("link@a")
        archive.record(_firing("x", ("1",)), annotation=note)
        archive.record(_firing("y", ("1",)), annotation=p_var("link@a"))
        first = archive.annotation_of(("x", ("1",)))
        second = archive.annotation_of(("y", ("1",)))
        assert first is second

    def test_refetched_entries_reuse_interned_annotations(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=1)
        note = p_var("s")
        archive.record(_firing("x", ("1",)), annotation=note)
        archive.record(_firing("y", ("1",)))  # evicts key x
        (entry,) = archive.entries(("x", ("1",)))  # refetched from the log
        assert entry.annotation is archive.annotation_of(("x", ("1",)))

    def test_merged_annotation_tracks_alternative_derivations(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=10)
        archive.record(
            _firing("x", ("1",)), annotation=p_var("p")
        )
        archive.record(
            _firing("x", ("1",), t=1.0),
            annotation=p_var("q"),
        )
        merged = archive.annotation_of(("x", ("1",)))
        assert merged.variables() == frozenset({"p", "q"})


class TestTieredStorageAccounting:
    def test_storage_bytes_exceeds_resident_bytes(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=2)
        for i in range(10):
            archive.record(_firing("x", (str(i),), t=float(i)))
        # storage_bytes adds the per-key index and slot metadata, which
        # cover all 10 entries even though only 2 are resident.
        assert archive.storage_bytes() > archive.resident_bytes()

    def test_remote_and_base_metadata_counted(self, tmp_path):
        archive = _tiered(tmp_path, hot_entries=2)
        before = archive.storage_bytes()
        archive.record_base(Fact("link", ("a", "b")))
        archive.record_remote(Fact("route", ("b", "c")), origin="b")
        assert archive.storage_bytes() > before

    def test_invalid_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            _tiered(tmp_path, hot_entries=-1)


class TestOfflineArchiveRegressions:
    """Storage accounting with the log in memory."""

    def test_storage_bytes_counts_index_and_annotations(self):
        archive = OfflineProvenanceArchive("a")
        archive.record(
            _firing("x", ("1",)),
            annotation=p_var("a-very-long-source-name"),
        )
        without_annotation = OfflineProvenanceArchive("a")
        without_annotation.record(
            _firing("x", ("1",))
        )
        assert archive.storage_bytes() > without_annotation.storage_bytes()

    def test_storage_bytes_counts_base_and_origin_metadata(self):
        archive = OfflineProvenanceArchive("a")
        before = archive.storage_bytes()
        archive.record_base(Fact("link", ("a", "b")))
        archive.record_remote(Fact("route", ("b", "c")), origin="b")
        assert archive.storage_bytes() > before


class TestForensicTracebackCost:
    """A forensic traceback reads its route's derivation chain, not the archive.

    ``ForensicInvestigator.traceback`` used to call ``archive.entries()`` on
    every node — the whole spill log of the whole network, back through a
    one-entry hot tier — to find the few entries of one route.
    """

    def _traceback_cost(self, tmp_path, flaps):
        network = Network.build(
            topology=line_topology(6),
            program="best-path",
            provenance="condensed",
            keep_offline_provenance=True,
            hot_tier_entries=1,
            spill_dir=str(tmp_path / f"flaps-{flaps}"),
            default_ttl=1e6,
            track_dependencies=True,
            rederivation=True,
        )
        assert network.run().converged
        for _ in range(flaps):  # run length: every flap re-derives and re-archives
            for event in (LinkDown, LinkUp):
                network.schedule(
                    event(time=network.current_time() + 1.0, source="n4", destination="n5")
                )
                assert network.run_until_idle()
        target = max(
            (f for f in network.node("n0").facts("bestPath") if f.values[1] == "n3"),
            key=lambda f: len(f.values[2]),
        )
        archives = [engine.offline_provenance for engine in network.engines.values()]
        archived = sum(len(archive) for archive in archives)
        before = sum(archive.spill_read_count() for archive in archives)
        report = ForensicInvestigator.from_network(network).traceback(target.key())
        reads = sum(archive.spill_read_count() for archive in archives) - before
        assert report.found and set(report.nodes_traversed) == {"n0", "n1", "n2"}
        return reads, len(report.graph.operators()), archived

    def test_spill_reads_are_bounded_by_the_chain_not_by_run_length(self, tmp_path):
        reads, chain, archived = self._traceback_cost(tmp_path, flaps=0)
        # One read per archived firing on the route's chain, at most.
        assert 0 < reads <= chain
        assert archived > 4 * chain
        longer_reads, longer_chain, longer_archived = self._traceback_cost(
            tmp_path, flaps=3
        )
        # The n4-n5 flaps grew every archive; n0 -> n3 never depended on them.
        assert longer_archived > archived
        assert (longer_reads, longer_chain) == (reads, chain)
