"""Validated options and provenance presets for the :class:`~repro.api.Network` facade.

The facade takes two arguments beside topology and program: a **provenance
preset** naming the paper configuration (``"sendlog-prov"`` etc.) and a
:class:`NetOptions` record of everything else, validated up front with
errors that name their field.  ``NetOptions`` projects onto the two records
the runtime consumes: :meth:`NetOptions.engine_config` (per-node engine
behaviour) and :meth:`NetOptions.kernel_options` (the event kernel, serial
or sharded).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from typing import Dict, Optional, Tuple

from repro.datalog.lint import LINT_MODES
from repro.engine.node_engine import EngineConfig, ProvenanceMode
from repro.net.kernel import CostModel, KernelOptions
from repro.net.link import DEFAULT_BANDWIDTH, DEFAULT_LATENCY
from repro.net.query import DEFAULT_QUERY_TIMEOUT
from repro.net.sharding import SHARD_MODES
from repro.provenance.pruning import ProvenanceSampler
from repro.security.rsa import MIN_KEY_BITS
from repro.security.says import SaysMode
from repro.service.cache import CacheConfig
from repro.service.ratelimit import ADMISSION_POLICIES, AdmissionControl

#: The execution backends ``Network.build(backend=...)`` accepts.
BACKENDS = ("serial", "sharded")

#: Provenance presets: the paper's three evaluated configurations plus the
#: other maintained representations, keyed by kebab-case name.  Legacy
#: harness spellings (``NDLog`` / ``SeNDLog`` / ``SeNDLogProv``) resolve to
#: the same entries case-insensitively.
PROVENANCE_PRESETS: Dict[str, Tuple[SaysMode, ProvenanceMode]] = {
    "ndlog": (SaysMode.NONE, ProvenanceMode.NONE),
    "sendlog": (SaysMode.SIGNED, ProvenanceMode.NONE),
    "sendlog-prov": (SaysMode.SIGNED, ProvenanceMode.CONDENSED),
    "condensed": (SaysMode.NONE, ProvenanceMode.CONDENSED),
    "full-local": (SaysMode.NONE, ProvenanceMode.FULL_LOCAL),
    "distributed": (SaysMode.NONE, ProvenanceMode.DISTRIBUTED),
    "sendlog-distributed": (SaysMode.SIGNED, ProvenanceMode.DISTRIBUTED),
}

#: Legacy configuration names from the Section 6 harness.
_PRESET_ALIASES: Dict[str, str] = {
    "ndlog": "ndlog",
    "sendlog": "sendlog",
    "sendlogprov": "sendlog-prov",
}


def resolve_preset(name: str) -> str:
    """Canonicalize a provenance preset name; raise for unknown names."""
    if name in PROVENANCE_PRESETS:
        return name
    folded = name.lower()
    if folded in PROVENANCE_PRESETS:
        return folded
    alias = _PRESET_ALIASES.get(folded.replace("-", "").replace("_", ""))
    if alias is not None:
        return alias
    raise ValueError(
        f"unknown provenance preset {name!r}; expected one of "
        f"{sorted(PROVENANCE_PRESETS)} (legacy names NDLog / SeNDLog / "
        "SeNDLogProv are accepted too)"
    )


@dataclass(frozen=True)
class NetOptions:
    """Everything about a network run that is not topology / program / preset.

    ``None`` values for the engine-side fields mean "the preset's default";
    set them to override what the named configuration would do (for example
    ``keep_offline_provenance=True`` to archive derivations for forensics).
    """

    #: Execution backend: ``"serial"`` replays the whole network in one
    #: event loop; ``"sharded"`` partitions the topology into ``shards``
    #: groups of nodes and runs one kernel per group in parallel, with
    #: deterministic barrier synchronization — derived facts and every
    #: integer/byte statistic are identical between the two (floats agree
    #: up to summation order).
    backend: str = "serial"
    #: Shard count for ``backend="sharded"``; 0 picks one shard per
    #: available core, capped at 4 and floored at 2 — asking for the
    #: sharded backend always shards (the results do not depend on the
    #: count, only wall-clock time does).
    shards: int = 0
    #: ``"processes"`` runs each shard in a spawned worker (the parallel
    #: path); ``"inline"`` runs every shard kernel in-process — same
    #: windows, same results — for debugging and mid-run inspection.
    shard_mode: str = "processes"
    #: Wire format: one batch per destination per delta round (real-P2
    #: amortization) vs the paper's per-tuple shipping.
    batching: bool = True
    key_bits: int = 256
    max_events: int = 5_000_000
    default_latency: float = DEFAULT_LATENCY
    default_bandwidth: float = DEFAULT_BANDWIDTH
    link_relation: str = "link"
    #: Static-analysis mode applied to the program by ``Network.build``:
    #: ``"error"`` raises :class:`~repro.datalog.errors.LintError` on
    #: error-severity diagnostics (warnings stay silent), ``"warn"`` emits
    #: every diagnostic as a :class:`~repro.datalog.diagnostics.LintWarning`,
    #: ``"off"`` skips linting.
    lint: str = "error"
    #: Seconds an in-network provenance query waits on one request.
    query_timeout: float = DEFAULT_QUERY_TIMEOUT
    # -- query service plane (repro.service) ---------------------------------
    #: Per-node admission rate for service-plane query arrivals, in queries
    #: per simulated second; ``0.0`` disables admission control (every
    #: arrival is admitted).
    admission_rate: float = 0.0
    #: Token-bucket burst capacity; ``0.0`` defaults to one second of rate
    #: (at least 1 token).
    admission_burst: float = 0.0
    #: What a denied arrival does: ``"drop"`` sheds it immediately,
    #: ``"retry"`` re-schedules it up to ``admission_retries`` times after
    #: ``admission_retry_delay`` simulated seconds.
    admission_policy: str = "drop"
    admission_retries: int = 3
    admission_retry_delay: float = 0.05
    #: Arm the per-node query-result cache (memoized closure walks, epoch-
    #: and TTL-invalidated).  Off by default: caching changes the query
    #: path's CPU accounting, so runs that never opted in are unaffected.
    query_cache: bool = False
    #: Per-node cache capacity in memoized closures.
    query_cache_entries: int = 256
    #: Maximum cache-entry age in simulated seconds; ``0.0`` = no TTL bound
    #: (the provenance epoch still invalidates on every store mutation).
    query_cache_ttl: float = 0.0
    cost_model: Optional[CostModel] = None
    #: Seed used when the topology is given as a bare node count.
    seed: int = 0
    # -- soft-state dynamics (repro.net.kernel / repro.net.timers) -----------
    #: How soft state is kept alive: ``"rounds"`` (the default) relies on
    #: explicit :class:`~repro.net.events.SoftStateRefresh` events the
    #: driving code schedules; ``"wheel"`` arms a per-tuple refresh timer at
    #: each owner in a hierarchical timer wheel, re-asserting every
    #: remembered base tuple each ``refresh_interval`` as a continuous
    #: trickle (deterministic and byte-identical across backends).
    refresh_mode: str = "rounds"
    #: Seconds between one base tuple's refreshes (``refresh_mode="wheel"``).
    refresh_interval: float = 10.0
    #: Refresh-wave rate limit, tuples per simulated second per node; ``0``
    #: disables the limiter (every due timer fires immediately).
    refresh_rate: float = 0.0
    #: Token-bucket burst for the refresh-wave limiter (tuples).
    refresh_burst: float = 1.0
    # -- engine configuration overrides (None = preset default) --------------
    #: One-fixpoint deletions: maintain base-support polynomials so a
    #: retraction (or link failure) converges in a single distributed
    #: fixpoint — surviving alternatives are kept (``rederivations``), dead
    #: tuples are chased across nodes with ranked anti-delta messages —
    #: instead of waiting out ``ttl + refresh_interval`` of soft-state
    #: decay.  ``None`` defers to the preset (off).
    rederivation: Optional[bool] = None
    default_ttl: Optional[float] = None
    track_dependencies: Optional[bool] = None
    keep_offline_provenance: Optional[bool] = None
    offline_retention: Optional[float] = None
    sampler: Optional[ProvenanceSampler] = None
    #: Offline-archive hot-tier capacity in archived entries (an LRU cache
    #: over the write-through spill log; see ``repro/provenance/store.py``
    #: and the ROADMAP "Storage tiers" section).
    hot_tier_entries: Optional[int] = None
    #: Directory for the archive's per-node spill log files; ``None`` keeps
    #: the log in process memory, so the run writes no file.
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0 (0 = auto), got {self.shards}")
        if self.shard_mode not in SHARD_MODES:
            raise ValueError(
                f"unknown shard_mode {self.shard_mode!r}; expected one of "
                f"{SHARD_MODES}"
            )
        if self.key_bits < MIN_KEY_BITS:
            raise ValueError(
                f"key_bits must be >= {MIN_KEY_BITS}, got {self.key_bits}"
            )
        if self.max_events <= 0:
            raise ValueError(f"max_events must be positive, got {self.max_events}")
        if self.default_latency < 0:
            raise ValueError(
                f"default_latency must be >= 0, got {self.default_latency}"
            )
        if self.default_bandwidth <= 0:
            raise ValueError(
                f"default_bandwidth must be positive, got {self.default_bandwidth}"
            )
        if self.query_timeout <= 0:
            raise ValueError(
                f"query_timeout must be positive, got {self.query_timeout}"
            )
        if self.default_ttl is not None and self.default_ttl <= 0:
            raise ValueError(f"default_ttl must be positive, got {self.default_ttl}")
        if self.offline_retention is not None and self.offline_retention <= 0:
            raise ValueError(
                f"offline_retention must be positive, got {self.offline_retention}"
            )
        if self.hot_tier_entries is not None and self.hot_tier_entries < 1:
            raise ValueError(
                f"hot_tier_entries must be >= 1, got {self.hot_tier_entries}"
            )
        if self.spill_dir is not None and not self.spill_dir:
            raise ValueError("spill_dir must be a non-empty directory path")
        if not self.link_relation:
            raise ValueError("link_relation must be a non-empty relation name")
        if self.lint not in LINT_MODES:
            raise ValueError(
                f"lint must be one of {LINT_MODES}, got {self.lint!r}"
            )
        if self.admission_rate < 0:
            raise ValueError(
                f"admission_rate must be >= 0 (0 disables admission "
                f"control), got {self.admission_rate}"
            )
        if self.admission_burst < 0:
            raise ValueError(
                f"admission_burst must be >= 0 (0 = one second of rate), "
                f"got {self.admission_burst}"
            )
        if self.admission_policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission_policy {self.admission_policy!r}; "
                f"expected one of {ADMISSION_POLICIES}"
            )
        if self.admission_retries < 0:
            raise ValueError(
                f"admission_retries must be >= 0, got {self.admission_retries}"
            )
        if self.admission_retry_delay <= 0:
            raise ValueError(
                f"admission_retry_delay must be positive, got "
                f"{self.admission_retry_delay}"
            )
        if self.query_cache_entries < 1:
            raise ValueError(
                f"query_cache_entries must be >= 1, got "
                f"{self.query_cache_entries}"
            )
        if self.query_cache_ttl < 0:
            raise ValueError(
                f"query_cache_ttl must be >= 0 (0 = no TTL bound), got "
                f"{self.query_cache_ttl}"
            )
        if self.refresh_mode not in ("rounds", "wheel"):
            raise ValueError(
                f"unknown refresh_mode {self.refresh_mode!r}; expected "
                "'rounds' or 'wheel'"
            )
        if self.refresh_interval <= 0:
            raise ValueError(
                f"refresh_interval must be positive, got {self.refresh_interval}"
            )
        if self.refresh_rate < 0:
            raise ValueError(
                f"refresh_rate must be >= 0 (0 disables the refresh-wave "
                f"limiter), got {self.refresh_rate}"
            )
        if self.refresh_burst <= 0:
            raise ValueError(
                f"refresh_burst must be positive, got {self.refresh_burst}"
            )

    def resolved_shards(self) -> int:
        """The effective shard count: explicit, or one per core, clamped to
        [2, 4] — choosing ``backend="sharded"`` always actually shards.

        The sharded backend produces identical derived facts and integer
        statistics for *any* shard count, so auto-sizing to the machine is
        safe — it changes wall-clock time, never results.
        """
        if self.shards:
            return self.shards
        return max(2, min(4, os.cpu_count() or 1))

    def service_admission(self) -> Optional[AdmissionControl]:
        """The per-node admission controller these options describe, or
        ``None`` when ``admission_rate == 0`` (every arrival admitted)."""
        if self.admission_rate <= 0:
            return None
        return AdmissionControl(
            rate=self.admission_rate,
            burst=self.admission_burst,
            policy=self.admission_policy,
            retries=self.admission_retries,
            retry_delay=self.admission_retry_delay,
        )

    def service_cache(self) -> Optional[CacheConfig]:
        """The per-node query-result cache config, or ``None`` when the
        cache is not armed."""
        if not self.query_cache:
            return None
        return CacheConfig(
            capacity=self.query_cache_entries, ttl=self.query_cache_ttl
        )

    def merged(self, **overrides: object) -> "NetOptions":
        """A copy with *overrides* applied; unknown names raise with the list
        of valid fields (this is what catches facade typos early)."""
        if not overrides:
            return self
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ValueError(
                f"unknown NetOptions field(s) {unknown}; valid fields: "
                f"{sorted(valid)}"
            )
        return replace(self, **overrides)

    def engine_overrides(self) -> Dict[str, object]:
        """The engine-side fields that were explicitly set (not None).

        ``Network.build(config=...)`` refuses to proceed when any of these
        are set: a hand-built :class:`EngineConfig` replaces the preset
        wholesale, so silently dropping the overrides would contradict the
        validated-options contract.
        """
        fields_ = (
            "rederivation",
            "default_ttl",
            "track_dependencies",
            "keep_offline_provenance",
            "offline_retention",
            "sampler",
            "hot_tier_entries",
            "spill_dir",
        )
        return {
            name: getattr(self, name)
            for name in fields_
            if getattr(self, name) is not None
        }

    def kernel_options(self) -> KernelOptions:
        """The kernel-side settings, as the one record every serial and
        shard kernel of the run is built from."""
        return KernelOptions(
            cost_model=self.cost_model,
            key_bits=self.key_bits,
            max_events=self.max_events,
            default_latency=self.default_latency,
            default_bandwidth=self.default_bandwidth,
            batching=self.batching,
            link_relation=self.link_relation,
            query_timeout=self.query_timeout,
            admission=self.service_admission(),
            query_cache=self.service_cache(),
            refresh_mode=self.refresh_mode,
            refresh_interval=self.refresh_interval,
            refresh_rate=self.refresh_rate,
            refresh_burst=self.refresh_burst,
        )

    def engine_config(self, provenance: str) -> EngineConfig:
        """The :class:`EngineConfig` for preset *provenance* plus overrides."""
        says_mode, provenance_mode = PROVENANCE_PRESETS[resolve_preset(provenance)]
        config = EngineConfig(says_mode=says_mode, provenance_mode=provenance_mode)
        for name, value in self.engine_overrides().items():
            setattr(config, name, value)
        return config
