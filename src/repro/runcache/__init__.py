"""Content-addressed run cache for the deterministic simulated machine.

The simulator's replays are byte-deterministic (same spec ⇒ same event
trace, asserted since PR 1), which makes full-run memoization *exact*:
a :class:`RunSpec` digests everything that determines a run — workload,
steps, seed, threads, machine topology, cost-model calibration, fault
plan, pinning, and a salt over the entire ``repro`` source tree — and
the :class:`RunCache` stores the artifacts consumers need (captured
StepReports, attribution observations, chaos cases, trace bundles)
under that digest with atomic writes and LRU size capping.

:func:`sweep` dedupes a list of specs against the store and executes
the misses across a process pool, so the attribution bench, the chaos
battery, the CLI, and the paper benchmarks all pay for each distinct
simulation exactly once.  ``repro cache stats|clear|verify`` manages
the store from the shell; the sampled ``verify`` re-runs a cached entry
and asserts byte-identity.
"""

from repro.runcache.key import (
    OPTION_DEFAULTS,
    RunSpec,
    code_version_salt,
    spec_digest,
)
from repro.runcache.resilience import (
    JOURNAL_SCHEMA,
    JournalState,
    Quarantined,
    SupervisionPolicy,
    SweepJournal,
    journal_specs,
    load_journal,
    spec_from_canonical,
)
from repro.runcache.store import (
    CacheStats,
    RunCache,
    VerifyReport,
    default_cache_dir,
    dumps_artifact,
    dumps_artifacts,
)
from repro.runcache.sweep import (
    SweepResult,
    attribute_grid,
    attribution_specs,
    attribution_sweep,
    cached_capture,
    capture_spec,
    default_jobs,
    execute_spec,
    nested_capture,
    observe_spec,
    run_and_store,
    sweep,
    sweep_seconds,
    toolerror_spec,
    trace_spec,
)

__all__ = [
    "CacheStats",
    "JOURNAL_SCHEMA",
    "JournalState",
    "OPTION_DEFAULTS",
    "Quarantined",
    "RunCache",
    "RunSpec",
    "SupervisionPolicy",
    "SweepJournal",
    "SweepResult",
    "VerifyReport",
    "attribute_grid",
    "attribution_specs",
    "attribution_sweep",
    "cached_capture",
    "capture_spec",
    "code_version_salt",
    "default_cache_dir",
    "default_jobs",
    "dumps_artifact",
    "dumps_artifacts",
    "execute_spec",
    "journal_specs",
    "load_journal",
    "nested_capture",
    "observe_spec",
    "run_and_store",
    "spec_digest",
    "spec_from_canonical",
    "sweep",
    "sweep_seconds",
    "toolerror_spec",
    "trace_spec",
]
