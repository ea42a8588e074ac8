"""Unified ground-truth tracing & metrics for the simulated machine.

Every Java-era tool the paper evaluated either perturbed the program
(JaMON's serializing monitors, VisualVM's 4x instrumentation) or
sampled too coarsely (1 s / 5–10 ms vs 80–5000 µs work quanta) to see
what was really happening.  The DES machine can do what none of them
could: record a *perfect, zero-observer-effect* trace.  This package is
that recorder plus its consumers:

* :mod:`~repro.obs.tracer` — :class:`Tracer` subscribes to the kernel
  event bus (:meth:`repro.des.Simulator.subscribe`) and assembles
  per-task :class:`TaskSpan` lifecycles (enqueue → dequeue → run →
  complete with worker/PU attribution);
* :mod:`~repro.obs.metrics` — a labeled counter/gauge/histogram
  registry fed by hardware-counter scrapes of the machine (per-LLC
  cache hits/misses, DRAM traffic, migrations, scheduler decisions);
* :mod:`~repro.obs.export` — Chrome trace-event JSON (open in Perfetto
  or ``chrome://tracing``) and flat CSV/JSON metric dumps;
* :mod:`~repro.obs.compare` — replays the ground truth through the
  :mod:`repro.perftools` models and quantifies each tool's measurement
  error, the experiment the original authors could never run;
* :mod:`~repro.obs.leaderboard` — aggregates those per-tool errors over
  a workload x machine grid (cached ``toolerror`` sweep) into one
  ranked tool-accuracy leaderboard (``repro leaderboard``);
* :mod:`~repro.obs.attribution` — decomposes the gap between ideal and
  achieved speedup into conserved buckets (work inflation, latch idle,
  queue wait, scheduler/dispatch overhead, GC), per phase and per
  force kernel — the layer that answers "why doesn't Al-1000 scale?";
* :mod:`~repro.obs.critical_path` — longest dependent chain over the
  span graph and the resulting hard speedup upper bound.

CLI: ``python -m repro trace <workload>`` produces the artifacts;
``python -m repro compare`` prints the tool-error report;
``python -m repro attribute`` prints the speedup-loss decomposition
(and writes the flamegraph / CSV with ``--out``).
"""

from repro.obs.attribution import (
    AttributionResult,
    RunObservation,
    attribute,
    attribute_observations,
    attribution_csv,
    kernel_shares,
    observe_run,
    render_attribution,
    result_to_dict,
)
from repro.obs.compare import (
    ObserverEffectRow,
    SamplerErrorRow,
    ToolErrorReport,
    compare_tools,
    sampler_error_rows,
)
from repro.obs.critical_path import CriticalPath, critical_path, longest_path
from repro.obs.leaderboard import (
    LeaderboardResult,
    LeaderboardRow,
    leaderboard,
    leaderboard_payload,
    toolerror_cell,
)
from repro.obs.export import (
    chrome_trace_events,
    folded_stack_lines,
    metrics_csv,
    metrics_json,
    write_chrome_trace,
    write_folded_stacks,
    write_metrics,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_executor_metrics,
    collect_machine_metrics,
    collect_span_metrics,
)
from repro.obs.tracer import PhaseWindow, TaskSpan, Tracer

__all__ = [
    "AttributionResult",
    "Counter",
    "CriticalPath",
    "Gauge",
    "Histogram",
    "LeaderboardResult",
    "LeaderboardRow",
    "MetricsRegistry",
    "ObserverEffectRow",
    "PhaseWindow",
    "RunObservation",
    "SamplerErrorRow",
    "TaskSpan",
    "ToolErrorReport",
    "Tracer",
    "attribute",
    "attribute_observations",
    "attribution_csv",
    "chrome_trace_events",
    "collect_executor_metrics",
    "collect_machine_metrics",
    "collect_span_metrics",
    "compare_tools",
    "critical_path",
    "folded_stack_lines",
    "kernel_shares",
    "leaderboard",
    "leaderboard_payload",
    "longest_path",
    "metrics_csv",
    "metrics_json",
    "observe_run",
    "render_attribution",
    "result_to_dict",
    "sampler_error_rows",
    "toolerror_cell",
    "write_chrome_trace",
    "write_folded_stacks",
    "write_metrics",
]
