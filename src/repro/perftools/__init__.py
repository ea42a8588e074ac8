"""Models of the performance-analysis tools the paper used.

The paper's contribution is as much about *tools* as about MD: JaMON
monitors that serialize the program they measure (§IV-A), VisualVM
instrumentation that slows it 4x, thread-state samplers whose 1 s /
5-10 ms granularity cannot resolve 80-5000 µs work quanta (§IV-B),
profilers that cannot say what code a thread is running (§IV-C), heap
viewers without addresses or thread attribution (§V-A/B), and the
missing topology tool (§V-C).

Each model implements the *measurement mechanism* of its tool against
the simulated machine, so every observer effect and blind spot is
reproducible — and, because the simulation also has ground truth, each
tool's error is quantifiable, which the original study could never do.

===============  ===========================================
module           models
===============  ===========================================
``jamon``        synchronized performance monitors
``visualvm``     per-method instrumentation, live-objects view
``sampling``     thread-state samplers (VisualVM 1 s, VTune 5-10 ms)
``vtune``        thread->core plots (Fig. 2), HW cache counters
``heapviewer``   class histograms (and the wished-for views)
``topoview``     the hwloc-like topology report (§V-C's wish)
``memtrace``     address-accurate synthetic load/store streams
``jxperf``       PMU-watchpoint wasteful-memory-op profiler
``timers``       LAMMPS-style timer-placement ablation
===============  ===========================================

The last three are the *next-generation* models: the tools the authors
wished for, scored against the same ground truth as the 2010 ones (see
``repro.obs.leaderboard``).
"""

from repro.perftools.heapviewer import HeapViewer
from repro.perftools.jamon import JaMonInstrumentation, MonitorStats
from repro.perftools.jxperf import (
    JxPerf,
    WastefulReport,
    class_blind_error,
    distribution_error,
    exact_classify,
    pollution_report,
)
from repro.perftools.memtrace import (
    Access,
    AccessStream,
    access_stream_for_trace,
    synthesize_accesses,
    terms_per_step,
)
from repro.perftools.profiler import (
    RandomSamplingProfiler,
    YieldPointProfiler,
    profiler_disagreement,
    true_hot_methods,
)
from repro.perftools.sampling import (
    GroundTruthTimeline,
    SampledTimeline,
    ThreadState,
    ThreadStateSampler,
)
from repro.perftools.timers import (
    TimerAblationReport,
    TimerVariantRow,
    ablate_timers,
)
from repro.perftools.visualvm import VisualVmCpuInstrumentation
from repro.perftools.vtune import VTune
from repro.perftools.topoview import topology_report

__all__ = [
    "Access",
    "AccessStream",
    "GroundTruthTimeline",
    "HeapViewer",
    "JaMonInstrumentation",
    "JxPerf",
    "MonitorStats",
    "RandomSamplingProfiler",
    "SampledTimeline",
    "ThreadState",
    "ThreadStateSampler",
    "TimerAblationReport",
    "TimerVariantRow",
    "VTune",
    "VisualVmCpuInstrumentation",
    "WastefulReport",
    "YieldPointProfiler",
    "ablate_timers",
    "access_stream_for_trace",
    "class_blind_error",
    "distribution_error",
    "exact_classify",
    "pollution_report",
    "profiler_disagreement",
    "synthesize_accesses",
    "terms_per_step",
    "topology_report",
    "true_hot_methods",
]
