"""Cache gate: a repeated 15-spec sweep (captures plus 1/2/4/8-thread
observes of the three paper workloads on the i7-920, 3 steps) served
from the run cache is at least 5x faster than the cold sweep, hits at
least 90% of its specs, and sampled entries re-run byte-identically."""

import time

from repro.runcache import RunCache, capture_spec, observe_spec, sweep

MIN_SPEEDUP = 5.0
MIN_HIT_RATE = 0.9


def test_warm_sweep_is_cheap_and_exact(tmp_path):
    specs = []
    for name in ("salt", "nanocar", "Al-1000"):
        specs.append(capture_spec(name, 3))
        specs += [
            observe_spec(name, 3, n, "i7-920", seed=0) for n in (1, 2, 4, 8)
        ]
    cache = RunCache(tmp_path)
    t0 = time.perf_counter()
    sweep(specs, cache)
    t1 = time.perf_counter()
    warm = sweep(specs, cache)
    t2 = time.perf_counter()

    assert warm.hit_rate >= MIN_HIT_RATE, warm.hit_rate
    speedup = (t1 - t0) / max(t2 - t1, 1e-9)
    assert speedup >= MIN_SPEEDUP, (
        f"warm-over-cold {speedup:.1f}x (cold {t1 - t0:.2f}s, "
        f"warm {(t2 - t1) * 1e3:.1f}ms)"
    )
    reports = cache.verify(sample=2, seed=0)
    assert reports and all(r.ok for r in reports), reports
