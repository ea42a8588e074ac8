"""Self-contained HTML sweep reports from merged runtime telemetry.

``build_report`` folds a telemetry run directory (per-process JSONL
files) into the ``repro.report/1`` JSON document.  Each ``sweep`` span
records its store root and swept ``{digest, spec}`` entries; the report
reads those artifacts back by digest, executing nothing, into its
speedup, attribution and leaderboard blocks.  The one side file is the
tuner's ``autotune.json``: its rungs and winner are decisions that no
cached spec holds.

``render_html`` turns that document into a single self-contained HTML
file — inline CSS, inline SVG charts, no external scripts, styles,
fonts, or images (SHARP's launcher → runlogs → report pipeline is the
exemplar).

``write_report`` is the ``repro report`` command body: it writes the
merged timeline, the Perfetto-loadable orchestration trace, the
Prometheus metrics exposition, ``report.json``, and ``report.html``
into the output directory.

Charts follow the repo's dataviz conventions: one axis per chart,
categorical hues assigned in fixed slot order (never cycled), a
legend whenever two or more series share a plot, direct labels on
line ends, text in ink tokens rather than series colors, and
light/dark variants selected from the same validated palette via
``prefers-color-scheme``.
"""

from __future__ import annotations

import html
import json
import os
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.telemetry.chrome import write_orchestration_trace
from repro.telemetry.merge import (
    cache_event_tally,
    events,
    load_records,
    metric_samples,
    registry_from_samples,
    run_manifest,
    spans,
    write_merged,
)
from repro.telemetry.prom import write_prometheus
from repro.telemetry.schema import REPORT_SCHEMA

AUTOTUNE_NAME = "autotune.json"

#: fixed categorical slot order (light, dark) — validated palette
_SERIES = (
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
)


# -- building the report document -------------------------------------------


def _sweeps(records: List[dict]) -> List[Tuple[str, List[dict]]]:
    """Each recorded sweep's store root and ``{digest, spec}`` entries,
    in the order the sweeps ended."""
    return [
        (r["attrs"]["store"], json.loads(r["attrs"]["specs"]))
        for r in spans(records)
        if r["name"] == "sweep" and "specs" in r["attrs"]
    ]


def _read(root: str, entries: List[dict]) -> List[Any]:
    """The entries' stored artifacts (None where one is gone): reads
    by digest, executes nothing."""
    from repro.runcache import RunCache

    cache = RunCache(root)
    return [cache.read(e["digest"]) for e in entries]


def _grid(entries: List[dict]) -> Optional[List[dict]]:
    """The observe entries of a fault-free attribution grid (captures
    aside, observes alike but for workload and threads, each workload
    with its 1-thread baseline), or None."""
    observes = [e for e in entries if e["spec"]["kind"] != "capture"]
    specs = [e["spec"] for e in observes]
    shapes = {
        json.dumps({**s, "workload": 0, "threads": 0}, sort_keys=True)
        for s in specs
    }
    unbased = {s["workload"] for s in specs} - {
        s["workload"] for s in specs if s["threads"] == 1
    }
    if (len(shapes) != 1 or unbased or specs[0]["kind"] != "observe"
            or specs[0]["fault_plan"]):
        return None
    return observes


def _attribution_payload(sweeps) -> Optional[dict]:
    """The runs of the last fault-free observe grid the run swept,
    attributed afresh from its stored observations (as in
    ``attribution_sweep``'s payload, without kernel shares); None when
    there is no such grid or an entry of it is gone."""
    for root, entries in reversed(sweeps):
        grid = _grid(entries)
        if grid:
            break
    else:
        return None
    artifacts = _read(root, grid)
    if any(a is None for a in artifacts):
        return None
    from repro.obs.attribution import BUCKETS, result_to_dict
    from repro.runcache import attribute_grid, spec_from_canonical

    results = attribute_grid(
        [spec_from_canonical(e["spec"]) for e in grid], artifacts
    )
    return {
        "workloads": list(dict.fromkeys(r.workload for r in results)),
        "buckets": list(BUCKETS),
        "runs": [result_to_dict(r) for r in results],
    }


def _leaderboard_block(sweeps) -> Optional[dict]:
    """The tool ranking over the fault-free ``toolerror`` cells the run
    swept and still stores, in first-swept order."""
    from repro.obs.leaderboard import rank_tools

    cells: Dict[str, Any] = {}
    for root, entries in sweeps:
        wanted = [e for e in entries if e["spec"]["kind"] == "toolerror"
                  and e["spec"]["fault_plan"] is None]
        for entry, cell in zip(wanted, _read(root, wanted)):
            if cell is not None:
                cells.setdefault(entry["digest"], cell)
    if not cells:
        return None
    swept = list(cells.values())
    rows, extras = rank_tools(swept)
    threads = sorted({c["threads"] for c in swept})
    return {
        "rows": [asdict(r) for r in rows],
        "workloads": list(dict.fromkeys(c["workload"] for c in swept)),
        "machines": list(dict.fromkeys(c["machine"] for c in swept)),
        "threads": threads[0] if len(threads) == 1 else threads,
        "jxperf": extras.get("jxperf") or {},
        "timers": extras["timers"],
    }


def _autotune_block(run_dir: Path) -> Optional[dict]:
    """The ``repro.autotune/1`` search trajectory, when the tuner
    dropped an ``autotune.json`` next to the telemetry."""
    path = run_dir / AUTOTUNE_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict) or not payload.get("trials"):
        return None
    keys = ("workload", "machine", "threads", "rungs", "trials",
            "baseline", "winner", "diff")
    return {key: payload.get(key) for key in keys}


def _process_runs(records: List[dict]) -> List[dict]:
    """One entry per emitting process: role, window, span/cache tallies,
    and the minor page faults and system CPU seconds its ``shard`` spans
    recorded (the units it executed)."""
    by_pid: Dict[int, dict] = {}
    for record in records:
        entry = by_pid.setdefault(
            record["pid"],
            {
                "pid": record["pid"],
                "role": "process",
                "start": record["ts"],
                "end": record["ts"],
                "n_spans": 0,
                "n_events": 0,
                "hits": 0,
                "misses": 0,
                "minflt": 0,
                "sys_s": 0.0,
                "span_names": [],
                "_root_span": False,
            },
        )
        entry["end"] = max(entry["end"], record["ts"])
        if record["kind"] == "span":
            entry["n_spans"] += 1
            entry["start"] = min(entry["start"], record["start"])
            if record["name"] not in entry["span_names"]:
                entry["span_names"].append(record["name"])
            if record["parent_id"] is None:
                entry["_root_span"] = True
            if record["name"] == "shard":
                entry["minflt"] += record["attrs"].get("minflt", 0)
                entry["sys_s"] += record["attrs"].get("sys_s", 0.0)
        elif record["kind"] == "event":
            entry["n_events"] += 1
            if record["name"] == "cache.lookup":
                key = "hits" if record["attrs"].get("hit") else "misses"
                entry[key] += 1
    runs = []
    for pid in sorted(by_pid):
        entry = by_pid[pid]
        entry["seconds"] = max(entry["end"] - entry["start"], 0.0)
        # a degraded sweep's parent emits shard spans itself, so the
        # orchestration spans outrank the shard marker when both appear
        names = set(entry["span_names"])
        if names & {"sweep", "fanout"}:
            entry["role"] = "parent"
        elif "shard" in names:
            entry["role"] = "worker"
        elif entry["_root_span"]:
            entry["role"] = "parent"
        del entry["_root_span"]
        runs.append(entry)
    return runs


def _speedup_block(bench: dict) -> dict:
    """Speedup vs threads per workload of an attribution payload."""
    runs = bench["runs"]
    threads = sorted({r["threads"] for r in runs})
    speedups = {(r["workload"], r["threads"]): r["speedup"] for r in runs}
    curves = {
        name: [speedups.get((name, n)) for n in threads]
        for name in bench["workloads"]
    }
    return {"threads": threads, "curves": curves}


def _attribution_block(bench: dict) -> dict:
    """Each workload's loss buckets at its peak thread count."""
    peak: Dict[str, dict] = {}
    for run in bench["runs"]:
        if run["threads"] >= peak.get(run["workload"], run)["threads"]:
            peak[run["workload"]] = run
    return {
        "buckets": list(bench["buckets"]),
        "threads": {name: run["threads"] for name, run in peak.items()},
        "by_workload": {
            name: {b: float(run["buckets"].get(b, 0.0))
                   for b in bench["buckets"]}
            for name, run in peak.items()
        },
    }


#: supervision / store-hardening event -> tally key (1 event = 1 count)
_RESILIENCE_EVENTS = {
    "sweep.retry": "retries",
    "sweep.timeout": "timeouts",
    "sweep.pool_restart": "pool_restarts",
    "sweep.degraded": "degraded",
    "sweep.quarantine": "quarantined",
    "cache.put_failed": "put_failures",
}


def _resilience_block(records: List[dict]) -> Optional[dict]:
    """Supervision activity folded out of the sweep/cache events:
    retries, timeout kills, pool restarts, serial degradation,
    quarantined specs, absorbed put failures, reaped orphan temp
    files.  ``None`` when the run never needed any of it — the common
    fault-free case keeps its report clean."""
    tally = {key: 0 for key in _RESILIENCE_EVENTS.values()}
    tally["orphans_reaped"] = 0
    for record in events(records):
        key = _RESILIENCE_EVENTS.get(record["name"])
        if key is not None:
            tally[key] += 1
        elif record["name"] == "cache.orphans_reaped":
            tally["orphans_reaped"] += int(
                record["attrs"].get("count", 0) or 0
            )
    if not any(tally.values()):
        return None
    return tally


def _chaos_block(records: List[dict]) -> Optional[dict]:
    cases = [e for e in events(records) if e["name"] == "chaos.case"]
    if not cases:
        return None
    ok = sum(1 for c in cases if c["attrs"].get("ok"))
    return {"cases": len(cases), "ok": ok, "failed": len(cases) - ok}


def _load(root: Path) -> tuple:
    records, skipped = load_records(root)
    if not records:
        raise ValueError(
            f"no telemetry records under {root} "
            f"(expected telemetry-*.jsonl files)"
        )
    return records, skipped


def build_report(run_dir: Union[str, os.PathLike]) -> dict:
    """Fold one telemetry run directory into ``repro.report/1``."""
    return _fold(Path(run_dir), *_load(Path(run_dir)))


def _fold(root: Path, records: List[dict], skipped: int) -> dict:
    manifest = run_manifest(root, records)
    sweeps = _sweeps(records)
    payload = _attribution_payload(sweeps)
    # the machines the specs name, in first-swept order
    machines = dict.fromkeys(
        e["spec"]["machine"] for _root, entries in sweeps for e in entries
        if e["spec"]["machine"]
    )
    runs = _process_runs(records)
    workers = [r for r in runs if r["role"] == "worker"]
    tally = cache_event_tally(records)
    lookups = tally["lookups"]
    span_records = spans(records)
    span_names = dict(Counter(r["name"] for r in span_records))
    shards = [r for r in span_records if r["name"] == "shard"]
    wall = max(r["ts"] for r in records) - min(
        r["start"] if r["kind"] == "span" else r["ts"] for r in records
    )
    return {
        "schema": REPORT_SCHEMA,
        "machine": ", ".join(machines) or "unknown",
        "label": manifest.label,
        "trace_id": manifest.trace_id,
        "generated_from": str(root),
        "wall_seconds": max(wall, 0.0),
        "runs": runs,
        "cache": {
            "lookups": lookups,
            "hits": tally["hits"],
            "misses": tally["misses"],
            "hit_rate": tally["hits"] / lookups if lookups else 0.0,
            "puts": tally["puts"],
            "evictions": tally["evictions"],
            "worker_hits": sum(r["hits"] for r in workers),
            "worker_misses": sum(r["misses"] for r in workers),
        },
        "trace": {
            "n_records": len(records),
            "n_spans": len(span_records),
            "n_events": len(events(records)),
            "n_metrics": len(metric_samples(records)),
            "n_shards": len(shards),
            "skipped_lines": skipped,
            "span_names": span_names,
        },
        "speedup": payload and _speedup_block(payload),
        "attribution": payload and _attribution_block(payload),
        "chaos": _chaos_block(records),
        "resilience": _resilience_block(records),
        "leaderboard": _leaderboard_block(sweeps),
        "autotune": _autotune_block(root),
        "flamegraphs": sorted(p.name for p in root.glob("*.folded")),
    }


# -- SVG helpers -------------------------------------------------------------


def _esc(text) -> str:
    return html.escape(str(text), quote=True)


def _speedup_svg(block: dict) -> str:
    """Line chart: speedup vs thread count, one series per workload."""
    width, height = 640, 300
    left, right, top, bottom = 52, 120, 18, 40
    plot_w, plot_h = width - left - right, height - top - bottom
    threads = block["threads"]
    curves = block["curves"]
    ymax = max(
        [v for vs in curves.values() for v in vs if v is not None]
        + [max(threads)]
    )
    ymax = max(ymax * 1.08, 1.0)
    xmin, xmax = min(threads), max(threads)
    xspan = max(xmax - xmin, 1)

    def sx(n):
        return left + (n - xmin) / xspan * plot_w

    def sy(v):
        return top + plot_h - (v / ymax) * plot_h

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="Speedup vs threads per workload">'
    ]
    # recessive grid + y axis ticks
    n_ticks = 4
    for i in range(n_ticks + 1):
        value = ymax * i / n_ticks
        y = sy(value)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
            f'y2="{y:.1f}" class="grid"/>'
            f'<text x="{left - 8}" y="{y + 4:.1f}" class="tick" '
            f'text-anchor="end">{value:.1f}x</text>'
        )
    for n in threads:
        x = sx(n)
        parts.append(
            f'<text x="{x:.1f}" y="{height - bottom + 18}" class="tick" '
            f'text-anchor="middle">{n}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 6}" '
        f'class="axis-label" text-anchor="middle">threads</text>'
    )
    # ideal speedup reference (dashed, neutral ink)
    ideal = " ".join(
        f"{sx(n):.1f},{sy(min(n, ymax)):.1f}" for n in threads
    )
    parts.append(
        f'<polyline points="{ideal}" class="ideal" fill="none"/>'
        f'<text x="{left + plot_w + 8}" '
        f'y="{sy(min(max(threads), ymax)) + 4:.1f}" '
        f'class="tick">ideal</text>'
    )
    for slot, (name, values) in enumerate(sorted(curves.items())):
        color = f"var(--series-{slot % len(_SERIES) + 1})"
        points = [
            (sx(n), sy(v))
            for n, v in zip(threads, values)
            if v is not None
        ]
        if not points:
            continue
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in points)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2"/>'
        )
        for (x, y), n, v in zip(points, threads, values):
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                f'fill="{color}"><title>{_esc(name)} x{n}: '
                f"{v:.2f}x speedup</title></circle>"
            )
        # direct label at the line's end, in ink (never series color)
        end_x, end_y = points[-1]
        parts.append(
            f'<text x="{end_x + 10:.1f}" y="{end_y + 4:.1f}" '
            f'class="series-label">{_esc(name)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _attribution_svg(block: dict) -> str:
    """Stacked horizontal bars: speedup-loss buckets per workload."""
    buckets = block["buckets"]
    names = sorted(block["by_workload"])
    row_h, gap, left, right = 34, 14, 110, 80
    width = 640
    height = len(names) * (row_h + gap) + 26
    plot_w = width - left - right
    totals = {
        name: sum(block["by_workload"][name].values()) for name in names
    }
    vmax = max(list(totals.values()) + [1e-12])
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="Speedup-loss attribution buckets per workload">'
    ]
    for row, name in enumerate(names):
        y = row * (row_h + gap) + 8
        parts.append(
            f'<text x="{left - 10}" y="{y + row_h / 2 + 4:.1f}" '
            f'class="tick" text-anchor="end">{_esc(name)} '
            f"x{block['threads'].get(name, '?')}</text>"
        )
        x = float(left)
        for slot, bucket in enumerate(buckets):
            seconds = block["by_workload"][name].get(bucket, 0.0)
            if seconds <= 0:
                continue
            seg = seconds / vmax * plot_w
            color = f"var(--series-{slot % len(_SERIES) + 1})"
            # 2px surface gap between stacked segments
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(seg - 2, 1):.1f}" '
                f'height="{row_h}" rx="2" fill="{color}">'
                f"<title>{_esc(name)}: {_esc(bucket)} "
                f"{seconds * 1e3:.3f} ms</title></rect>"
            )
            x += seg
        parts.append(
            f'<text x="{x + 8:.1f}" y="{y + row_h / 2 + 4:.1f}" '
            f'class="tick">{totals[name] * 1e3:.2f} ms</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _leaderboard_svg(block: dict) -> str:
    """Horizontal bars: mean displayed-vs-true error per tool, ranked
    best (smallest) first.  One series, so a single hue; exact values
    live in the tooltips and the table below."""
    rows = block["rows"]
    if not rows:
        return ""
    row_h, gap, left, right = 22, 8, 150, 90
    width = 640
    height = len(rows) * (row_h + gap) + 10
    plot_w = width - left - right
    vmax = max([r["mean_error"] for r in rows] + [1e-12])
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="Mean displayed-vs-true error per tool">'
    ]
    for row_i, r in enumerate(rows):
        y = row_i * (row_h + gap) + 4
        w = max(r["mean_error"] / vmax * plot_w, 2.0)
        parts.append(
            f'<text x="{left - 10}" y="{y + row_h / 2 + 4:.1f}" '
            f'class="tick" text-anchor="end">{_esc(r["tool"])}</text>'
            f'<rect x="{left}" y="{y}" width="{w:.1f}" '
            f'height="{row_h}" rx="2" fill="var(--series-1)">'
            f"<title>#{r['rank']} {_esc(r['tool'])}: mean error "
            f"{r['mean_error']:.3f}, worst {r['worst_error']:.3f} "
            f"({_esc(r['metric'])})</title></rect>"
            f'<text x="{left + w + 8:.1f}" y="{y + row_h / 2 + 4:.1f}" '
            f'class="tick">{r["mean_error"]:.3f}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _tune_trajectory_svg(block: dict) -> str:
    """Bar chart of the tuner's search trajectory: one bar per trial in
    rung order, kept survivors vs pruned configs as the two series,
    dashed separators between successive-halving rungs."""
    trials = block["trials"]
    if not trials:
        return ""
    width, height = 640, 260
    left, right, top, bottom = 60, 16, 14, 46
    plot_w, plot_h = width - left - right, height - top - bottom
    vmax = max(t["sim_seconds"] for t in trials) * 1.08
    vmax = max(vmax, 1e-12)
    slot_w = plot_w / len(trials)
    bar_w = max(min(slot_w - 6, 34), 3.0)
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="Autotuner search trajectory">'
    ]
    n_ticks = 4
    for i in range(n_ticks + 1):
        value = vmax * i / n_ticks
        y = top + plot_h - value / vmax * plot_h
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + plot_w}" '
            f'y2="{y:.1f}" class="grid"/>'
            f'<text x="{left - 8}" y="{y + 4:.1f}" class="tick" '
            f'text-anchor="end">{value * 1e3:.2f}</text>'
        )
    parts.append(
        f'<text x="{left - 44}" y="{top + plot_h / 2:.0f}" class="tick" '
        f'transform="rotate(-90 {left - 44} {top + plot_h / 2:.0f})" '
        f'text-anchor="middle">sim ms</text>'
    )
    prev_rung = None
    for i, trial in enumerate(trials):
        x0 = left + i * slot_w
        if trial["rung"] != prev_rung:
            if prev_rung is not None:
                parts.append(
                    f'<line x1="{x0:.1f}" y1="{top}" x2="{x0:.1f}" '
                    f'y2="{top + plot_h}" class="ideal"/>'
                )
            parts.append(
                f'<text x="{x0 + 2:.1f}" y="{height - bottom + 18}" '
                f'class="tick">rung {trial["rung"]} '
                f'({trial["steps"]} step'
                f'{"s" if trial["steps"] != 1 else ""})</text>'
            )
            prev_rung = trial["rung"]
        bar_h = trial["sim_seconds"] / vmax * plot_h
        y = top + plot_h - bar_h
        slot = 0 if trial["kept"] else 1
        color = f"var(--series-{slot + 1})"
        fate = "kept" if trial["kept"] else "pruned"
        steals = sum(trial.get("steals") or [])
        parts.append(
            f'<rect x="{x0 + (slot_w - bar_w) / 2:.1f}" y="{y:.1f}" '
            f'width="{bar_w:.1f}" height="{max(bar_h, 1):.1f}" rx="2" '
            f'fill="{color}"><title>{_esc(trial["label"])} @ rung '
            f'{trial["rung"]}: {trial["sim_seconds"] * 1e3:.3f} ms, '
            f"{steals} steals, {fate}</title></rect>"
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.0f}" y="{height - 6}" '
        f'class="axis-label" text-anchor="middle">trials in rung '
        f"order (fastest first within each rung)</text>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _timeline_svg(runs: List[dict]) -> str:
    """Per-process lanes: one bar per emitting process, single hue."""
    entries = [r for r in runs if r["seconds"] >= 0]
    if not entries:
        return ""
    t0 = min(r["start"] for r in entries)
    t1 = max(r["end"] for r in entries)
    span = max(t1 - t0, 1e-9)
    row_h, gap, left, right = 22, 8, 150, 90
    width = 640
    height = len(entries) * (row_h + gap) + 30
    plot_w = width - left - right
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="Per-process telemetry windows">'
    ]
    for row, run in enumerate(entries):
        y = row * (row_h + gap) + 6
        x = left + (run["start"] - t0) / span * plot_w
        w = max(run["seconds"] / span * plot_w, 2.0)
        label = f"{run['role']} {run['pid']}"
        parts.append(
            f'<text x="{left - 10}" y="{y + row_h / 2 + 4:.1f}" '
            f'class="tick" text-anchor="end">{_esc(label)}</text>'
            f'<rect x="{x:.1f}" y="{y}" width="{w:.1f}" '
            f'height="{row_h}" rx="2" fill="var(--series-1)">'
            f"<title>{_esc(label)}: {run['seconds']:.3f} s, "
            f"{run['n_spans']} spans, {run['hits']} hits / "
            f"{run['misses']} misses</title></rect>"
            f'<text x="{x + w + 8:.1f}" y="{y + row_h / 2 + 4:.1f}" '
            f'class="tick">{run["seconds"]:.2f} s</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


# -- the HTML document -------------------------------------------------------

_CSS = """
:root {
  color-scheme: light dark;
}
body {
  margin: 0;
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--surface-1);
  color: var(--text-primary);
}
.viz-root {
  --surface-1: #fcfcfb;
  --surface-2: #f0efec;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --grid: #e4e3df;
  --series-1: #2a78d6;
  --series-2: #eb6834;
  --series-3: #1baf7a;
  --series-4: #eda100;
  --series-5: #e87ba4;
  --series-6: #008300;
  max-width: 880px;
  margin: 0 auto;
  padding: 24px 20px 60px;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    --surface-1: #1a1a19;
    --surface-2: #383835;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --grid: #33332f;
    --series-1: #3987e5;
    --series-2: #d95926;
    --series-3: #199e70;
    --series-4: #c98500;
    --series-5: #d55181;
    --series-6: #008300;
  }
}
:root[data-theme="dark"] .viz-root {
  --surface-1: #1a1a19;
  --surface-2: #383835;
  --text-primary: #ffffff;
  --text-secondary: #c3c2b7;
  --grid: #33332f;
  --series-1: #3987e5;
  --series-2: #d95926;
  --series-3: #199e70;
  --series-4: #c98500;
  --series-5: #d55181;
  --series-6: #008300;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 8px; }
.sub { color: var(--text-secondary); margin: 0 0 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 18px 0; }
.tile {
  background: var(--surface-2);
  border-radius: 8px;
  padding: 10px 16px;
  min-width: 120px;
}
.tile .value { font-size: 22px; font-weight: 600; }
.tile .label { color: var(--text-secondary); font-size: 12px; }
svg { width: 100%; height: auto; display: block; }
svg text { font: 12px system-ui, sans-serif; fill: var(--text-secondary); }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .ideal {
  stroke: var(--text-secondary); stroke-width: 1.5;
  stroke-dasharray: 5 4;
}
svg .series-label, svg .axis-label { fill: var(--text-primary); }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0 2px; }
.legend span { display: inline-flex; align-items: center; gap: 6px;
  color: var(--text-secondary); font-size: 12px; }
.legend i { width: 12px; height: 12px; border-radius: 3px;
  display: inline-block; }
table { border-collapse: collapse; width: 100%; font-size: 13px; }
th, td { text-align: left; padding: 5px 10px;
  border-bottom: 1px solid var(--grid); }
th { color: var(--text-secondary); font-weight: 500; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
a { color: var(--series-1); }
code { background: var(--surface-2); border-radius: 4px;
  padding: 1px 5px; font-size: 12px; }
"""


def _legend(items: List[str]) -> str:
    chips = "".join(
        f'<span><i style="background:var(--series-'
        f'{slot % len(_SERIES) + 1})"></i>{_esc(name)}</span>'
        for slot, name in enumerate(items)
    )
    return f'<div class="legend">{chips}</div>'


def _tile(value: str, label: str) -> str:
    return (
        f'<div class="tile"><div class="value">{_esc(value)}</div>'
        f'<div class="label">{_esc(label)}</div></div>'
    )


def render_html(report: dict) -> str:
    """Render ``repro.report/1`` as one self-contained HTML page."""
    cache = report["cache"]
    trace = report["trace"]
    runs = report["runs"]
    workers = [r for r in runs if r["role"] == "worker"]
    tiles = [
        _tile(f"{cache['hit_rate'] * 100:.0f}%", "cache hit rate"),
        _tile(f"{cache['hits']}/{cache['lookups']}", "cache hits/lookups"),
        _tile(str(trace["n_shards"]), "shards fanned out"),
        _tile(str(len(workers)), "worker processes"),
        _tile(f"{report['wall_seconds']:.2f} s", "telemetry window"),
        _tile(str(trace["n_spans"]), "orchestration spans"),
    ]
    if report.get("chaos"):
        chaos = report["chaos"]
        tiles.append(
            _tile(f"{chaos['ok']}/{chaos['cases']}", "chaos cases ok")
        )
    tuned = (report.get("autotune") or {}).get("winner") or {}
    if tuned.get("speedup"):
        tiles.append(_tile(f"{tuned['speedup']:.2f}x", "tuned speedup"))
    resilience = report.get("resilience")
    if resilience:
        tiles.append(_tile(str(resilience["retries"]), "supervised retries"))
        if resilience["quarantined"]:
            tiles.append(
                _tile(str(resilience["quarantined"]), "specs quarantined")
            )

    sections: List[str] = []
    speedup = report.get("speedup")
    if speedup:
        names = sorted(speedup["curves"])
        sections.append(
            "<h2>Speedup vs threads</h2>"
            + (_legend(names) if len(names) > 1 else "")
            + _speedup_svg(speedup)
        )
    attribution = report.get("attribution")
    if attribution:
        sections.append(
            "<h2>Speedup-loss attribution (peak threads)</h2>"
            + _legend(attribution["buckets"])
            + _attribution_svg(attribution)
        )
    board = report.get("leaderboard")
    if board:
        grid = ""
        if board.get("workloads") and board.get("machines"):
            grid = (
                f" ({len(board['workloads'])} workloads x "
                f"{len(board['machines'])} machines)"
            )
        board_rows = "".join(
            f'<tr><td class="num">{r["rank"]}</td>'
            f"<td>{_esc(r['tool'])}</td>"
            f'<td class="num">{r["mean_error"]:.3f}</td>'
            f'<td class="num">{r["worst_error"]:.3f}</td>'
            f"<td>{_esc(r['metric'])}</td></tr>"
            for r in board["rows"]
        )
        jx = board.get("jxperf") or {}
        jx_note = ""
        if jx.get("top_site"):
            jx_note = (
                f"<p class=\"sub\">JXPerf top wasteful site on "
                f"{_esc(jx.get('workload', '?'))}: "
                f"<code>{_esc(jx['top_site'])}</code> "
                f"[{_esc(jx.get('top_class', ''))}]</p>"
            )
        sections.append(
            f"<h2>Tool-accuracy leaderboard{_esc(grid)}</h2>"
            + _leaderboard_svg(board)
            + "<table><tr><th class=\"num\">rank</th><th>tool</th>"
            + '<th class="num">mean err</th><th class="num">worst err'
            + "</th><th>metric</th></tr>"
            + board_rows
            + "</table>"
            + jx_note
        )
    tune = report.get("autotune")
    if tune:
        base = tune.get("baseline") or {}
        win = tune.get("winner") or {}
        scope = ""
        if tune.get("workload"):
            scope = (
                f" — {tune['workload']} x{tune.get('threads', '?')} on "
                f"{tune.get('machine', '?')}"
            )
        tune_rows = "".join(
            f"<tr><td>{_esc(kind)}</td><td>{_esc(row.get('label', '?'))}"
            f'</td><td class="num">'
            f"{row.get('sim_seconds', 0.0) * 1e3:.3f}</td>"
            f'<td class="num">{row.get("speedup", 0.0):.2f}x</td>'
            f'<td class="num">'
            f"{row.get('latch_idle_share', 0.0) * 100:.1f}%</td>"
            f'<td class="num">{sum(row.get("steals") or [])}</td></tr>'
            for kind, row in (("baseline", base), ("tuned", win))
            if row
        )
        diff_rows = "".join(
            f"<tr><td>{_esc(bucket)}</td>"
            f'<td class="num">{delta * 1e3:+.3f}</td></tr>'
            for bucket, delta in sorted(
                (tune.get("diff") or {}).items(), key=lambda kv: kv[1]
            )
            if delta
        )
        sections.append(
            f"<h2>Autotuner search trajectory{_esc(scope)}</h2>"
            '<p class="sub">successive halving over the proposed '
            "executor configs; each bar is one trial, the slower half "
            "of every rung is pruned</p>"
            + _legend(["kept", "pruned"])
            + _tune_trajectory_svg(tune)
            + "<table><tr><th>config</th><th>label</th>"
            '<th class="num">sim ms</th><th class="num">speedup</th>'
            '<th class="num">latch idle</th><th class="num">steals</th>'
            "</tr>"
            + tune_rows
            + "</table>"
            + (
                "<h2>Attribution diff (tuned − baseline)</h2>"
                "<table><tr><th>bucket</th>"
                '<th class="num">Δ ms</th></tr>'
                + diff_rows
                + "</table>"
                if diff_rows
                else ""
            )
        )
    if resilience:
        labels = (
            ("retries", "spec retries (with backoff)"),
            ("timeouts", "attempts killed on timeout"),
            ("pool_restarts", "pool restarts after worker deaths"),
            ("degraded", "degradations to serial execution"),
            ("quarantined", "specs quarantined as permanent failures"),
            ("put_failures", "cache writes absorbed as misses"),
            ("orphans_reaped", "orphaned temp files reaped"),
        )
        res_rows = "".join(
            f'<tr><td>{_esc(text)}</td>'
            f'<td class="num">{resilience[key]}</td></tr>'
            for key, text in labels
            if resilience[key]
        )
        sections.append(
            "<h2>Resilience</h2>"
            '<p class="sub">supervision and store-hardening activity '
            "during this run — a fault-free sweep shows none</p>"
            f"<table><tr><th>event</th><th class=\"num\">count</th></tr>"
            f"{res_rows}</table>"
        )
    sections.append(
        "<h2>Per-process timeline</h2>" + _timeline_svg(runs)
    )

    rows = "".join(
        f"<tr><td>{r['pid']}</td><td>{_esc(r['role'])}</td>"
        f'<td class="num">{r["seconds"]:.3f}</td>'
        f'<td class="num">{r["n_spans"]}</td>'
        f'<td class="num">{r["n_events"]}</td>'
        f'<td class="num">{r["hits"]}</td>'
        f'<td class="num">{r["misses"]}</td>'
        f'<td class="num">{r["minflt"]}</td>'
        f'<td class="num">{r["sys_s"]:.3f}</td>'
        f"<td>{_esc(', '.join(r['span_names']))}</td></tr>"
        for r in runs
    )
    table = (
        "<h2>Processes</h2><table>"
        "<tr><th>pid</th><th>role</th>"
        '<th class="num">seconds</th><th class="num">spans</th>'
        '<th class="num">events</th><th class="num">hits</th>'
        '<th class="num">misses</th><th class="num">unit minor faults</th>'
        '<th class="num">unit sys s</th><th>spans seen</th></tr>'
        f"{rows}</table>"
    )

    links: List[str] = [
        "<li><code>trace.json</code> — orchestration spans; open at "
        '<a href="https://ui.perfetto.dev">ui.perfetto.dev</a> '
        "(one span tree per shard worker)</li>",
        "<li><code>merged.jsonl</code> — the unified "
        "<code>repro.telemetry/1</code> timeline</li>",
        "<li><code>metrics.prom</code> — Prometheus text exposition</li>",
    ]
    for name in report.get("flamegraphs", []):
        links.append(
            f"<li><code>{_esc(name)}</code> — collapsed stacks; feed to "
            "flamegraph.pl or speedscope</li>"
        )

    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro sweep report — {_esc(report['machine'])}</title>
<style>{_CSS}</style>
</head>
<body>
<div class="viz-root">
<h1>Sweep report</h1>
<p class="sub">machine {_esc(report['machine'])} · trace
<code>{_esc(report['trace_id'][:16])}</code> ·
{trace['n_records']} telemetry records from
{len(runs)} process{'es' if len(runs) != 1 else ''}
{f" · {trace['skipped_lines']} malformed lines skipped"
 if trace['skipped_lines'] else ''}</p>
<div class="tiles">{''.join(tiles)}</div>
{''.join(sections)}
{table}
<h2>Artifacts</h2>
<ul>{''.join(links)}</ul>
</div>
</body>
</html>
"""


def write_report(
    run_dir: Union[str, os.PathLike],
    out_dir: Optional[Union[str, os.PathLike]] = None,
) -> Dict[str, str]:
    """Merge, export, and render one run directory; returns the paths."""
    root = Path(run_dir)
    out = Path(out_dir) if out_dir is not None else root
    out.mkdir(parents=True, exist_ok=True)
    records, skipped = _load(root)
    merged = write_merged(out, records)
    trace_path = out / "trace.json"
    write_orchestration_trace(trace_path, records)
    prom_path = out / "metrics.prom"
    write_prometheus(prom_path, registry_from_samples(records))
    report = _fold(root, records, skipped)
    json_path = out / "report.json"
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    html_path = out / "report.html"
    with open(html_path, "w", encoding="utf-8") as fh:
        fh.write(render_html(report))
    return {
        "merged": str(merged),
        "trace": str(trace_path),
        "metrics": str(prom_path),
        "json": str(json_path),
        "html": str(html_path),
    }
