"""Comparing a parent's runs with a change's runs.

Each run is one ``bench run`` results file.  For every (end-to-end
metric, workload) pair the n-th parent run is paired with the n-th
change run (run them alternately) and the pair gets one verdict:

* **regressed** — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* **improved** — the change wins at least 9/10 of all pairs (ties count
  for neither side) and the medians differ by more than the parent's
  own quartile spread;
* **unresolved** — neither, and the parent's quartile spread is wider
  than the bound, unless every change run reads better than every
  parent run;
* **unchanged** — otherwise.

``fail_ratio`` is compared on failed checks instead: any rise is a
regression.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence

WIN_SHARE = 0.9


def load_run(path: Path) -> dict:
    """A results document, from its file or the ``--out`` directory."""
    path = Path(path)
    if path.is_dir():
        path = path / "results.json"
    return json.loads(path.read_text())


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str = "lower") -> str:
    """The rule above for one pair; values are one median per run."""
    sign = 1.0 if better == "lower" else -1.0
    p = [sign * v for v in parent]
    c = [sign * v for v in change]
    pm, cm = statistics.median(p), statistics.median(c)
    if len(p) > 1:
        q1, _, q3 = statistics.quantiles(p, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    if cm - pm > bound * abs(pm):
        return "regressed"
    pairs = list(zip(p, c))
    wins = sum(cv < pv for pv, cv in pairs)
    if pairs and wins >= WIN_SHARE * len(pairs) and pm - cm > iqr:
        return "improved"
    if iqr > bound * abs(pm) and not max(c) < min(p):
        return "unresolved"
    return "unchanged"


def _values(runs: List[dict], workload: str, metric: str) -> List[float]:
    return [r["workloads"][workload]["end_to_end"][metric]["value"]
            for r in runs]


def compare(parents: List[dict], changes: List[dict],
            spec: dict) -> List[dict]:
    """One row per workload: ``{"workload", metric: verdict, ...}``."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for name in parents[0]["workloads"]:
        row: Dict[str, str] = {"workload": name}
        for metric, m in metrics.items():
            row[metric] = verdict(
                _values(parents, name, metric),
                _values(changes, name, metric),
                m["bound"], m["better"],
            )
        failed_before = sum(r["workloads"][name]["failed"] for r in parents)
        failed_after = sum(r["workloads"][name]["failed"] for r in changes)
        row["fail_ratio"] = (
            "regressed" if failed_after > failed_before else "unchanged"
        )
        rows.append(row)
    return rows


def _quartiles(values: Sequence[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.5g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.5g} ({q1:.5g}–{q3:.5g})"


def detail_rows(parents: List[dict], changes: List[dict],
                spec: dict) -> List[str]:
    """Each side's median and quartiles of the per-run values, per
    (workload, end-to-end metric)."""
    lines = [
        f"{'workload':<15}{'metric':<13}{'parent median (q1–q3)':>30}"
        f"{'change median (q1–q3)':>30}"
    ]
    for name in parents[0]["workloads"]:
        for m in spec["end_to_end"]:
            lines.append(
                f"{name:<15}{m['name']:<13}"
                f"{_quartiles(_values(parents, name, m['name'])):>30}"
                f"{_quartiles(_values(changes, name, m['name'])):>30}"
            )
    return lines


def format_rows(rows: List[dict]) -> List[str]:
    columns = [k for k in rows[0] if k != "workload"]
    lines = [f"{'workload':<15}" + "".join(f"{c:>13}" for c in columns)]
    for row in rows:
        lines.append(
            f"{row['workload']:<15}"
            + "".join(f"{row[c]:>13}" for c in columns)
        )
    return lines
