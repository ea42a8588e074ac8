"""Helpers shared by the experiment benchmarks."""

import pathlib

#: timesteps of real physics per workload (the paper ran 10,000-20,000;
#: the speedup/topology shapes stabilize within tens of steps)
TRACE_STEPS = 20


def write_report(path: pathlib.Path, title: str, body: str) -> None:
    """Persist a regenerated table/figure and echo it to stdout."""
    text = f"== {title} ==\n\n{body}\n"
    path.write_text(text)
    print("\n" + text)
