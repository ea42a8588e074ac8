"""Many independent runs per sweep, through one engine.

A parameter sweep over seeds repeats the same physics pipeline dozens
to thousands of times on systems that differ only in their kinematic
state.  Stepping each run on its own pays the full per-call
numpy/Python overhead per run — the dominant cost for the small systems
sweeps use.  The MD engine (:class:`~repro.md.engine.MDEngine`) can
instead advance ``R`` runs in lockstep on ``(R, N, 3)`` stacks; this
package puts seed batches through it:

* :func:`~repro.ensemble.engine.ensemble_capture` captures one trace
  per seed, each byte-identical (pickle protocol 4) to that seed's
  one-run capture, which keeps the content-addressed run cache sound.
* :mod:`~repro.ensemble.routing` tells the sweep supervisor which
  capture misses form one batch.  A batch is one unit of work like any
  single spec: the supervisor runs it in-process or in a pool worker,
  and each run is published under its own spec digest with its own
  journal records — cache/journal/leaderboard consumers see no
  difference.

Runs that cannot share one pipeline raise
:class:`~repro.md.engine.EnsembleUnsupported`; the supervisor then
runs them one spec at a time.
"""

from repro.ensemble.engine import EnsembleUnsupported, ensemble_capture

__all__ = [
    "EnsembleUnsupported",
    "ensemble_capture",
]
