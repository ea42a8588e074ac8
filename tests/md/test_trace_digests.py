"""Pinned trace bytes: the reference for byte identity.

Each digest is the SHA-256 of the run-cache artifact bytes
(``dumps_artifact``) of ``capture_trace(BUILDERS[w](seed=0), n)``,
recorded with the engine before the per-step loop and the batched
ensemble drivers were folded into one lockstep engine.  Any change to
what an engine reports, or to how a report pickles, shows here: such a
change would silently invalidate every run-cache entry and journal.

Two more digests, recorded with the gather-based Coulomb kernel before
it was rewritten over contiguous ring blocks, pin the Coulomb cases the
paper workloads do not reach: a three-run lockstep batch, and a system
with uncharged atoms between charged ones and some charged atoms fixed.
"""

import hashlib

import pytest

from repro.core.simulate import capture_trace
from repro.ensemble import ensemble_capture
from repro.runcache.store import dumps_artifact
from repro.workloads import BUILDERS

DIGESTS = {
    ("salt", 20):
        "d283b7cea33d1bc2d18fa2c3e723e3cc01ce72772d462bfbc1cd19c6ec4cdcae",
    ("nanocar", 20):
        "6150d959077c55e4f8ea0200102ca7199613d7c3a291549ad82010b4955f657b",
    ("Al-1000", 20):
        "deb9dfa247e199971c5c53a85db2c72a5d6a063c271c9c05f18242732b4cc6d5",
    ("gas-8", 3):
        "5cb4bd6e7ad8c65b0a549f3f877b4d76a7638ef1bca5f3ebd6ed60482c0905c6",
    ("gas-16", 3):
        "ad815f3526663c71dcd29565fed78031af99ae6fa27f04f5377b0aacbd31798c",
    ("lj-32", 3):
        "76799ded72bba21abb431d8ffa56bd14332e5339515c514b05e307577b0502fe",
    ("ionic-64", 3):
        "0adf249a6f8f82e38c46c2bcf4f967ecb004e547a5fbceaa01ad8c47ed0201fc",
}


@pytest.mark.parametrize("workload, steps", sorted(DIGESTS))
def test_capture_bytes_match_pinned_digest(workload, steps):
    trace = capture_trace(BUILDERS[workload](seed=0), steps)
    digest = hashlib.sha256(dumps_artifact(trace)).hexdigest()
    assert digest == DIGESTS[(workload, steps)]


def _digest(artifact) -> str:
    return hashlib.sha256(dumps_artifact(artifact)).hexdigest()


def test_ionic_three_seed_lockstep_bytes_match_pinned_digest():
    traces = ensemble_capture("ionic-64", 3, [0, 1, 2])
    assert _digest(traces) == (
        "221ca16eb89c84fde6f39db60ba74cdffddc4b513dbbe3d7f484bc9f1fccfc44"
    )


def test_mixed_charge_capture_bytes_match_pinned_digest():
    """ionic-64 with every fifth atom neutral (51 charged atoms, not a
    contiguous index range) and every seventh atom fixed (7 of them
    charged)."""
    workload = BUILDERS["ionic-64"](seed=0)
    s = workload.system
    s.charges[::5] = 0.0
    s.movable[3::7] = False
    s.velocities[~s.movable] = 0.0
    assert _digest(capture_trace(workload, 5)) == (
        "7cfee875466aeaa48caed4c6ccc93e1ed8aac070fd2461b2714e389dc2f3b385"
    )
