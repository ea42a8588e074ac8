"""Tests for XYZ trajectory output."""

import io

import numpy as np
import pytest

from repro.md import AtomSystem, LennardJonesForce, MDEngine
from repro.md.io import XyzTrajectoryWriter, write_xyz_frame


def small_system():
    s = AtomSystem([20.0, 20.0, 20.0])
    s.add_atoms("Al", [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    s.add_atoms("Au", [[7.0, 8.0, 9.0]])
    return s


def xyz_frames(text):
    """``(header, comment, symbols, coordinate text)`` per frame of
    written XYZ text; the header gives each frame's length."""
    lines = text.splitlines()
    frames = []
    while lines:
        header, comment = lines[0], lines[1]
        rows = [line.split() for line in lines[2:2 + int(header)]]
        frames.append((
            header, comment, [r[0] for r in rows], [r[1:] for r in rows],
        ))
        lines = lines[2 + int(header):]
    return frames


def coords(system):
    """``system``'s positions as XYZ writes them: 6 decimals."""
    return [[f"{v:.6f}" for v in row] for row in system.positions]


def test_write_read_roundtrip():
    s = small_system()
    buf = io.StringIO()
    write_xyz_frame(buf, s, comment="frame zero")
    frames = xyz_frames(buf.getvalue())
    assert len(frames) == 1
    header, comment, symbols, xyz = frames[0]
    assert header == "3"
    assert comment == "frame zero"
    assert symbols == ["Al", "Al", "Au"]
    assert xyz == coords(s)


def test_multi_frame_read():
    s = small_system()
    buf = io.StringIO()
    written = []
    for k in range(3):
        s.positions += 0.5
        write_xyz_frame(buf, s, comment=f"k={k}")
        written.append(coords(s))
    frames = xyz_frames(buf.getvalue())
    assert len(frames) == 3
    assert [f[1] for f in frames] == ["k=0", "k=1", "k=2"]
    assert [f[3] for f in frames] == written
    assert np.allclose(
        np.array(frames[1][3], dtype=float),
        np.array(frames[0][3], dtype=float) + 0.5,
    )


def test_trajectory_writer_every(tmp_path):
    s = AtomSystem([30.0, 30.0, 30.0])
    s.add_atoms("Al", [[10, 10, 10], [13, 10, 10]])
    engine = MDEngine(s, [LennardJonesForce()], dt_fs=1.0)
    path = tmp_path / "traj.xyz"
    written = []
    with XyzTrajectoryWriter(path, every=2) as writer:
        for step in range(6):
            engine.step()
            writer.frame(engine)
            if step % 2 == 0:
                written.append(coords(s))
    assert writer.frames_written == 3
    frames = xyz_frames(path.read_text())
    assert len(frames) == 3
    assert [f[0] for f in frames] == ["2"] * 3
    assert [f[1] for f in frames] == ["step=1", "step=3", "step=5"]
    assert [f[2] for f in frames] == [["Al", "Al"]] * 3
    assert [f[3] for f in frames] == written


def test_trajectory_writer_validation(tmp_path):
    with pytest.raises(ValueError):
        XyzTrajectoryWriter(tmp_path / "x.xyz", every=0)
    writer = XyzTrajectoryWriter(tmp_path / "x.xyz")
    with pytest.raises(RuntimeError):
        writer.frame(None)
