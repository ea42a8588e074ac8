"""Host-time benchmark of ``repro`` sweeps.

Four workloads, each measured in fresh subprocesses: end-to-end wall
time, CPU time, set-up time, peak memory and failures per sweep, plus a
traced pass that times every layer from outside the program.  See
``bench/README.md``.
"""
