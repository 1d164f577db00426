"""The package's concurrency, sized by :func:`usable_cpus` (no setting;
``taskset`` narrows it): threads for numpy work, which releases the
interpreter lock, and forked processes for work Python itself runs.

:func:`in_threads` runs the first job on the calling thread and the
others on ``min(jobs, usable CPUs) - 1`` threads named
``affectseq-encoder`` that the call starts and joins; the model's
modality encoders run this way.

:func:`in_processes` runs jobs from ``k = min(jobs, usable CPUs)`` lanes
when the process runs one Python thread and can fork: this process runs
jobs 0, k, 2k, ... and each of k - 1 forked children jobs j, j + k, ...,
sending one byte per finished job on a pipe (a job writes its own
output). Once every child is reaped, this process runs again, in job
order, each job that no lane finished, so a failure is raised as a
one-lane run raises it and no child outlives the call. ``dataio`` writes
a large prediction directory this way.
"""

from __future__ import annotations

import contextlib
import gc
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import BinaryIO, Callable, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or
    ``os.cpu_count()`` where the platform has none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def in_threads(jobs: Sequence[Callable[[], object]]) -> list:
    """Each job's result, in order; once every job has ended and its thread
    has exited, the first failure in job order is raised, as inline."""
    workers = min(len(jobs), usable_cpus()) - 1
    if workers < 1:
        return [job() for job in jobs]
    # leaving the block waits for every job, also when the first one raises
    with ThreadPoolExecutor(workers, "affectseq-encoder") as pool:
        futures = [pool.submit(job) for job in jobs[1:]]
        first = jobs[0]()
    return [first] + [future.result() for future in futures]


def in_processes(jobs: Sequence[Callable[[], object]]) -> None:
    """Run every job; the first failure in job order is raised, and jobs
    after it may have run in other lanes."""
    lanes = min(len(jobs), usable_cpus())
    if lanes < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        lanes = 1
    done = [False] * len(jobs)
    children = []
    try:
        for lane in range(1, lanes):
            child = _fork_lane(jobs, lane, lanes)
            if child is None:
                break  # the lanes that did not start are run below
            children.append(child)
        with contextlib.suppress(Exception):  # a failed job runs again below, in job order
            for i in range(0, len(jobs), lanes):
                jobs[i]()
                done[i] = True
    finally:
        for lane, (pid, pipe) in enumerate(children, start=1):
            with pipe:
                reported = len(pipe.read())
            os.waitpid(pid, 0)
            done[lane:lane + reported * lanes:lanes] = [True] * reported
    for job, finished in zip(jobs, done):
        if not finished:
            job()


def _fork_lane(jobs: Sequence, lane: int, lanes: int) -> tuple[int, BinaryIO] | None:
    """(pid, read end of its pipe) of a child that runs jobs ``lane``,
    ``lane + lanes``, ..., sends one byte per finished job and exits at
    its first failure or after its last job; None when no child can start."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        try:
            gc.disable()  # collecting would touch, and so copy, the parent's heap
            for i in range(lane, len(jobs), lanes):
                jobs[i]()
                os.write(write, b"\0")
        finally:
            os._exit(0)  # never return into the parent's stack
    os.close(write)
    return pid, os.fdopen(read, "rb")
