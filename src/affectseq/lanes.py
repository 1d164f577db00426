"""The package's concurrency, sized by :func:`usable_cpus` (no setting;
``taskset`` narrows it): threads for numpy work, which releases the
interpreter lock, and forked processes for work Python itself runs.

:func:`in_threads` runs the first job on the calling thread and the
others on ``min(jobs, usable CPUs) - 1`` threads named
``affectseq-encoder`` that the call starts and joins; the model's
modality encoders run this way.

:func:`in_processes` returns each job's result, in job order, from
``k = min(jobs, usable CPUs)`` lanes when the process runs one Python
thread and can fork: this process runs jobs 0, k, 2k, ... and each of
k - 1 forked children jobs j, j + k, ..., appending each result, pickled
behind its length, to an unlinked spool file opened before the fork. A
child never waits for this process, however large its results. Lane k
runs on CPU ``cpus[k % len(cpus)]`` of the calling thread's affinity
set, in order, because a freshly forked child may otherwise share its
parent's CPU for its whole life. This process pins each child as soon
as it is forked, so that the child does not first wait for this
thread's CPU; the child pins itself again before its first job; and the
calling thread is pinned to ``cpus[0]`` once the children are forked.
Where threads cannot be pinned, nothing is. Once the call's work is
done, the calling thread gets its whole set back, every child is
reaped, and this process reads back each complete record and runs
again, in job order, each job that no lane finished, so a failure is
raised as a one-lane run raises it and no child outlives the call. A
job that warns in a child is not finished there: it runs again here,
where its warning is shown.

:func:`per_track` runs the per-track jobs of a dataset's reads, a
prediction directory's reads and writes, and ``smooth``'s filtering on
these lanes once they handle the one floor of ``_FORK_VALUES`` values.
"""

from __future__ import annotations

import contextlib
import gc
import os
import pickle
import tempfile
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import BinaryIO, Callable, Iterator, Sequence


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or
    ``os.cpu_count()`` where the platform has none."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _pin(cpus: list[int], lane: int | None = None, pid: int = 0) -> None:
    """Keep process ``pid`` (0: this thread) to lane ``lane``'s CPU,
    ``cpus[lane % len(cpus)]``, or to all of ``cpus`` when ``lane`` is
    None; nothing where threads cannot be pinned (``cpus`` empty)."""
    if cpus:
        with contextlib.suppress(OSError):  # a CPU gone offline, or a child gone
            os.sched_setaffinity(pid, cpus if lane is None else [cpus[lane % len(cpus)]])


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


_UNDONE = object()  # the result of a job that no lane finished


def in_processes(jobs: Sequence[Callable[[], object]]) -> list:
    """Each job's result, in job order; the first failure in job order is
    raised, and jobs after it may have run in other lanes."""
    lanes = min(len(jobs), usable_cpus())
    if lanes < 2 or not hasattr(os, "fork") or threading.active_count() != 1:
        return [job() for job in jobs]
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    results = [_UNDONE] * len(jobs)
    children = []
    try:
        for lane in range(1, lanes):
            child = _fork_lane(jobs, lane, lanes, cpus)
            if child is None:
                break  # the lanes that did not start are run below
            children.append(child)
            _pin(cpus, lane, child[0])  # it may be queued behind this thread until it runs
        _pin(cpus, 0)
        with contextlib.suppress(Exception):  # a failed job runs again below, in job order
            for i in range(0, len(jobs), lanes):
                results[i] = jobs[i]()
    finally:
        _pin(cpus)  # threads started after the call see the whole set
        with contextlib.ExitStack() as spools:
            for pid, spool in children:
                spools.enter_context(spool)
                os.waitpid(pid, 0)
            for lane, (_, spool) in enumerate(children, start=1):
                for i, result in zip(range(lane, len(jobs), lanes), _spooled(spool)):
                    results[i] = result
    return [job() if result is _UNDONE else result for job, result in zip(jobs, results)]


# Starting and reaping a child process costs about as much as writing
# several thousand values, so work over fewer values than this runs inline.
_FORK_VALUES = 2 ** 14


def per_track(jobs: Sequence[Callable[[], object]], values: int) -> list:
    """Each per-track job's result, in job order: from the lanes of
    :func:`in_processes` when the jobs handle at least ``_FORK_VALUES``
    values in all, else inline."""
    return in_processes(jobs) if values >= _FORK_VALUES else [job() for job in jobs]


def _fork_lane(jobs: Sequence, lane: int, lanes: int,
               cpus: list[int]) -> tuple[int, BinaryIO] | None:
    """(pid, spool file) of a child that pins itself to its lane's CPU of
    ``cpus``, runs jobs ``lane``, ``lane + lanes``, ..., spools each result
    and exits at its first failure or warning, or after its last job; None
    when no child can start."""
    try:
        spool = tempfile.TemporaryFile()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        spool.close()
        return None
    if pid == 0:
        try:
            _pin(cpus, lane)
            gc.disable()  # collecting would touch, and so copy, the parent's heap
            warnings.simplefilter("error")  # so the parent runs the job again, and shows it
            for i in range(lane, len(jobs), lanes):
                record = pickle.dumps(jobs[i](), pickle.HIGHEST_PROTOCOL)
                spool.write(len(record).to_bytes(8, "little"))
                spool.write(record)
                spool.flush()  # a later failure or kill loses no finished result
        finally:
            os._exit(0)  # never return into the parent's stack
    return pid, spool


def _spooled(spool: BinaryIO) -> Iterator[object]:
    """The results a reaped child spooled, up to its first incomplete record."""
    spool.seek(0)
    while len(head := spool.read(8)) == 8:
        size = int.from_bytes(head, "little")
        record = spool.read(size)
        if len(record) < size:
            return
        yield pickle.loads(record)
