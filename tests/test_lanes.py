"""One CPU count, ``lanes.usable_cpus``, sizes both runners: the encoder
threads of ``lanes.in_threads`` and the forked lanes of
``lanes.in_processes``, which read datasets, read, filter and write
prediction tracks, and hand each job's result back in job order. Each
lane runs on its own CPU of the caller's affinity set."""

import io
import os
import signal
import tempfile
import threading
import time
import warnings

import numpy as np
import pytest

from affectseq import lanes, model
from affectseq.cli import main
from affectseq.config import parse_config
from affectseq.dataio import SynthSpec, load_prediction_dirs, save_prediction_dir, synth_generate
from affectseq.lanes import _FORK_VALUES


def test_one_cpu_count_drives_threads_and_forks(monkeypatch, tmp_path):
    """``predict`` over two modalities reads 2 x 4100 x 3 = 24,600 feature
    values and writes 2 x 4100 x 2 = 16,400: at one usable CPU it starts
    no encoder thread and forks no child, at two it starts encoder threads
    and forks twice, once to read and once to write, and it writes the
    same bytes at both."""
    assert 2 * 4100 * 2 >= _FORK_VALUES
    manifest = synth_generate(SynthSpec(num_movies=2, length=4100,
                                        modalities=(("audio", 1), ("image", 2))),
                              tmp_path / "data", 1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"manifest = {manifest.path}\nprofile = run1\nsequence_length = 2\n"
                   "hidden_units = 2\nbatch_size = 4096\n")
    model.init_model_params(parse_config(cfg).model_config(), 0).save(tmp_path / "model.ckpt")
    threads, forks = set(), []
    encode, fork = model.encode_batch_graph, os.fork

    def encode_recorded(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return encode(*args, **kwargs)

    def fork_counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(model, "encode_batch_graph", encode_recorded)
    monkeypatch.setattr(os, "fork", fork_counted)
    written = []
    for cpus in (1, 2):
        threads.clear()
        forks.clear()
        monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["predict", "--config", str(cfg), "--checkpoint",
                     str(tmp_path / "model.ckpt"), "--out", str(out)]) == 0
        pooled = {name for name in threads if name.startswith("affectseq-encoder")}
        assert (len(forks), bool(pooled)) == (2 * (cpus - 1), cpus == 2), cpus
        assert threading.current_thread().name in threads
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert sorted(written[0]) == ["m000.csv", "m001.csv"]
    assert written[0] == written[1]
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("affectseq-encoder")]


@pytest.fixture
def spools(monkeypatch):
    """Every spool file ``in_processes`` opens."""
    opened = []
    make = tempfile.TemporaryFile

    def recorded(*args, **kwargs):
        opened.append(make(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    return opened


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_results_come_back_in_job_order(monkeypatch, cpus, forks, spools):
    """Each result, a track larger than a pipe's buffer or a one-row one, is
    returned in job order from the lane that made it; every spool is
    closed and every child reaped."""
    def track(i):
        return np.full((3600 if i < 2 else 1, 2), i / 7)

    monkeypatch.setattr(lanes, "usable_cpus", lambda: cpus)
    results = lanes.in_processes([lambda i=i: (os.getpid(), track(i)) for i in range(5)])
    assert [values.tobytes() for _, values in results] == [track(i).tobytes() for i in range(5)]
    pids = [pid for pid, _ in results]
    assert [pid == os.getpid() for pid in pids] == [i % cpus == 0 for i in range(5)]
    assert len(set(pids)) == cpus
    assert len(forks) == len(spools) == cpus - 1
    assert all(spool.closed for spool in spools)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_result_a_killed_child_left_half_written_is_made_here(monkeypatch):
    """A child killed halfway through spooling a result leaves an
    incomplete record, which is dropped, and this process runs the job."""
    parent, make = os.getpid(), tempfile.TemporaryFile

    class Dying(io.BufferedRandom):
        def write(self, data):
            if os.getpid() != parent and len(data) > 1000:
                super().write(data[:len(data) // 2])
                self.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            return super().write(data)

    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: Dying(make(buffering=0)))
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    results = lanes.in_processes([os.getpid, lambda: (os.getpid(), np.arange(1000.0))])
    assert results[0] == results[1][0] == parent
    assert results[1][1].tobytes() == np.arange(1000.0).tobytes()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_child_lane_never_waits_for_this_lane(monkeypatch, tmp_path):
    """The child spools a 256 KB result, then marks a file that this
    process's lane waits for: a result sent through a pipe that this
    process drains only after its lane would block the child first."""
    marker = tmp_path / "marker"

    def wait_for_marker():
        deadline = time.monotonic() + 30
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        return marker.exists()

    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    results = lanes.in_processes([wait_for_marker, lambda: np.zeros(2 ** 15),
                                  lambda: None, marker.touch])
    assert results[0] is True
    assert results[1].tobytes() == np.zeros(2 ** 15).tobytes()


def test_a_job_that_warns_in_a_child_runs_again_here(monkeypatch):
    """The child stops at the warning, and this process runs the job again
    and shows its warning, as a one-lane run would."""
    def warning():
        warnings.warn("shown here", UserWarning)
        return os.getpid()

    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        results = lanes.in_processes([os.getpid, warning])
    assert results == [os.getpid()] * 2
    assert [str(w.message) for w in shown] == ["shown here"]


def test_fork_after_blas_threads_start_does_not_warn(monkeypatch, forks):
    """Python 3.12 and later warn when a process that runs several OS
    threads forks; OpenBLAS starts its threads for a product this large.
    The warning is recorded, not raised: ``os.fork`` clears a warning
    raised as an error, so an error filter would hide it."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(512, 512))
    assert np.isfinite(a @ a).all()
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert lanes.in_processes([lambda: 1, lambda: 2]) == [1, 2]
    assert len(forks) == 1
    assert not [str(w.message) for w in shown if issubclass(w.category, DeprecationWarning)]


CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
two_cpus = pytest.mark.skipif(len(CPUS) < 2, reason="needs two usable CPUs")


def affinity():
    return os.sched_getaffinity(0)


@two_cpus
def test_each_lane_runs_on_its_own_cpu(monkeypatch):
    """Lane k, which runs jobs k, k + 2, ..., runs on the k-th CPU of the
    caller's affinity set."""
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    assert lanes.in_processes([affinity] * 4) == [{CPUS[0]}, {CPUS[1]}] * 2
    assert affinity() == set(CPUS)


@two_cpus
def test_the_caller_gets_its_whole_set_back_when_a_job_raises(monkeypatch):
    """The failed job runs again inline on the caller's whole set, after
    the lanes, and the caller keeps that set."""
    seen = []

    def failing():
        seen.append(affinity())
        raise ValueError("job failed")

    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    with pytest.raises(ValueError, match="job failed"):
        lanes.in_processes([failing, affinity])
    assert seen == [{CPUS[0]}, set(CPUS)]
    assert affinity() == set(CPUS)


@two_cpus
def test_more_lanes_than_cpus_take_the_cpus_in_turn(monkeypatch, forks):
    count = len(CPUS) + 1
    monkeypatch.setattr(lanes, "usable_cpus", lambda: count)
    assert lanes.in_processes([affinity] * count) == [{CPUS[k % len(CPUS)]}
                                                      for k in range(count)]
    assert len(forks) == count - 1
    assert affinity() == set(CPUS)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not CPUS, reason="no affinity masks")
def test_nothing_is_pinned_where_threads_cannot_be(monkeypatch):
    monkeypatch.delattr(os, "sched_setaffinity")
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    assert lanes.in_processes([affinity] * 2) == [set(CPUS)] * 2


@pytest.mark.parametrize("movies, length, modalities, read_forks", [
    (3, 200, (("audio", 8), ("image", 8)), 0),  # paper_train: 3 x 200 x 18 = 10,800 values
    (2, 40, (("audio", 1582), ("image", 2048)), 1),  # wide_infer: 2 x 40 x 3630 = 290,400
])
def test_dataset_reads_fork_at_wide_infer_size_only(monkeypatch, tmp_path, forks, movies,
                                                    length, modalities, read_forks):
    """``train`` and ``predict`` fork for their dataset read only when it
    holds at least ``_FORK_VALUES`` declared values; their other outputs
    are too small to fork at these sizes."""
    dims = sum(dim for _, dim in modalities)
    assert (movies * length * (dims + 2) >= _FORK_VALUES) == bool(read_forks)
    manifest = synth_generate(SynthSpec(num_movies=movies, length=length,
                                        modalities=modalities), tmp_path / "data", 1)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"manifest = {manifest.path}\nprofile = run1\nsequence_length = 2\n"
                   "hidden_units = 2\nbatch_size = 4096\nepochs = 1\n")
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    forks.clear()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")]) == 0
    assert len(forks) == read_forks
    assert main(["predict", "--config", str(cfg), "--checkpoint",
                 str(tmp_path / "train" / "model.ckpt"), "--out", str(tmp_path / "raw")]) == 0
    assert len(forks) == 2 * read_forks


def affect_dirs(root, movies: int, length: int):
    """A synthetic dataset's annotations and two noisy prediction runs of
    ``movies`` tracks of ``length`` s."""
    manifest = synth_generate(SynthSpec(num_movies=movies, length=length,
                                        modalities=(("audio", 1),)), root / "data", 1)
    annotations = load_prediction_dirs(manifest.root / "annotations")[0]
    runs = []
    for k in (1, 2):
        rng = np.random.default_rng(k)
        save_prediction_dir({movie: values + rng.normal(0.0, 0.3, values.shape)
                             for movie, values in annotations.items()}, root / f"raw{k}")
        runs.append(str(root / f"raw{k}"))
    return str(manifest.root / "annotations"), runs


def post_chain(annotations: str, runs: list[str], out) -> list[list[str]]:
    smoothed = [str(out / f"smooth{k}") for k in range(len(runs))]
    return [*(["smooth", "--predictions", raw, "--out", smooth, "--smoother", "butterworth"]
              for raw, smooth in zip(runs, smoothed)),
            ["ensemble", "--runs", *smoothed, "--out", str(out / "mean")],
            ["evaluate", "--predictions", str(out / "mean"), "--annotations", annotations,
             "--out", str(out / "eval")]]


def test_post_chain_writes_the_same_bytes_at_one_and_two_cpus(monkeypatch, tmp_path, forks):
    """``smooth``, ``ensemble`` and ``evaluate`` over directories of 16,400
    values fork at two usable CPUs, once per read pass and once per write,
    and write the same tracks and reports as at one."""
    annotations, runs = affect_dirs(tmp_path, 2, 4100)
    assert 2 * 4100 * 2 >= _FORK_VALUES
    written = []
    for cpus in (1, 2):
        forks.clear()
        monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
        out = tmp_path / f"cpus{cpus}"
        for argv in post_chain(annotations, runs, out):
            assert main(argv) == 0
        assert len(forks) == (cpus - 1) * (2 + 2 + 2 + 1)
        written.append({str(path.relative_to(out)): path.read_bytes()
                        for path in sorted(out.rglob("*")) if path.is_file()})
    assert len(written[0]) == 2 * 2 + 2 + 2
    assert written[0] == written[1]


@pytest.mark.parametrize("movies, length", [(3, 200), (2, 40)])
def test_small_directories_never_fork(monkeypatch, tmp_path, forks, movies, length):
    """At ``paper_train``'s 3 x 200 s and ``wide_infer``'s 2 x 40 s, every
    directory is below the fork floor, so a fork's cost never lands on
    those workloads."""
    annotations, runs = affect_dirs(tmp_path, movies, length)
    monkeypatch.setattr(lanes, "usable_cpus", lambda: 2)
    forks.clear()
    for argv in post_chain(annotations, runs, tmp_path / "out"):
        assert main(argv) == 0
    assert forks == []


def raw_dir(root, lengths: dict[str, int]):
    """A prediction directory of noise tracks of the given lengths."""
    rng = np.random.default_rng(4)
    save_prediction_dir({movie: rng.normal(size=(length, 2))
                         for movie, length in lengths.items()}, root / "raw")
    return root / "raw"


def test_smooth_warns_once_per_short_track_in_name_order(monkeypatch, tmp_path, capsys, forks):
    """``smooth`` prints one ``warning: <path>: <message>`` line per track
    too short for its Butterworth padding, in name order, and the same
    lines at one and two usable CPUs, where the short m001 and m003 fall
    in the child's lane."""
    raw = raw_dir(tmp_path, {"m000": 2400, "m001": 8, "m002": 2400, "m003": 4, "m004": 2400,
                             "m005": 2400})
    errs = []
    for cpus in (1, 2):
        forks.clear()
        monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
        assert main(["smooth", "--predictions", str(raw), "--out",
                     str(tmp_path / f"cpus{cpus}")]) == 0
        assert len(forks) == 2 * (cpus - 1)  # one read-and-filter pass, one write
        errs.append(capsys.readouterr().err)
    short = "is too short for order 2 (needs > 9); using a uniform moving average of width"
    assert errs == [f"warning: {raw / 'm001.csv'}: track of length 8 {short} 5\n"
                    f"warning: {raw / 'm003.csv'}: track of length 4 {short} 3\n"] * 2


def test_smooth_names_the_first_faulty_track_in_name_order(monkeypatch, tmp_path, capsys,
                                                           forks):
    """``smooth`` checks each track in the job that reads it, so the first
    faulty track in name order is named whatever its fault and lane: m000
    is shorter than the moving average's weights, and m001, in the child's
    lane at two CPUs, holds a bad token."""
    raw = raw_dir(tmp_path, {"m000": 3, **{f"m00{i}": 2400 for i in range(1, 5)}})
    path = raw / "m001.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[4] = "m001,3,1_0," + lines[4].split(",", 3)[3]
    path.write_text("".join(lines))
    for cpus in (1, 2):
        forks.clear()
        monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
        assert main(["smooth", "--smoother", "moving_average", "--predictions", str(raw),
                     "--out", str(tmp_path / "out")]) == 2
        assert len(forks) == cpus - 1
        assert capsys.readouterr().err == (f"affectseq: {raw / 'm000.csv'}: track of length 3 "
                                           "is shorter than the 5 weights of ma_weights\n")
        assert not (tmp_path / "out").exists()
