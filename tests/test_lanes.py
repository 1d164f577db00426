"""One CPU count, ``lanes.usable_cpus``, sizes both runners: the encoder
threads of ``lanes.in_threads`` and the forked track writers of
``lanes.in_processes``."""

import os
import threading

from affectseq import lanes, model
from affectseq.cli import main
from affectseq.config import parse_config
from affectseq.dataio import _FORK_VALUES, SynthSpec, synth_generate


def test_one_cpu_count_drives_threads_and_forks(monkeypatch, tmp_path):
    """``predict`` over two modalities writes 2 x 4100 x 2 = 16,400
    values: at one usable CPU it starts no encoder thread and forks no
    child, at two it does both, and it writes the same bytes at both."""
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
        assert (len(forks), bool(pooled)) == (cpus - 1, cpus == 2), cpus
        assert threading.current_thread().name in threads
        written.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert sorted(written[0]) == ["m000.csv", "m001.csv"]
    assert written[0] == written[1]
    assert not [thread.name for thread in threading.enumerate()
                if thread.name.startswith("affectseq-encoder")]
