"""Byte identity of the benchmark's sweep corpus.

The 372 sweeps that bench/workloads.py generates at seeds 1-3 (each
seed's closed-form sweeps, then its oracle sweeps, for two processors)
run in-process through cli.main, and one sha256 takes, per sweep, the
exit code and standard error and, where the exit code is 0, the output
file's bytes.  A change that moves output bits on purpose updates the
digest and lists the move in CHANGES.md; bench/ itself is only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from fluctforce import cli

CORPUS_DIGEST = \
    "c664ae80fd22776d24ac39873f1adb4e7b9448aca00a0ceb1ab1533536410609"
SEEDS = (1, 2, 3)
NPROC = 2


def _configs() -> list:
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    wl = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl)
    return [wl.program_config(cfg) for seed in SEEDS
            for cfg in wl.sweep_closed(seed, NPROC)
            + wl.sweep_oracle(seed, NPROC)]


def test_sweep_corpus_digest(tmp_path):
    configs = _configs()
    assert len(configs) == 372
    digest = hashlib.sha256()
    for i, cfg in enumerate(configs):
        config = tmp_path / f"cfg{i}.json"
        config.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / f"out{i}.{cfg['output']['format']}"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(["sweep", "--config", str(config), "--out",
                           str(out)])
        digest.update(f"{rc}\n{err.getvalue()}\n".encode("utf-8"))
        if rc == 0:
            digest.update(out.read_bytes())
    assert digest.hexdigest() == CORPUS_DIGEST
