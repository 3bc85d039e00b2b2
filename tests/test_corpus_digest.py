"""Byte identity of the benchmark's sweep corpus and point calls.

The 372 sweeps that bench/workloads.py generates at seeds 1-3 (each
seed's closed-form sweeps, then its oracle sweeps, for two processors)
run in-process through cli.main, and one sha256 takes, per sweep, the
exit code and standard error and, where the exit code is 0, the output
file's bytes.  A second sha256 takes the repr of every result of
bench/points.py's call plan at the same seeds, the library's own entry
points called once each.  A change that moves output bits on purpose
updates the digest and lists the move in CHANGES.md; bench/ itself is
only read.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import types
from pathlib import Path

from fluctforce import circuits, cli, forces, matsubara, oscillator, specfun

CORPUS_DIGEST = \
    "a9caed8c397d4a9604cb8e91b9193cdc805adc395f98c09683e0a8687f1a0f35"
POINTS_DIGEST = \
    "d147ee49da533ef1d6b0eb377e74ed5bbada4e06acaccc4f565cc5b8d876dfc8"
SEEDS = (1, 2, 3)
NPROC = 2
BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str, as_name: str):
    spec = importlib.util.spec_from_file_location(as_name,
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _configs() -> list:
    wl = _bench_module("workloads", "_bench_workloads")
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


def test_point_calls_digest(monkeypatch):
    # points.py imports its tolerances from the benchmark's gate module
    monkeypatch.setitem(sys.modules, "gate", _bench_module("gate", "gate"))
    points = _bench_module("points", "_bench_points")
    wl = _bench_module("workloads", "_bench_workloads")
    ff = types.SimpleNamespace(circuits=circuits, forces=forces,
                               matsubara=matsubara, oscillator=oscillator,
                               specfun=specfun)
    digest = hashlib.sha256()
    count = 0
    for seed in SEEDS:
        for call in points.build_calls(ff, wl.point_sets(seed)):
            digest.update((repr(call.fn(*call.args)) + "\n").encode("utf-8"))
            count += 1
    assert count == 3816
    assert digest.hexdigest() == POINTS_DIGEST
