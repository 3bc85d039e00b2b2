"""The Vieta battery: its block of draws and its report."""

import math

import numpy as np

from fluctforce import validation


def _scalar_draws(count, rng):
    """The battery's draws one set at a time, three rng.uniform calls per
    set: the loop that the block draw replaced, kept as its reference."""
    sets = []
    for _ in range(count):
        om = float(rng.uniform(0.1, 10.0))
        wd = om * float(np.exp(rng.uniform(0.0, math.log(1.0e4))))
        g0 = om * float(rng.uniform(0.0, 10.0))
        sets.append((om, wd, g0))
    return sets


def test_vieta_grid_is_the_scalar_stream():
    seed = validation._SEED + 3
    om, wd, g0 = validation._vieta_grid(10_000, np.random.default_rng(seed))
    ref = np.array(_scalar_draws(10_000, np.random.default_rng(seed)))
    for got, want in zip((om, wd, g0), ref.T):
        assert got.tobytes() == want.tobytes()


def test_vieta_report_line():
    assert validation.criterion_vieta().line() == (
        "PASS vieta-and-cubic-residuals: worst=6.070e-03 tol=1.000e+00 "
        "(10000 parameter sets, residuals as fraction of their stated "
        "bounds)")


def test_vieta_without_sets_passes_at_zero():
    rep = validation.criterion_vieta(0)
    assert rep.passed and rep.worst == 0.0


def test_vieta_nan_residual_fails(monkeypatch):
    class NanRoots:
        def as_tuple(self):
            return (complex(math.nan, 0.0), 0j, 0j)

    monkeypatch.setattr(validation, "eigenfrequencies_drude_exact",
                        lambda p: NanRoots())
    rep = validation.criterion_vieta(3)
    assert not rep.passed
    assert math.isnan(rep.worst)
