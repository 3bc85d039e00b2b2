"""Special-function tests: fixtures from a 50-digit mpmath run, identity
and recurrence properties, asymptotic behaviour."""

import cmath
import math
import platform
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluctforce.errors import DomainError
from fluctforce.specfun import digamma, log_gamma, trigamma

EULER_GAMMA = 0.5772156649015328606

# mpmath, mp.dps = 50, run once and frozen
LOG_GAMMA_1_3J = complex(-3.2441442995897561915731843523725573654938360407618,
                         1.0533507710686132003237905405074914552149598172411)
LOG_GAMMA_25_05J = complex(0.22395901846672799040183436542202521829266778632634,
                           0.35641951567203975837205566815920972946592591757591)
DIGAMMA_1_07J = complex(-0.15733612573721300737901174676501345270823451748665,
                        0.89563049350484575510151616317414886938052976524221)


def test_log_gamma_at_one_and_five():
    assert abs(log_gamma(1.0)) < 1e-13
    assert abs(log_gamma(5.0) - math.log(24.0)) < 1e-13 * math.log(24.0)


def test_log_gamma_complex_fixtures():
    for z, ref in ((1 + 3j, LOG_GAMMA_1_3J), (2.5 + 0.5j, LOG_GAMMA_25_05J)):
        assert abs(log_gamma(z) - ref) <= 1e-13 * abs(ref)


def test_exp_log_gamma_is_gamma():
    # Gamma(6) = 120, Gamma(0.5) = sqrt(pi)
    assert abs(cmath.exp(log_gamma(6.0)) - 120.0) <= 1e-13 * 120.0
    assert abs(cmath.exp(log_gamma(0.5)) - math.sqrt(math.pi)) \
        <= 1e-13 * math.sqrt(math.pi)


def test_digamma_at_one_and_two():
    assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13
    assert abs(digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-13


def test_digamma_fixture():
    assert abs(digamma(1 + 0.7j) - DIGAMMA_1_07J) <= 1e-13 * abs(DIGAMMA_1_07J)


def test_digamma_imaginary_part_identity():
    # Im psi(1 + iy) = -1/(2y) + (pi/2) coth(pi y)
    for y in np.geomspace(1e-3, 50.0, 40):
        im = digamma(1.0 + 1j * y).imag
        ref = -0.5 / y + 0.5 * math.pi / math.tanh(math.pi * y)
        assert abs(im - ref) <= 1e-12 * max(1.0, abs(ref))


def test_trigamma_values():
    assert abs(trigamma(1.0) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(trigamma(2.0) - (math.pi ** 2 / 6.0 - 1.0)) < 1e-12


def test_trigamma_matches_digamma_derivative():
    z = 1 + 2j
    h = 1e-5
    fd = (digamma(z + h) - digamma(z - h)) / (2 * h)
    assert abs(trigamma(z) - fd) < 1e-8


def test_domain_errors():
    for fn in (log_gamma, digamma, trigamma):
        with pytest.raises(DomainError):
            fn(-1.0 + 2j)
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(complex("inf"))
    # below the |z| floors psi ~ -1/z and psi' ~ 1/z^2 would overflow
    for fn, z in ((digamma, 5e-324), (digamma, complex(1e-301, -1e-301)),
                  (trigamma, 1e-300), (trigamma, complex(1e-300, 1e-300)),
                  (trigamma, complex(1e-151, 5e-324))):
        with pytest.raises(DomainError, match="must be at least"):
            fn(z)
    # at the floors: psi(z) ~ -1/z, psi'(z) ~ 1/z^2
    assert digamma(1e-300).real == pytest.approx(-1e300)
    assert trigamma(1e-150).real == pytest.approx(1e300)
    # w * w in trigamma's shift loop overflows in both parts here
    for z in (complex(1.0, 1e306), complex(20.0, -1e307),
              complex(5e-324, 1.7e308)):
        with pytest.raises(DomainError, match="must be below"):
            trigamma(z)
    w = trigamma(complex(1.0, 9e305))
    assert math.isfinite(w.real) and math.isfinite(w.imag)
    assert math.isfinite(log_gamma(5e-324).real)
    # log Gamma(z) ~ z log z passes the largest float
    for z in (2.6e305, complex(1e-300, 1e308), complex(1.0, 1.7e308)):
        with pytest.raises(DomainError, match="overflows"):
            log_gamma(z)
    assert log_gamma(2.5e305).real == pytest.approx(1.7555e308, rel=1e-4)


@given(st.floats(0.0, exclude_min=True, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=1000, deadline=None)
def test_finite_or_domain_error(re, im):
    # the whole right half plane, subnormal and huge parts included
    z = complex(re, im)
    for fn in (digamma, trigamma, log_gamma):
        try:
            w = fn(z)
        except DomainError:
            continue
        assert math.isfinite(w.real) and math.isfinite(w.imag), (fn, z, w)


def test_recurrence_random_grid():
    # |psi(1+z) - psi(z) - 1/z| small over 10^4 draws
    rng = np.random.default_rng(42)
    re = rng.uniform(0.1, 100.0, 10_000)
    im = rng.uniform(-100.0, 100.0, 10_000)
    for zr, zi in zip(re, im):
        z = complex(zr, zi)
        lhs = digamma(1.0 + z)
        rhs = digamma(z) + 1.0 / z
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@given(st.floats(0.1, 100.0), st.floats(-100.0, 100.0))
@settings(max_examples=300, deadline=None)
def test_recurrence_property(re, im):
    z = complex(re, im)
    assert abs(digamma(1.0 + z) - digamma(z) - 1.0 / z) \
        <= 1e-12 * (1.0 + abs(digamma(z)))


@given(st.floats(0.05, 200.0), st.floats(-200.0, 200.0))
@settings(max_examples=300, deadline=None)
def test_conjugation_property(re, im):
    z = complex(re, im)
    for fn in (digamma, trigamma, log_gamma):
        a = fn(z.conjugate())
        b = fn(z).conjugate()
        assert abs(a - b) <= 1e-14 * max(1.0, abs(b))


def test_trigamma_recurrence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        z = complex(rng.uniform(0.1, 50.0), rng.uniform(-50.0, 50.0))
        lhs = trigamma(1.0 + z)
        rhs = trigamma(z) - 1.0 / (z * z)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_digamma_asymptotic_decay():
    # |psi(z) - (log z - 1/2z)| ~ |z|^-2 on a log grid
    zs = np.geomspace(10.0, 1e4, 25)
    errs = [abs(digamma(z) - (math.log(z) - 0.5 / z)) for z in zs]
    slope = np.polyfit(np.log10(zs), np.log10(errs), 1)[0]
    assert abs(slope + 2.0) < 0.1


def test_digamma_series_near_one():
    z = 1e-4
    approx = -EULER_GAMMA + (math.pi ** 2 / 6.0) * z
    assert abs(digamma(1.0 + z) - approx) < 1e-7


# The shift-and-expand scheme as first written: a float 1.0 in the shift
# loops and a Horner loop over the coefficients.  The module must give
# the same bits, signed zeros included.
#
# That holds for the arithmetic of CPython 3.10-3.13, which widens a
# float operand of a complex operation to complex(x, 0.0) first, so the
# reference below computes there what the first loops computed.  CPython
# 3.14 follows C99 Annex G for mixed float/complex operands instead: it
# moves signed zeros both in the reference's float operands and in the
# module's own mixed operations, so there the bit identity is not
# claimed (the accuracy tests above still apply).
_WIDENING_ARITHMETIC = (platform.python_implementation() == "CPython"
                        and (3, 10) <= sys.version_info[:2] <= (3, 13))
def _reference(kind):
    from fluctforce import specfun as sf

    def horner(coeffs, inv_w2):
        acc = 0.0j
        for c in reversed(coeffs):
            acc = acc * inv_w2 + c
        return acc

    def checked(z):
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError("argument must be finite")
        if z.real <= 0.0:
            raise DomainError(f"Re z must be positive, got {z!r}")
        return z

    def ref(z):
        z = checked(z)
        shift = 0.0j
        w = z
        while w.real < 12.0:
            if kind == "log_gamma":
                shift += cmath.log(w)
            elif kind == "digamma":
                shift += 1.0 / w
            else:
                shift += 1.0 / (w * w)
            w += 1.0
        inv_w = 1.0 / w
        if kind == "log_gamma":
            series = inv_w * horner(sf._LOG_GAMMA_COEFFS, inv_w * inv_w)
            return (w - 0.5) * cmath.log(w) - w + sf._HALF_LOG_TWO_PI \
                + series - shift
        inv_w2 = inv_w * inv_w
        if kind == "digamma":
            series = inv_w2 * horner(sf._DIGAMMA_COEFFS, inv_w2)
            return cmath.log(w) - 0.5 * inv_w - series - shift
        series = inv_w * inv_w2 * horner(sf._TRIGAMMA_COEFFS, inv_w2)
        return inv_w + 0.5 * inv_w2 + series + shift

    return ref


def _bit_grid():
    twelve = [math.nextafter(12.0, 0.0), 12.0, math.nextafter(12.0, 20.0),
              11.0, 11.5, 12.5, 13.0]
    reals = [5e-324, 1e-300, 1e-8, 0.1, 0.5, 1.0, 1.0 + 2**-52, 2.5, 7.3,
             1e3, 1e150, 1e300] + twelve \
        + [math.nextafter(x, 0.0) for x in twelve]
    imags = [0.0, -0.0, 1e-300, -1e-300, 0.3, -0.3, 12.0, -12.0, 1e3,
             -1e3, 1e8, -1e8, 1e150, -1e150, 1e300, -1e300]
    zs = [complex(x, y) for x in reals for y in imags]
    rng = np.random.default_rng(20261018)
    re = np.concatenate([rng.uniform(0.0, 25.0, 400),
                         rng.uniform(11.0, 13.0, 200),
                         10.0 ** rng.uniform(-300, 300, 200)])
    im = np.concatenate([rng.uniform(-50.0, 50.0, 600),
                         np.sign(rng.uniform(-1, 1, 200))
                         * 10.0 ** rng.uniform(-300, 300, 200)])
    zs += [complex(x, y) for x, y in zip(re.tolist(), im.tolist()) if x > 0]
    return zs + reals + [1, 3, 12]          # floats and ints as well


def _outcome(fn, z):
    try:
        w = fn(z)
    except DomainError as exc:
        return type(exc), str(exc)
    return (math.copysign(1.0, w.real), math.copysign(1.0, w.imag),
            w.real.hex(), w.imag.hex())


@pytest.mark.skipif(not _WIDENING_ARITHMETIC,
                    reason="bit identity is claimed for CPython 3.10-3.13")
@pytest.mark.parametrize("kind", ["log_gamma", "digamma", "trigamma"])
def test_bit_identical_to_the_reference_loops(kind):
    # Above the |z| floor the module gives the reference's bits; below
    # it, where the reference overflows or divides by zero, DomainError.
    from fluctforce import specfun as sf
    fn, ref = getattr(sf, kind), _reference(kind)
    floor = {"log_gamma": 0.0, "digamma": sf._DIGAMMA_FLOOR,
             "trigamma": sf._TRIGAMMA_FLOOR}[kind]
    bad = [0.0, -0.0, -1.5, complex(-0.0, 1.0), complex(0.0, -0.0),
           complex(math.nan, 1.0), complex(1.0, math.inf),
           complex(-math.inf, 0.0), math.nan]
    below = 0
    for z in _bit_grid() + bad:
        c = complex(z)
        if c.real > 0.0 and math.hypot(c.real, c.imag) < floor:
            below += 1
            with pytest.raises(DomainError):
                fn(z)
        else:
            assert _outcome(fn, z) == _outcome(ref, z), z
    assert (below > 0) == (floor > 0.0)


# digamma keeps its last argument and value: a call at the same
# argument or at its conjugate returns the kept value or its conjugate
# without running the shift loop.


def _memo_battery():
    # the bit grid's ranges: moderate parts, the shift threshold, and
    # parts from 1e-300 to 1e300 of either sign
    rng = np.random.default_rng(20261020)
    re = np.concatenate([rng.uniform(0.0, 25.0, 5000),
                         rng.uniform(11.0, 13.0, 2000),
                         10.0 ** rng.uniform(-300, 300, 3000)])
    im = np.concatenate([rng.uniform(-50.0, 50.0, 7000),
                         np.sign(rng.uniform(-1, 1, 3000))
                         * 10.0 ** rng.uniform(-300, 300, 3000)])
    zs = [complex(x, y) for x, y in zip(re.tolist(), im.tolist())
          if x > 0 and y]
    # values with a zero part: psi(1e300 +- 1e-300 i) has +0.0 and -0.0
    # as imaginary parts
    return zs + [complex(1e300, 1e-300)]


def test_memo_hits_give_the_bits_of_a_fresh_evaluation():
    from fluctforce.specfun import digamma as fn
    unrelated = complex(3.25, 0.5)
    zs = _memo_battery()
    assert len(zs) >= 10_000
    for z in zs:
        zc = z.conjugate()
        fn(unrelated)
        fresh_c = _outcome(fn, zc)
        fn(unrelated)
        fresh = _outcome(fn, z)
        assert _outcome(fn, z) == fresh, z          # the same argument
        assert _outcome(fn, zc) == fresh_c, z       # its conjugate
        assert _outcome(fn, zc) == fresh_c, z
        assert _outcome(fn, z) == fresh, z


def test_memo_skips_the_series_only_on_a_hit(monkeypatch):
    from fluctforce import specfun as sf
    fn = sf.digamma
    series = []
    horner = sf._horner_even

    def counted(coeffs, inv_w2):
        series.append(1)
        return horner(coeffs, inv_w2)

    monkeypatch.setattr(sf, "_horner_even", counted)
    z = complex(1.3, 0.7)
    fn(z)
    fn(z)
    fn(z.conjugate())
    fn(z)
    assert len(series) == 1
    # x + 0j and x - 0j compare equal, but never take either path
    for x in (0.5, 1.0, 7.3, 12.0):
        for first, second in ((complex(x, 0.0), complex(x, -0.0)),
                              (complex(x, -0.0), complex(x, 0.0))):
            fn(first)
            del series[:]
            fresh = _outcome(fn, second)
            assert len(series) == 1
            assert fresh == _outcome(_reference("digamma"), second)
    # nor does a conjugate whose value has a zero part
    z = complex(1e300, 1e-300)
    assert fn(z).imag == 0.0
    del series[:]
    fn(z.conjugate())
    assert len(series) == 1


def test_memo_under_two_threads_gives_the_serial_bits():
    # each thread walks its own conjugate pairs; the kept pair is one
    # tuple, replaced whole, so the other thread's entry can only cost
    # an evaluation, never give a wrong value
    import threading
    from fluctforce import specfun as sf
    rng = np.random.default_rng(11)
    batches = [[complex(x, y) for x, y in
                zip(rng.uniform(0.1, 25.0, 400).tolist(),
                    rng.uniform(-50.0, 50.0, 400).tolist())]
               for _ in range(2)]
    calls = []
    for zs in batches:
        seq = []
        for z in zs:
            seq += [z, z.conjugate(), z.conjugate(), z]
        calls.append(seq)
    serial = []
    for seq in calls:
        out = []
        for z in seq:
            sf.digamma(complex(3.25, 0.5))
            out.append(_outcome(sf.digamma, z))
        serial.append(out)
    results = [None, None]

    def run(k):
        results[k] = [_outcome(sf.digamma, z) for _ in range(5)
                      for z in calls[k]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    for k in (0, 1):
        assert results[k] == serial[k] * 5
