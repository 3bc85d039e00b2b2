"""Bit pins of the Matsubara oracles and of the cubic solver.

float.hex of every oracle value and truncation estimate, and of every
root of solve_cubic, frozen from the plain implementation of these
kernels, before they were rewritten to do the same floating-point
operations with less interpreter work.  A rewrite that changes one
operation, or the order of two, moves a last bit here, and the golden
CLI digests alone would see only the few oracle values they print.
The estimate hexes were frozen again when the estimate became the
bound formed at the call; no value hex moved.

The oracle cases reach every branch of matsubara._divided_difference:
the two-pole closed form at z = 0 (critical damping, the coincident
pair poles of gamma0 = 2 Omega), at |z| <= 0.5 and at |z| > 0.5 (high
and low temperature), the Gauss-Legendre quadrature of clustered poles
at each rule, and the partial fractions over groups of one to four
spread poles; and every oracle at n_max = 100000.
Every oracle sums its 32 direct terms whatever n_max is, so the pins at
n_max = 1, 2, 3, 5, 16 and 31 hold the bits of n_max = 100000; five of
them repeat a pin at the same point.
The cubic cases reach both branches of solve_cubic: three real roots,
and Cardano's real root deflated to a complex pair, to a real pair
(a near-double root), and with u3 = 0 or a root at 0.

The pins hold for the arithmetic of CPython 3.10-3.13, as the specfun
bit-identity test explains: CPython 3.14 follows C99 Annex G for mixed
float/complex operands, which moves signed zeros in the oracles' mixed
operations, so there the bits are not claimed.
"""

import math
import platform
import sys

import pytest

from fluctforce.matsubara import (SumSpec, _cubic_poles, _pair_poles, _tail,
                                  force_sum_exact, free_energy_difference,
                                  free_energy_drude, per_parameter_sums_drude)
from fluctforce.oscillator import (Drude, Ohmic, OscillatorParams,
                                   ParametricModel, solve_cubic)

pytestmark = pytest.mark.skipif(
    not (platform.python_implementation() == "CPython"
         and (3, 10) <= sys.version_info[:2] <= (3, 13)),
    reason="bits pinned for the float/complex arithmetic of CPython "
           "3.10-3.13")

# (oracle, arguments, n_max, [(value, truncation_estimate), ...]).
# Arguments: force (Omega, gamma0, omega_d or None for Ohmic, T, dOmega,
# dgamma0, domega_d); difference (Omega1, Omega2, gamma0, omega_d or
# None, T); drude-approx and drude-exact (Omega, gamma0, omega_d, T);
# per-parameter as force.
ORACLE_PINS = [
    ('force', (1.0, 2.0, None, 0.5, 1.0, 0.0, 0.0), 100000,
     [('-0x1.39b9232a43804p-1', '0x1.4095d40fcd6a0p-50')]),
    ('force', (1.0, 0.3, None, 5.0, 1.0, 0.0, 0.0), 100000,
     [('-0x1.410effafde0dbp+2', '0x1.41259c79553fep-47')]),
    ('force', (1.0, 0.3, None, 0.01, 1.0, 0.0, 0.0), 100000,
     [('-0x1.d440839aadbf5p-2', '0x1.af0efcd46d52ap-50')]),
    ('force', (0.7, 5.0, None, 0.3, -0.4, 0.0, 0.0), 100000,
     [('0x1.9d0548e6bcc75p-3', '0x1.a8bed0039e1a1p-52')]),
    ('force', (1.0, 0.3, 30.0, 0.5, 1.0, 0.5, 2.0), 100000,
     [('-0x1.bb689fe6105bbp-1', '0x1.e7eb8ffe9c64cp-50')]),
    ('force', (1.0, 0.3, 30.0, 0.01, 1.0, 0.5, 2.0), 100000,
     [('-0x1.723f2dc7547ecp-1', '0x1.61617cc9667dap-49')]),
    ('force', (1.0, 2.0, 1000.0, 0.5, 0.3, -1.0, 0.7), 100000,
     [('0x1.6855c5f05c81fp-1', '0x1.85021a2fcd5cfp-49')]),
    ('force', (1.0, 0.3, 30.0, 0.5, 1.0, 0.5, 2.0), 3,
     [('-0x1.bb689fe6105bbp-1', '0x1.e7eb8ffe9c64cp-50')]),
    ('force', (1.0, 0.3, None, 0.5, 1.0, 0.0, 0.0), 1,
     [('-0x1.4b72d9b5c44a4p-1', '0x1.527c281bd3474p-50')]),
    ('force', (1.0, 0.3, 30.0, 0.5, 1.0, 0.5, 2.0), 16,
     [('-0x1.bb689fe6105bbp-1', '0x1.e7eb8ffe9c64cp-50')]),
    ('difference', (1.0, 1.7, 0.3, None, 0.5), 100000,
     [('0x1.97af0b0e7f577p-2', '0x1.db019fbfd1250p-51')]),
    ('difference', (1.0, 1.7, 0.3, None, 0.01), 100000,
     [('0x1.4e9f3b097e424p-2', '0x1.c4ece45cd40b1p-50')]),
    ('difference', (1.0, 1.7, 2.0, None, 0.5), 100000,
     [('0x1.796ee899f125dp-2', '0x1.b8982bf7ad0cfp-51')]),
    ('difference', (1.0, 1.7, 0.3, 30.0, 0.5), 100000,
     [('0x1.989acd8dd07d5p-2', '0x1.dc173ce385ee2p-51')]),
    ('difference', (1.0, 1.7, 0.3, 30.0, 0.01), 100000,
     [('0x1.4feffe2d4c823p-2', '0x1.379d1f5ffa617p-49')]),
    ('difference', (1.0, 1.7, 2.0, 1000.0, 0.5), 100000,
     [('0x1.79937efdbc908p-2', '0x1.bc6e25bc9d5c4p-51')]),
    ('difference', (1.0, 1.7, 0.3, 30.0, 0.5), 31,
     [('0x1.989acd8dd07d5p-2', '0x1.dc173ce385ee2p-51')]),
    ('drude-approx', (1.0, 0.3, 30.0, 0.5), 100000,
     [('0x1.1cd14c0933a1bp-1', '0x1.4c60643414a22p-50')]),
    ('drude-approx', (1.0, 0.3, 30.0, 0.01), 100000,
     [('0x1.50547bedadf36p-1', '0x1.71b7889dcfbc5p-49')]),
    ('drude-approx', (1.0, 2.0, 1000.0, 0.5), 100000,
     [('0x1.2569017d868d2p+1', '0x1.2d947a2bdbcd4p-47')]),
    ('drude-approx', (1.0, 0.3, 3.0, 2.0), 100000,
     [('-0x1.59f7595ffbc98p+0', '0x1.8ccb62bc18d4ap-49')]),
    ('drude-exact', (1.0, 0.3, 30.0, 0.5), 100000,
     [('0x1.1dc8b8521f3f9p-1', '0x1.4da17725a0204p-50')]),
    ('drude-exact', (1.0, 0.3, 30.0, 0.01), 100000,
     [('0x1.523234b844f45p-1', '0x1.741675abe9733p-49')]),
    ('drude-exact', (1.0, 2.0, 1000.0, 0.5), 100000,
     [('0x1.25e108abc9054p+1', '0x1.4bed89ceb7ef9p-47')]),
    ('drude-exact', (1.0, 0.3, 3.0, 2.0), 100000,
     [('-0x1.597b608f337fcp+0', '0x1.8d53ec72ddf05p-49')]),
    ('drude-exact', (1.0, 0.3, 30.0, 0.5), 5,
     [('0x1.1dc8b8521f3f9p-1', '0x1.4da17725a0204p-50')]),
    ('per-parameter', (1.0, 0.3, 30.0, 0.5, 1.0, 0.5, 2.0), 100000,
     [('-0x1.4bfca5e8a43d1p-1', '0x1.530b8e2d76e5fp-50'),
      ('-0x1.b7a76c14cb38ep-3', '0x1.24ba7e116bbb2p-51'),
      ('-0x1.1960e903116c1p-7', '0x1.76b1453504c69p-56'),
      ('0x1.71b255e97aa65p-8', '0x1.ac01263238b7bp-57')]),
    ('per-parameter', (1.0, 0.3, 30.0, 0.01, 1.0, 0.5, 2.0), 100000,
     [('-0x1.d61d097041055p-2', '0x1.fe7bab6207752p-50'),
      ('-0x1.0b519fe8c375bp-2', '0x1.b5d56a6f5b1e5p-51'),
      ('-0x1.562b0a1fb2823p-7', '0x1.1836aa84b5322p-55'),
      ('0x1.e86986d644603p-8', '0x1.47e7dc6fd8433p-55')]),
    ('per-parameter', (1.0, 2.0, 1000.0, 0.5, 0.3, -1.0, 0.7), 100000,
     [('-0x1.7890433c9fdcdp-3', '0x1.815abc26738afp-52'),
      ('0x1.c696bfa7c4d0fp-1', '0x1.680ff9ad5c1aap-49'),
      ('-0x1.45d96b7a4dffdp-10', '0x1.0217bd35674b3p-58'),
      ('0x1.0c079af99e69cp-10', '0x1.214bab6844f19p-58')]),
    ('per-parameter', (1.0, 0.3, 30.0, 0.5, 1.0, 0.5, 2.0), 2,
     [('-0x1.4bfca5e8a43d1p-1', '0x1.530b8e2d76e5fp-50'),
      ('-0x1.b7a76c14cb38ep-3', '0x1.24ba7e116bbb2p-51'),
      ('-0x1.1960e903116c1p-7', '0x1.76b1453504c69p-56'),
      ('0x1.71b255e97aa65p-8', '0x1.ac01263238b7bp-57')]),
    ('force', (1.0, 0.3, 30.0, 0.1, 1.0, 0.5, 2.0), 100000,
     [('-0x1.72a22d38408c9p-1', '0x1.e624d0f08920cp-50')]),
]

# (a2, a1, a0) of s^3 + a2 s^2 + a1 s + a0: hand-picked branch cases,
# two near-double roots, then the first twelve sets of the Vieta battery
CUBIC_PINS = [
    ((10.0, 31.0, 10.0),
     [('-0x1.345c94a486116p+2', '0x1.08d49f37582dcp+1'),
      ('-0x1.345c94a486116p+2', '-0x1.08d49f37582dcp+1'),
      ('-0x1.746d6b6f3dd48p-2', '0x0.0p+0')]),
    ((30.0, 10.0, 30.0),
     [('-0x1.35fadbd66a979p-3', '0x1.fcbbff48fa628p-1'),
      ('-0x1.35fadbd66a979p-3', '-0x1.fcbbff48fa628p-1'),
      ('-0x1.db281490a655ap+4', '0x0.0p+0')]),
    ((3.0, 3.0, 1.0),
     [('-0x1.0000000000000p+0', '0x0.0p+0'),
      ('-0x1.0000000000000p+0', '0x0.0p+0'),
      ('-0x1.0000000000000p+0', '0x0.0p+0')]),
    ((4.0, 5.0, 2.0),
     [('-0x1.ffffff47a8afep-1', '0x0.0p+0'),
      ('-0x1.00000004d2febp+0', '0x0.0p+0'),
      ('-0x1.0000000000000p+1', '0x0.0p+0')]),
    ((1.0, 1.0, 0.0),
     [('-0x1.0000000000000p-1', '0x1.bb67ae8584cabp-1'),
      ('-0x1.0000000000000p-1', '-0x1.bb67ae8584cabp-1'),
      ('0x0.0p+0', '0x0.0p+0')]),
    ((0.0, 0.0, 0.0),
     [('0x0.0p+0', '0x0.0p+0'),
      ('-0x0.0p+0', '0x0.0p+0'),
      ('0x0.0p+0', '0x0.0p+0')]),
    ((0.0, -1.0, 0.0),
     [('0x1.0000000000000p+0', '0x0.0p+0'),
      ('0x0.0p+0', '0x0.0p+0'),
      ('-0x1.0000000000000p+0', '0x0.0p+0')]),
    ((10000.0, 50001.0, 10000.0),
     [('-0x1.ab6ec903bfbcep-3', '0x0.0p+0'),
      ('-0x1.32cd89c45ce62p+2', '0x0.0p+0'),
      ('-0x1.3857fadffe70ap+13', '0x0.0p+0')]),
    ((1000000000000.0, 100000000001.0, 1000000000000.0),
     [('-0x1.9900000000000p-5', '0x0.0p+0'),
      ('-0x1.9900000000000p-5', '0x0.0p+0'),
      ('-0x1.d1a94a1fffccdp+39', '0x0.0p+0')]),
    ((5.0, 8.0, 4.0),
     [('-0x1.0000000000001p+0', '0x0.0p+0'),
      ('-0x1.ffffff89dc816p+0', '0x0.0p+0'),
      ('-0x1.0000003b11bf5p+1', '0x0.0p+0')]),
    ((2.0, 1.0, 0.0),
     [('-0x1.0000000000000p+0', '0x0.0p+0'),
      ('-0x1.0000000000000p+0', '0x0.0p+0'),
      ('0x0.0p+0', '0x0.0p+0')]),
    ((1.6302181036199483, 0.7914365673594915, 0.09797690078672441),
     [('-0x1.7110234bad6b1p-1', '0x0.0p+0'),
      ('-0x1.711022b96c455p-1', '0x0.0p+0'),
      ('-0x1.822eb19ea0138p-3', '0x0.0p+0')]),
    ((27.448799517806968, 193.10724926774455, 405.1177882864442),
     [('-0x1.d83f5e76bdee9p+1', '0x0.0p+0'),
      ('-0x1.d83f5e76bdee9p+1', '0x0.0p+0'),
      ('-0x1.1f249d0f51b14p+4', '0x0.0p+0')]),
    ((3252.132582420049, 3155.50750110361, 1083.9036355242326),
     [('-0x1.f0e233e104812p-2', '0x1.4074530ec119bp-2'),
      ('-0x1.f0e233e104812p-2', '-0x1.4074530ec119bp-2'),
      ('-0x1.96652ffa3eb40p+11', '0x0.0p+0')]),
    ((339.33438306335853, 1362.3866093184388, 21301.684782189313),
     [('-0x1.ef9b674cfcaedp+0', '0x1.eeb6d6145b42fp+2'),
      ('-0x1.ef9b674cfcaedp+0', '-0x1.eeb6d6145b42fp+2'),
      ('-0x1.4f766352477cbp+8', '0x0.0p+0')]),
    ((67.83594893763123, 2019.9622029618415, 2191.492044155323),
     [('-0x1.0ad61d6fef464p+5', '0x1.cd9584d93e229p+4'),
      ('-0x1.0ad61d6fef464p+5', '-0x1.cd9584d93e229p+4'),
      ('-0x1.207963e86ef63p+0', '0x0.0p+0')]),
    ((4839.311427188036, 29368.444822983303, 4260.749902526113),
     [('-0x1.3096182cd6788p-3', '0x0.0p+0'),
      ('-0x1.7b5b4b071e3c2p+2', '0x0.0p+0'),
      ('-0x1.2e13c39c2119fp+12', '0x0.0p+0')]),
    ((911.8399504917592, 22554.024212738237, 65949.47032508982),
     [('-0x1.b16263b2c2c45p+1', '0x0.0p+0'),
      ('-0x1.5f8f1dfd5ff65p+4', '0x0.0p+0'),
      ('-0x1.bb3da82bcc6c4p+9', '0x0.0p+0')]),
    ((4905.121726218152, 457957.30134819756, 479528.71172245184),
     [('-0x1.0f223352c3811p+0', '0x0.0p+0'),
      ('-0x1.788611f1e15afp+6', '0x0.0p+0'),
      ('-0x1.2c9ee82c342edp+12', '0x0.0p+0')]),
    ((31.313069046167943, 2581.9704780544585, 2506.641105114476),
     [('-0x1.e54b6ae264ec3p+3', '0x1.818348c5c3196p+5'),
      ('-0x1.e54b6ae264ec3p+3', '-0x1.818348c5c3196p+5'),
      ('-0x1.f6dd39b8bf433p-1', '0x0.0p+0')]),
    ((69.27542018810851, 441.61816470171294, 228.83483695712826),
     [('-0x1.230b63f7fccc2p-1', '0x0.0p+0'),
      ('-0x1.9df3c9aa8c530p+2', '0x0.0p+0'),
      ('-0x1.f1e968bab32efp+5', '0x0.0p+0')]),
    ((5050.942195034806, 137001.65681490814, 158884.4505947968),
     [('-0x1.36cc3a79faedap+0', '0x0.0p+0'),
      ('-0x1.a0d03df5cd1fep+4', '0x0.0p+0'),
      ('-0x1.39fad6397c625p+12', '0x0.0p+0')]),
    ((36.466566632631185, 89.19405177037756, 477.2843726959264),
     [('-0x1.191f8c1c8204ep+0', '0x1.c888b999c2d5bp+1'),
      ('-0x1.191f8c1c8204ep+0', '-0x1.c888b999c2d5bp+1'),
      ('-0x1.12298e879c51fp+5', '0x0.0p+0')]),
    ((12.302082266989963, 135.0713122893536, 628.3686745184532),
     [('-0x1.76242ba905bdap+1', '0x1.2d85e3a718411p+3'),
      ('-0x1.76242ba905bdap+1', '-0x1.2d85e3a718411p+3'),
      ('-0x1.9d312533555bfp+2', '0x0.0p+0')]),
    ((293.3490053434973, 9568.039157507606, 3191.6314366132983),
     [('-0x1.5923efdff0664p-2', '0x0.0p+0'),
      ('-0x1.27e26c44d3400p+5', '0x0.0p+0'),
      ('-0x1.0006c1e5760f2p+8', '0x0.0p+0')]),
]


# (summand, n, tail integral beyond n, the four corrections at n), for
# f(n) = 0.001 where the summand is a logarithm's
TAIL_PINS = [
    ('ohmic force g=2.0 T=0.5', 32, '0x1.9aec8d50430dbp-8',
     ['-0x1.0c945df4702cbp-20', '0x1.a54dd4e779a55p-33',
      '-0x1.2708636c5b779p-43', '0x1.94f3184ba6770p-53']),
    ('ohmic force g=2.0 T=0.5', 16, '0x1.96ea8ddb9a035p-7',
     ['-0x1.04cc268fce194p-17', '0x1.9127db6c0da9dp-28',
      '-0x1.13785b5a75761p-36', '0x1.72c268d18f790p-44']),
    ('ohmic force g=0.3 T=5.0', 32, '0x1.09915458ca364p-14',
     ['-0x1.61fbea5d5abf1p-27', '0x1.1b1a17d4c8857p-39',
      '-0x1.944f187d55436p-50', '0x1.1aee2772891a4p-59']),
    ('ohmic force g=0.3 T=5.0', 16, '0x1.09871f743fca1p-13',
     ['-0x1.61d2d842e26aep-24', '0x1.1ae301c5f1d3ep-34',
      '-0x1.93e0461d2a241p-43', '0x1.1a89d4b2dd501p-50']),
    ('ohmic force g=0.3 T=0.01', 32, '0x1.ba21c17df6b6ep+3',
     ['-0x1.7428ed0eb8c1dp-10', '0x1.16ba353cf8edap-23',
      '-0x1.9c89bfe7bf941p-36', '-0x1.4c3590bdbc30dp-47']),
    ('ohmic force g=0.3 T=0.01', 16, '0x1.6c9fc5e4dfb54p+4',
     ['-0x1.2899922725f52p-8', '0x1.005fef1af68e6p-22',
      '0x1.3866c2a833920p-31', '-0x1.751ff04523091p-41']),
    ('ohmic difference T=0.5', 32, '-0x1.48a8635a60f56p-6',
     ['-0x1.043114f4e1fa1p-20', '0x1.9ed4c57198fc7p-33',
      '-0x1.272ed8de9e1a7p-43', '0x1.9b95423bcddb9p-53']),
    ('ohmic difference T=0.5', 16, '0x1.00318e327bf42p-7',
     ['-0x1.02bd2dd3fac4ep-17', '0x1.9a9716f868a85p-28',
      '-0x1.2294ff10a99e3p-36', '0x1.92aa9647e636bp-44']),
    ('ohmic difference T=0.01', 32, '0x1.59a9caae5b12dp+4',
     ['-0x1.077c5505ef787p-10', '0x1.e1d32e55d8ebcp-25',
      '0x1.7d48833698c7cp-40', '-0x1.77c8df42e1bafp-47']),
    ('ohmic difference T=0.01', 16, '0x1.cad9f2c37ffb6p+4',
     ['-0x1.347337da4debap-9', '-0x1.ac200f22e4c72p-25',
      '0x1.9191e9c6d6504p-33', '0x1.252eb0adef876p-45']),
    ('drude force T=0.5', 32, '0x1.943ca79c1347cp-5',
     ['-0x1.af9806530e770p-18', '0x1.1c13929d8254ap-30',
      '-0x1.566d140571e2bp-41', '0x1.9dd2fabcd6ff1p-51']),
    ('drude force T=0.5', 16, '0x1.6e684b0eb75cap-4',
     ['-0x1.50a756c7f50eep-15', '0x1.92e369fffa2b6p-26',
      '-0x1.cc783c061becap-35', '0x1.0f7204f9f92c4p-42']),
    ('drude force T=0.01', 32, '0x1.16677efd3682cp+5',
     ['-0x1.baa069c6fac72p-10', '0x1.03534b0ecee1cp-23',
      '-0x1.cbf4dec6bdaf4p-37', '-0x1.3052a92038c36p-46']),
    ('drude force T=0.01', 16, '0x1.774671bbae87cp+5',
     ['-0x1.2aef3a51e433cp-8', '0x1.501ca221603c2p-25',
      '0x1.5330c1210389ap-31', '-0x1.b4f7bc4fae5f0p-42']),
    ('drude difference T=0.5', 32, '-0x1.484fa9b1f0fa1p-6',
     ['-0x1.0504e98edaf1ep-20', '0x1.a0b948717236cp-33',
      '-0x1.28d3527bdef8cp-43', '0x1.9e2d0e472f8ccp-53']),
    ('drude difference T=0.5', 16, '0x1.027ca3e8f2204p-7',
     ['-0x1.0400f1aa6d60fp-17', '0x1.9d3865ad50f47p-28',
      '-0x1.24b2719f4b29ap-36', '0x1.95cdf755fd1f7p-44']),
    ('drude-approx critical T=0.5', 32, '0x1.0810eca8f702ap+1',
     ['-0x1.aaaf815d9141ap-15', '0x1.54d9e220d58ecp-28',
      '-0x1.417770ab0bd21p-39', '0x1.4e3f92a9909d4p-49']),
    ('drude-approx critical T=0.5', 16, '0x1.418828966143ep+1',
     ['-0x1.a91fd24646b08p-13', '0x1.4e4a02781a047p-24',
      '-0x1.383e285d07ee2p-33', '0x1.41959e5ec9128p-41']),
]


def _model(om, dom, g0, dg0, wd, dwd):
    return ParametricModel(lambda lam: om, lambda lam: dom, lambda lam: g0,
                           lambda lam: dg0,
                           None if wd is None else (lambda lam: wd),
                           None if wd is None else (lambda lam: dwd))


def _damping(g0, wd):
    return Ohmic(g0) if wd is None else Drude(g0, wd)


def _results(kind, args, spec):
    if kind == "force":
        om, g0, wd, t, dom, dg0, dwd = args
        p = OscillatorParams(om, _damping(g0, wd), t)
        return [force_sum_exact(p, _model(om, dom, g0, dg0, wd, dwd), 1.0,
                                spec)]
    if kind == "difference":
        om1, om2, g0, wd, t = args
        damping = _damping(g0, wd)
        return [free_energy_difference(OscillatorParams(om1, damping, t),
                                       OscillatorParams(om2, damping, t),
                                       spec)]
    if kind in ("drude-approx", "drude-exact"):
        om, g0, wd, t = args
        return [free_energy_drude(OscillatorParams(om, Drude(g0, wd), t),
                                  spec, roots=kind[len("drude-"):])]
    om, g0, wd, t, dom, dg0, dwd = args
    sums = per_parameter_sums_drude(OscillatorParams(om, Drude(g0, wd), t),
                                    _model(om, dom, g0, dg0, wd, dwd), 1.0,
                                    spec)
    return [sums.f_omega, sums.f_gamma0, sums.f_omega_d_1, sums.f_omega_d_2]


# the ids keep the form they had when the pins had a tail column, whose
# value was "integral" (the Euler-Maclaurin tail) in each of them
@pytest.mark.parametrize("kind, args, n_max, bits", ORACLE_PINS, ids=[
    f"{kind}-args{i}-{n_max}-integral-bits{i}"
    for i, (kind, _, n_max, _) in enumerate(ORACLE_PINS)])
def test_oracle_bits(kind, args, n_max, bits):
    results = _results(kind, args, SumSpec(n_max=n_max))
    assert [(r.value.hex(), r.truncation_estimate.hex())
            for r in results] == bits


@pytest.mark.parametrize("coefficients, bits", CUBIC_PINS)
def test_solve_cubic_bits(coefficients, bits):
    roots = solve_cubic(*coefficients)
    assert all(type(r) is complex for r in roots)
    assert [(r.real.hex(), r.imag.hex()) for r in roots] == bits


def _tail_case(label):
    """(P, poles, log) of a summand, built as its oracle builds it."""
    kind, *rest = label.split(" T=")[0].split(" ")
    t = float(label.split(" T=")[1])
    a = 2.0 * math.pi * t
    if kind == "ohmic" and rest[0] == "force":
        g = float(rest[1][len("g="):])
        return [2.0 / (a * a)], _pair_poles(g, 1.0, a), False
    if kind == "ohmic":
        return ([-(1.7 ** 2 - 1.0) / (a * a) * x for x in (0.3 / a, 2.0)],
                _pair_poles(0.3, 1.7, a) + _pair_poles(0.3, 1.0, a), True)
    if kind == "drude" and rest[0] == "force":
        wd = 30.0
        d = wd / a
        num = [2.0 * d * d, (4.0 + 0.5 * wd) * d, 2.0 + 0.5 * wd + 0.3 * 2.0]
        return ([x / (a * a) for x in num],
                _cubic_poles(1.0, 0.3, wd, a)[0] + [-d], False)
    if kind == "drude":
        d = 30.0 / a
        slope = (0.3 * d * d / a, 2.0 * d * d, 4.0 * d, 2.0)
        return ([-(1.7 ** 2 - 1.0) / (a * a) * x for x in slope],
                _cubic_poles(1.7, 0.3, 30.0, a)[0]
                + _cubic_poles(1.0, 0.3, 30.0, a)[0], True)
    wd, g0 = 1e3, 2.0       # drude-approx, a coincident (critical) pair
    d, e, dm, w2 = wd / a, g0 / a, (wd - g0) / a, (1.0 / a) ** 2
    slope = [-2.0 * w2 * d * dm, -(e * d * dm + w2 * (4.0 * d - 3.0 * e)),
             -2.0 * (e * dm + w2)]
    return slope, _pair_poles(g0, 1.0, a) + [0.0, -dm, -d], True


# a tail pin's test id keeps the integral it had when first frozen, so a
# change that moves the pin keeps the test's name; these pins have moved
_FIRST_INTEGRAL = {
    ("ohmic difference T=0.01", 32): "0x1.59a9caae5b12bp+4",
    ("ohmic difference T=0.01", 16): "0x1.cad9f2c37ffb4p+4",
    ("drude force T=0.5", 32): "0x1.943ca79c1347bp-5",
    ("drude force T=0.01", 32): "0x1.16677efd3682bp+5",
    ("drude force T=0.01", 16): "0x1.774671bbae87ap+5",
    ("drude-approx critical T=0.5", 32): "0x1.0810eca8f702ep+1",
    ("drude-approx critical T=0.5", 16): "0x1.418828966143fp+1",
}


@pytest.mark.parametrize("label, n, integral, corrections", TAIL_PINS, ids=[
    f"{label}-{n}-{_FIRST_INTEGRAL.get((label, n), integral)}-corrections{i}"
    for i, (label, n, integral, _) in enumerate(TAIL_PINS)])
def test_tail_bits(label, n, integral, corrections):
    # the tail integral and all four corrections, whose last bits mostly
    # fall below the oracle value's
    got_integral, got_corrections, _ = _tail(*_tail_case(label))(n, 0.001)
    assert got_integral.hex() == integral
    assert [c.hex() for c in got_corrections] == corrections
