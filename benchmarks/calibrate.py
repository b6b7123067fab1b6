"""Host-speed calibration for the diffreg benchmark.

The host the benchmark was built on, a shared 2-vCPU VM, changes speed by
up to 1.6x over seconds to minutes with no change of input.  Raw op times
follow that drift.  So the benchmark times small fixed kernels next to the
ops and scales each op's time by the host's speed at that moment.  The
kernels do not touch diffreg, so no change to diffreg can move them.

Each kernel resembles one kind of work that diffreg does:

- ``fraction``: exact ``Fraction`` arithmetic accumulated in dicts, like the
  coefficient ring of the exact layers;
- ``bessel``: numpy and ``scipy.special.jv`` over a few thousand points, like
  the damped tail of the numeric oracle.

Both kernels run together, about 10 ms, after every 20 ms or so of timed
ops, and several times after a long op.  Their nominal time over their
measured time is the host's current speed.  An op time scaled by that speed reads as the time the op would take
when the kernels take their nominal times, about the median speed of the
2-vCPU Intel Xeon VM that the nominal times were measured on.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
from scipy import special

# median kernel times on the 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4,
# scipy 1.17; fixed, so that scaled times stay comparable between commits
NOMINAL_S = {"fraction": 0.0052, "bessel": 0.0051}

_R = np.linspace(1.0, 400.0, 6144)


def fraction_kernel() -> int:
    rng = random.Random(5)
    acc: dict = {}
    for i in range(1000):
        q = Fraction(rng.randint(1, 99), rng.randint(1, 99))
        key = (i % 37, i % 5)
        acc[key] = acc.get(key, Fraction(0)) * q + q
    return len(acc)


def bessel_kernel() -> float:
    total = 0.0
    for j in range(4):
        z = 0.7 * _R
        g = (2.0 / z) ** 0.5 * special.jv(0.5 + j % 3, z) * _R ** -1.5 * np.log(_R * _R) ** 2
        g *= np.exp(-0.01 * (_R - 1.0))
        total += float(np.sum(np.abs(g)))
    return total


KERNELS = {"fraction": fraction_kernel, "bessel": bessel_kernel}


def speed() -> float:
    """The host's speed now: the kernels' summed nominal time over their
    summed measured time (1.0 at nominal speed)."""
    clock = time.perf_counter
    measured = 0.0
    for kernel in KERNELS.values():
        start = clock()
        kernel()
        measured += clock() - start
    return sum(NOMINAL_S.values()) / measured
