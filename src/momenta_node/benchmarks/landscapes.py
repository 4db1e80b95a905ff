"""Two classic 2-d optimization test functions with analytic gradients.

Both have a single global minimum reached through awkward geometry: a
long curved valley (Rosenbrock) and a plateau riddled with near-flat
directions (Beale).  The trajectory experiment integrates descent flows
over these surfaces, so each landscape carries its minimizer and a
sensible plotting/starting domain alongside the callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


# A diverging flow can push intermediates past the float range, and the
# result must then be inf (which the solvers detect), not an exception.  The
# objectives use numpy scalars, which yield inf.  The gradients run on every
# RHS evaluation, take any indexable point and return a pair of plain
# Python floats, several times faster than numpy and bit-identical to it;
# of their operations only ``**`` can raise OverflowError, so cubes go
# through ``_cube``.


def _cube(y: float) -> float:
    try:
        return y**3
    except OverflowError:
        return math.copysign(math.inf, y)


def rosenbrock_eval(p: np.ndarray) -> float:
    x, y = np.float64(p[0]), np.float64(p[1])
    with np.errstate(over="ignore", invalid="ignore"):
        return float((1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2)


def rosenbrock_grad(p: Sequence[float]) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    return -2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)


def beale_eval(p: np.ndarray) -> float:
    x, y = np.float64(p[0]), np.float64(p[1])
    with np.errstate(over="ignore", invalid="ignore"):
        t1 = 1.5 - x + x * y
        t2 = 2.25 - x + x * y * y
        t3 = 2.625 - x + x * y**3
        return float(t1 * t1 + t2 * t2 + t3 * t3)


def beale_grad(p: Sequence[float]) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    y3 = _cube(y)
    t1 = 1.5 - x + x * y
    t2 = 2.25 - x + x * y * y
    t3 = 2.625 - x + x * y3
    gx = 2.0 * t1 * (y - 1.0) + 2.0 * t2 * (y * y - 1.0) + 2.0 * t3 * (y3 - 1.0)
    gy = 2.0 * t1 * x + 4.0 * t2 * x * y + 6.0 * t3 * x * y * y
    return gx, gy


@dataclass(frozen=True)
class Landscape:
    """A named 2-d objective with analytic gradient and known minimizer.

    ``domain`` is the conventional plotting box ((x_lo, x_hi), (y_lo, y_hi));
    start points are validated against it.  ``default_start`` is the stock
    far-from-minimum corner the trajectory experiment launches from.
    """

    name: str
    eval: Callable[[np.ndarray], float]
    grad: Callable[[Sequence[float]], tuple[float, float]]
    minimizer: np.ndarray
    domain: tuple[tuple[float, float], tuple[float, float]]
    default_start: np.ndarray

    def contains(self, p: np.ndarray) -> bool:
        (xl, xh), (yl, yh) = self.domain
        return bool(xl <= p[0] <= xh and yl <= p[1] <= yh)


LANDSCAPES: dict[str, Landscape] = {
    "rosenbrock": Landscape(
        name="rosenbrock",
        eval=rosenbrock_eval,
        grad=rosenbrock_grad,
        minimizer=np.array([1.0, 1.0]),
        domain=((-2.5, 2.5), (-1.5, 3.5)),
        default_start=np.array([-2.0, 2.0]),
    ),
    "beale": Landscape(
        name="beale",
        eval=beale_eval,
        grad=beale_grad,
        minimizer=np.array([3.0, 0.5]),
        domain=((-4.5, 4.5), (-4.5, 4.5)),
        default_start=np.array([-4.0, -4.0]),
    ),
}


def get_landscape(name: str) -> Landscape:
    try:
        return LANDSCAPES[name]
    except KeyError:
        known = ", ".join(sorted(LANDSCAPES))
        raise ValueError(f"unknown landscape {name!r}; expected one of: {known}") from None
