"""The package's one root finder: a line-for-line port of the classic
``brentq`` (Brent's method on a sign-changing bracket) with its default
tolerances.  It raises :class:`RootError` rather than return a best guess.
"""

from __future__ import annotations

import math

XTOL = 2e-12
RTOL = 4.0 * 2.220446049250313e-16  # four machine epsilons
MAX_ITER = 100


class RootError(RuntimeError):
    """No sign change on the bracket, or no convergence in ``MAX_ITER`` iterations."""


def brentq(f, a: float, b: float, xtol: float = XTOL) -> tuple[float, int]:
    """Root of ``f`` in ``[a, b]`` and the number of iterations it took.

    Converged once the bracket half-width is below ``(xtol + RTOL*|x|)/2``,
    so ``xtol=0`` makes the tolerance purely relative.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre, 0
    if fcur == 0.0:
        return xcur, 0
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise RootError(f"no sign change on [{a}, {b}]: f(a)={fpre:.6g}, f(b)={fcur:.6g}")
    for iteration in range(1, MAX_ITER + 1):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, iteration

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise RootError(f"no convergence in {MAX_ITER} iterations on [{a}, {b}], last x={xcur!r}")
