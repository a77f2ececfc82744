"""The flat drop's exact solution: the limit the contact runs converge to.

A flat string at height h, released at speed V with both ends pinned, hits
the obstacle everywhere at once at t* = h/V except near the ends, which the
pinned boundary holds up.  With alpha = 0 and wave speed 1, d'Alembert's
formula with odd reflection at the ends gives the inelastic solution in
closed form (cf. Schatzman's vibrating string with an obstacle, 1980).
The contact set [t, l - t] carries no force after the impact, so the
formula holds for all time.  The impact loses V^2 l/2 - V h at the one
instant t*, and K + E is V h afterwards.  The solver's runs use
``single_mode`` with amplitude 0, offset h, v0 = -V and alpha = 0.
"""

import numpy as np


def flat_drop_eta(times, xs, h: float, speed: float, length: float = 1.0) -> np.ndarray:
    """eta on the (times x xs) grid; needs h / speed <= length / 2."""
    t, x = np.asarray(times, float)[:, None], np.asarray(xs, float)[None, :]

    def rest(y):  # odd, 2l-periodic extension of -min(V y, h, V (l - y)) on [0, l]
        y = np.mod(y, 2.0 * length)
        upper = y > length
        y = np.where(upper, 2.0 * length - y, y)
        depth = np.minimum(np.minimum(speed * y, h), speed * (length - y))
        return np.where(upper, depth, -depth)

    before = h - speed * np.minimum(t, np.minimum(x, length - x))
    s = t - h / speed
    after = h + 0.5 * (rest(x - s) + rest(x + s))
    return np.where(s <= 0.0, before, after)
