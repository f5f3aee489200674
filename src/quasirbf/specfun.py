"""Double-precision Bessel functions J0, J1, I0, I1 on the non-negative axis.

These are the radial profiles of the nonsingular general-solution kernels:
J0 for the Helmholtz operator, I0 for the modified Helmholtz operator, and
J1/I1 for their gradients. Each function uses the ascending power series
(with compensated summation) for small arguments and the large-argument
asymptotic expansion beyond a fixed switch point:

    J0, J1:  series for x < 12, Hankel expansion for x >= 12
    I0, I1:  series for x < 15, exponential asymptotic form for x >= 15

Absolute accuracy for J and relative accuracy for I is ~1e-12 or better
on [0, 50].

Each function takes a float or an array of any shape; an array runs the
same iterations as a float, and each element of the result equals the
float result for that element.
"""
from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import DomainError

J_SWITCH = 12.0
I_SWITCH = 15.0
I_OVERFLOW_LIMIT = 700.0


def _iterate(step, state, limit: int, n_out: int):
    """Apply `state, done = step(k, *state)` for k = 0 .. limit-1 and return
    the first n_out entries of the state at the first `done`: for array
    state, the state of each element at its own first `done`."""
    if np.ndim(state[0]) == 0:
        for k in range(limit):
            state, done = step(k, *state)
            if done:
                break
        return state[:n_out]
    out = [a.copy() for a in state[:n_out]]
    running = np.ones(state[0].shape, dtype=bool)
    for k in range(limit):
        state, done = step(k, *state)
        for o, a in zip(out, state):
            np.copyto(o, a, where=running)
        running &= ~done
        if not running.any():
            break
    return out


def _series_bessel(nu: int, x, sign: float):
    """Ascending series for J_nu (sign=-1) or I_nu (sign=+1), nu in {0, 1}.

    Kahan-compensated summation; terms generated by the two-term recurrence.
    """
    def step(k, s, c, t, sq):
        m = k + 1
        t = t * sq / (m * (m + nu))  # sign * t * q, exactly: sign is +-1
        y = t - c
        u = s + y
        c = (u - s) - y
        return (u, c, t, sq), abs(t) <= 1e-18 * abs(u) + 1e-300

    t = x * 0.5 if nu == 1 else 1.0 + 0.0 * x
    return _iterate(step, (t, 0.0 * x, t, sign * (0.25 * x * x)), 399, 1)[0]


def _hankel_coefficients(nu: int):
    """a_0 .. a_60 of the large-argument expansions of J_nu and I_nu."""
    return list(accumulate(range(60), lambda a, k: a * (4 * nu * nu - (2 * k + 1) ** 2)
                           / ((k + 1) * 8.0), initial=1.0))


_HANKEL_A = (_hankel_coefficients(0), _hankel_coefficients(1))


def _asymptotic(nu: int, x, modified: bool):
    """Large-argument form of I_nu (modified) or J_nu, with the series of
    terms t_k = a_k / x^k truncated at its smallest term: Hankel's P and Q
    for J_nu, the alternating sum S for I_nu."""
    def step(k, p, q, s, t, xk, x):
        sign = -1 if k % 4 >= 2 else 1
        if k % 2 == 0:
            p = p + sign * t
        else:
            q = q + sign * t
        s = s + (-1) ** k * t
        xk = xk * x
        nxt = _HANKEL_A[nu][k + 1] / xk
        return (p, q, s, nxt, xk, x), abs(nxt) > abs(t)

    zero = 0.0 * x
    p, q, s = _iterate(step, (zero, zero, zero, 1.0 + zero, 1.0 + zero, x), 60, 3)
    if modified:
        return np.exp(x) / np.sqrt(2.0 * math.pi * x) * s
    omega = x - nu * math.pi / 2 - math.pi / 4
    return np.sqrt(2.0 / (math.pi * x)) * (np.cos(omega) * p - np.sin(omega) * q)


def _bessel(name: str, nu: int, x, modified: bool):
    """J_nu or (modified) I_nu on a float or an array."""
    sign, switch, limit = ((1.0, I_SWITCH, I_OVERFLOW_LIMIT) if modified
                           else (-1.0, J_SWITCH, math.inf))
    a = np.asarray(x, dtype=float)
    flat = a.ravel()
    if a.ndim == 0:
        lo = hi = float(a)
    else:
        lo, hi = (float(flat.min()), float(flat.max())) if flat.size else (0.0, 0.0)
    if not (lo >= 0.0 and hi < math.inf):
        raise DomainError(f"{name} is defined for finite x >= 0, got {lo if not lo >= 0.0 else hi}")
    if hi > limit:
        raise OverflowError(f"{name} overflows double precision for x > {limit}, got {hi}")
    if a.ndim == 0:
        return float(_series_bessel(nu, lo, sign) if lo < switch
                     else _asymptotic(nu, lo, modified))
    out = np.empty_like(flat)
    small = flat < switch
    if small.any():
        out[small] = _series_bessel(nu, flat[small], sign)
    if not small.all():
        out[~small] = _asymptotic(nu, flat[~small], modified)
    return out.reshape(a.shape)


def bessel_j0(x):
    return _bessel("bessel_j0", 0, x, False)


def bessel_j1(x):
    return _bessel("bessel_j1", 1, x, False)


def bessel_i0(x):
    return _bessel("bessel_i0", 0, x, True)


def bessel_i1(x):
    return _bessel("bessel_i1", 1, x, True)
