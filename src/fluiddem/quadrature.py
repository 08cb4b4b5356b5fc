"""Quadrature for bounded, piecewise-smooth integrands on [0, 1].

`integrate` applies Gauss–Legendre rules with N and 2N nodes (Golub & Welsch,
Math. Comp. 1969) to every piece between breakpoints in one call of the
integrand; a piece where the two disagree by more than its share of the
tolerance, times the piece's integral where that exceeds 1 in size, falls
back to adaptive Simpson, the tests' reference rule, at that same tolerance.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable

import numpy as np

NODES = 16


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adapt(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1) + _adapt(
        f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1
    )


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, tol: float = 1e-10) -> float:
    """Integrate f over [a, b] to absolute tolerance tol."""
    if b <= a:
        return 0.0
    fa = f(a)
    fb = f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, 48)


@functools.cache
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss–Legendre rule on [-1, 1], read-only.

    Newton steps on P_n's three-term recurrence from Tricomi's starting values,
    at most 10, until one is at rounding level (half an ulp of 1); weights
    proportional to 1 / ((1 - x^2) P_n'(x)^2), exactly symmetric, summing to 2.
    """
    x, step = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5)), 0.0
    for _ in range(10):
        x = x - step
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        step = p / slope
        if np.abs(step).max() <= 0.5 * np.finfo(float).eps:
            break
    w = 1.0 / ((1.0 - x * x) * slope * slope)
    nodes, weights = 0.5 * (x - x[::-1]), 2.0 * (w + w[::-1]) / (w + w[::-1]).sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def integrate(
    f: Callable, a: float, b: float, tol: float = 1e-10, breakpoints: Iterable[float] = ()
):
    """Integrate f over [a, b], splitting at interior breakpoints (kinks, jumps).

    f maps a 1-d array of points to values of shape (..., points); the result
    has shape (...), a float for a scalar integrand. Only the adaptive
    fallback evaluates f at a piece's ends.
    """
    if b <= a:
        return 0.0
    pts = np.array(sorted({float(a), float(b), *(float(x) for x in breakpoints if a < x < b)}))
    half = 0.5 * np.diff(pts)[:, None]
    (xc, wc), (xf, wf) = gauss_legendre(NODES), gauss_legendre(2 * NODES)
    ys = (pts[:-1, None] + half) + half * np.concatenate([xc, xf])
    vals = np.asarray(f(ys.ravel()), dtype=float)
    shape = vals.shape[:-1]
    vals = vals.reshape(-1, *ys.shape) * half
    est = vals[..., NODES:] @ wf
    per_piece = tol / len(half)
    off = np.abs(vals[..., :NODES] @ wc - est) > (allowed := per_piece * np.maximum(1.0, np.abs(est)))
    for i, j in zip(*np.nonzero(off)):
        entry = lambda t: float(np.asarray(f(np.array([t])), dtype=float).reshape(-1)[i])  # noqa: E731
        est[i, j] = adaptive_simpson(entry, pts[j], pts[j + 1], allowed[i, j])
    return est.sum(axis=1).reshape(shape) if shape else float(est.sum())
