"""Particular solution on a periodic embedding box via FFT.

The source f is multiplied by a C-infinity taper so that its periodic
extension over the square box is smooth and compactly supported; the
equation L u = f_tapered is then solved mode-by-mode by dividing the FFT
coefficients by the operator's Fourier symbol. The resulting field
satisfies the governing equation exactly on the physical domain (where
the taper is 1), which is all a particular solution has to do.

The layer stays low-rank from end to end. extend_source cross-approximates
the tapered samples as A B^T (see _cross) from single rows and columns of
the grid, so their 2D FFT, the rfft2 half spectrum, is fft(A) rfft(B)^T,
and the symbol on the grid is an outer sum s1 + s2^T. The half spectrum of
u_p, fft(A) rfft(B)^T / (s1 + s2^T), is never formed: _HalfSpectrum builds
any block of it, SpectralField folds blocks of its rows into blocks of one
real matrix M by one table-driven row fold and cross-approximates M as U V^T,
checked by a seeded probe streamed over row blocks. u_p is evaluated per
block of points by two narrow GEMMs of the cos/sin phases with U and V. A
source whose tapered samples have no cross of rank <= RANK_CAP keeps its
samples: that is the r = n case, A the samples and B the identity, whose
spectrum rows are rfft2(samples) rows; a SourceGrid built from samples takes
it too. A field whose M has no such factor keeps one product with M.

With L u = D laplace(u) + v . grad(u) + c u (see the operators module), the
zero mode has symbol c. For c = 0 it is repaired by the compensator
u_c = quad |x - x0|^2 + lin.(x - x0) about the box centre x0:

    c = 0, v = 0:    quad = mean / 4D         (Poisson)
    c = 0, v != 0:   lin = mean * v / |v|^2   (conv-diff, kappa = 0)

For c > 0 (Helmholtz) the symbol vanishes on a circle of modes; near-resonant
modes with non-negligible source energy abort the solve with ResonantBoxError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import ConfigurationError, DomainError, ResonantBoxError
from .geometry import (BLOCK_PAIRS, Box2, StarDomain, bounding_box,
                       point_blocks, stack_xy)
from .operators import OperatorSpec, fourier_symbol

RESONANCE_SYMBOL_TOL = 1e-8
RESONANCE_SOURCE_TOL = 1e-10

# Cross approximation (see _cross): the largest rank kept, the relative size
# of the cross that stops it, the seeded checks that accept it (the source's
# largest error on its 4n check entries; M's probe, see SpectralField._factor).
RANK_CAP = 48
CROSS_TOL = 1e-15
SOURCE_CHECK_TOL = 1e-14
PROBE_TOL = 1e-13

_GRID_SIZES = (32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class TaperSpec:
    """Normalized half-width of the smooth rise region per box axis."""
    inner_fraction: float = 0.15

    def __post_init__(self):
        if not (0.0 < self.inner_fraction < 0.5):
            raise ConfigurationError(
                f"taper inner_fraction must lie in (0, 0.5), got {self.inner_fraction}")


@dataclass(frozen=True)
class Compensator:
    """u_c = quad |x - center|^2 + lin.(x - center), which the operator maps to
    the source mean that the dropped zero mode carried."""
    center: np.ndarray
    quad: float = 0.0
    lin: Tuple[float, float] = (0.0, 0.0)

    def value(self, x1, x2):
        d1, d2 = x1 - self.center[0], x2 - self.center[1]
        return self.quad * (d1 ** 2 + d2 ** 2) + (self.lin[0] * d1 + self.lin[1] * d2)

    def gradient(self, x1, x2) -> np.ndarray:
        d = np.stack([x1 - self.center[0], x2 - self.center[1]], axis=-1)
        return d * (2.0 * self.quad) + self.lin


def check_grid_size(n: int):
    """Reject a grid size other than a power of two in [32, 1024]."""
    if n not in _GRID_SIZES:
        raise ConfigurationError(f"grid size must be a power of two in [32, 1024], got {n}")


def _check_samples(samples: np.ndarray, n: int) -> np.ndarray:
    if samples.shape != (n, n):
        raise ConfigurationError(f"samples must be {n}x{n}, got {samples.shape}")
    if not np.all(np.isfinite(samples)):
        raise ConfigurationError("source samples must be finite")
    return samples


class SourceGrid:
    """The tapered source on the n x n grid of a square box: factors (A, B),
    (n, r) each, with samples = A B^T, or None for the r = n case, whose
    samples are given. Factored samples are computed only when read, by
    `sampler`."""

    def __init__(self, box: Box2, n: int, samples: Optional[np.ndarray] = None,
                 factors: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                 sampler: Optional[Callable[[], np.ndarray]] = None):
        check_grid_size(n)
        side = box.side
        if abs(side[0] - side[1]) > 1e-12 * side[0]:
            raise ConfigurationError("embedding box must be square")
        self.box, self.n, self.factors, self._sampler = box, n, factors, sampler
        if samples is not None:
            self.__dict__["samples"] = _check_samples(samples, n)

    @cached_property
    def samples(self) -> np.ndarray:
        return _check_samples(self._sampler(), self.n)


ALL = slice(None)  # every index of an axis, for the block accessors


@dataclass(frozen=True)
class _HalfSpectrum:
    """The half spectrum H (n, n/2+1) with H_ij = (P Q^T)_ij / (s1_i + s2_j),
    0 at the entries (zero[0], zero[1]), built one block (i, j) at a time; i
    and j are index arrays or ALL. Q None stands for the identity, P being
    the numerator itself."""
    p: np.ndarray
    q: Optional[np.ndarray]
    s1: np.ndarray
    s2: np.ndarray
    zero: Tuple[np.ndarray, np.ndarray] = (np.zeros(0, int), np.zeros(0, int))

    def numerator(self, i, j) -> np.ndarray:
        """Block (i, j) of P Q^T."""
        return self.p[i][:, j] if self.q is None else self.p[i] @ self.q[j].T

    def reciprocal(self, i, j) -> np.ndarray:
        """Block (i, j) of 1 / (s1 + s2^T), 0 at the zero entries."""
        den = self.s1[i, None] + self.s2[j]
        if len(self.zero[0]):  # zero entries z in rows a (i[a] = zi[z]), those w in columns b
            zi, zj = self.zero
            a, z = (zi, ALL) if i is ALL else np.nonzero(i[:, None] == zi)
            b, w = (zj[z], ALL) if j is ALL else np.nonzero(j[:, None] == zj[z])
            den[a[w], b] = np.inf
        return np.reciprocal(den, out=den)

    def block(self, i, j) -> np.ndarray:
        """Block (i, j) of H."""
        return self.numerator(i, j) * self.reciprocal(i, j)

    def times(self, z: np.ndarray) -> np.ndarray:
        """H z for z (n/2+1, m), in row blocks. For factors H z = sum_k
        diag(P_k) R (Q_k z), R = 1 / (s1 + s2^T), so no block of P Q^T is
        formed; where s1 is even (a real symbol) R's row n - i is its row i,
        zero entries included (the zero mode is row 0, and the guard clamps
        resonant modes in +-pairs), so only rows 0..n/2 of R Q_k z are formed."""
        n, m = len(self.s1), z.shape[1]
        if self.q is None:
            return np.concatenate([self.block(i, ALL) @ z for i in _row_blocks(n, len(self.s2))])
        qz = (self.q[:, :, None] * z[:, None]).reshape(len(z), -1)
        fold = -np.arange(n) % n
        even = np.array_equal(self.s1, self.s1[fold])
        formed = np.arange(n // 2 + 1) if even else np.arange(n)
        rz = np.empty((n, qz.shape[1]), dtype=complex)
        for i in _row_blocks(len(formed), len(self.s2)):
            r = self.reciprocal(formed[i], ALL)  # a real r multiplies qz's real view
            rz[i] = (r @ qz.view(np.float64)).view(complex) if r.dtype == float else r @ qz
        if even:
            rz[n // 2 + 1:] = rz[fold[n // 2 + 1:]]
        return np.einsum("irm,ir->im", rz.reshape(n, -1, m), self.p)


def _row_blocks(count: int, width: int):
    """Indices 0..count-1 in blocks of at most BLOCK_PAIRS // width."""
    step = max(1, BLOCK_PAIRS // width)
    return [np.arange(s, min(s + step, count)) for s in range(0, count, step)]


def _cross(rows: Callable, cols: Callable, shape: Tuple[int, int], pick: Callable):
    """Adaptive cross approximation with partial pivoting (Bebendorf, Numer.
    Math. 2000) of the real matrix S of `shape` whose row i and column j are
    rows(i) and cols(j), 1-D: (a, b) with S ~ a b^T, or None past RANK_CAP
    crosses. Each cross takes one row and one column: the residual of row
    pick(u, v), u v^T the last cross (None, None before the first), pivots
    at its largest entry j, and u is the residual of column j over that
    pivot. It stops at a pivot within CROSS_TOL of the largest so far."""
    a, b = np.empty((shape[0], RANK_CAP)), np.empty((shape[1], RANK_CAP))
    k, scale, u, v = 0, 0.0, None, None
    while True:
        i = pick(u, v)
        v = rows(i) - b[:, :k] @ a[i, :k]
        j = int(np.argmax(np.abs(v)))
        scale = max(scale, abs(v[j]))
        if abs(v[j]) <= CROSS_TOL * scale:
            return a[:, :k], b[:, :k]
        if k == RANK_CAP:
            return None
        u = (cols(j) - a[:, :k] @ b[j, :k]) / v[j]
        a[:, k], b[:, k] = u, v
        k += 1


@lru_cache(maxsize=None)
def _fold_tables(n: int):
    """Per mode k = 0..n/2 of an n-point axis, the tables of _fold and of M (see
    SpectralField.real_matrix): the partner row n - k; its weight `inner`, 1 for
    0 < k < h and 0 at k = 0, h; `sin`, which turns F_- c into row (k, sin) of M:
    i, or -i at k = h (F_- c = -c_h), or 0 at k = 0; the column gains of (k, cos),
    (k, sin), and 1 for the columns that row (h, sin) keeps, (h+1, 2) each."""
    h = n // 2
    k = np.arange(h + 1)
    inner = (k > 0) & (k < h)
    sin = np.where(inner, 1j, -1j) * (k > 0)
    gains = np.stack([np.where(inner, 2.0, 1.0), np.where(inner, -2.0, (k == h) * 1.0)], axis=-1)
    tables = (-k % n, inner * 1.0, sin, gains, np.stack([~inner, ~inner], axis=-1) * 1.0)
    for table in tables:
        table.flags.writeable = False  # shared by every field of this n
    return tables


def _fold(n: int, k, c: np.ndarray, cn: np.ndarray):
    """(F_+ c, i F_- c) = (c + inner cn, sin (c - inner cn)) for rows k (indices or
    ALL) of the half spectrum, c, and their partner rows n - k, cn (overwritten);
    inner and sin (_fold_tables) are 0, +-1 or +-i, so only the sum and difference round."""
    _, inner, sin = _fold_tables(n)[:3]
    cn *= inner[k, None]
    minus = c - cn
    minus *= sin[k, None]
    return np.add(c, cn, out=cn), minus


class SpectralField:
    """Truncated Fourier series u_p(x) = Re sum_m c_m exp(i w_m.(x - min_corner))
    plus an optional zero-mode compensator.

    The coefficients c are the half spectrum `half` (columns 0..n/2, the last
    at -n/2) of a Hermitian (n, n) array `coeffs`; `half` is given as an
    array or as a _HalfSpectrum, which builds any block of it on demand.
    With phases a_k, b_k of mode k = 0..n/2 on the two axes, u_p = [cos a,
    sin a] M [cos b, sin b] (`real_matrix`) = row dot of [cos a, sin a] U
    and [cos b, sin b] V (`_factor`). Any block of M (`_matrix`) is folded
    from a block of the half spectrum (`_fold`); `half`, `coeffs` and
    `real_matrix` are formed only when read (for conv-diff, whose symbol is
    not even, `coeffs` differs from a full fft2 division on the Nyquist ring).
    """

    def __init__(self, box: Box2, n: int, half, compensator: Optional[Compensator] = None):
        if isinstance(half, np.ndarray):
            half = _HalfSpectrum(half, None, np.ones(n), np.zeros(n // 2 + 1))
        self.box, self.n, self.spectrum, self.compensator = box, n, half, compensator
        self._modes = np.arange(n // 2 + 1)

    @cached_property
    def half(self) -> np.ndarray:
        """The half spectrum (n, n/2 + 1)."""
        return self.spectrum.block(ALL, ALL)

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The full (n, n) coefficients: the Hermitian completion of `half`."""
        tail = np.conj(self.half[-np.arange(self.n) % self.n, self.n // 2 - 1:0:-1])
        return np.concatenate([self.half, tail], axis=1)

    @cached_property
    def omega(self) -> np.ndarray:
        """Frequencies 2 pi k / side of the modes k = 0..n/2 of one axis."""
        return np.abs(_frequencies(self.n, self.box)[:self.n // 2 + 1])

    @cached_property
    def real_matrix(self) -> np.ndarray:
        """M (n+2, n+2) with Re sum_ij c_ij E_i F_j = [cos a, sin a] M [cos b, sin b].

        Grid mode i of an axis has integer frequency m_i with |m_i| = k <= h =
        n/2 (the Nyquist mode i = h has m_h = -h), so E_i = cos a_k + i
        sign(m_i) sin a_k. With the row fold (F_s c)_k = c_k + s c_{n-k} for
        0 < k < h, c_0 at k = 0 and s c_h at k = h,
            sum_i c_ij E_i = sum_k cos a_k (F_+ c)_kj + sin a_k i (F_- c)_kj.
        Along the second axis F_{n-l} = conj(F_l) and F_h = conj(exp(i b_h)),
        and Re z = Re conj z, so for any complex row v
            Re sum_j v_j F_j = Re sum_{l<=h} (G_+ v)_l exp(i b_l),
        with the column fold (G_s v)_l = v_l + s conj(v_{n-l}) for 0 < l < h,
        v_0 at l = 0 and s conj(v_h) at l = h; G_+(i v) = i G_-(v). Finally
        Re(w exp(i b)) = [Re w, -Im w].[cos b, sin b]. Column n - l of
        `coeffs` holds conj(c_{n-k,l}) in row k, so G_s doubles columns
        0 < l < h, or cancels them on the sin rows of k = 0, h, which are
        their own partners. In real arithmetic, with z viewed as [Re z, Im z]
        per column: row (k, cos) of M is F_+ c times the gains [1, 0] (l = 0),
        [2, -2] (0 < l < h), [1, 1] (l = h), and row (k, sin) is i F_- c times
        the same gains; rows and columns interleave the cos and sin of each
        mode. Row and column (0, sin) are 0.
        """
        return self._matrix(ALL, ALL)

    def _matrix(self, k, l) -> np.ndarray:
        """Rows (k, cos/sin) by columns (l, cos/sin) of M, (2|k|, 2|l|), for
        ascending mode arrays k, l or ALL: the half spectrum's rows k and n - k
        at its columns l, folded (see _fold) and scaled by the column gains."""
        partner, _, _, gains, keep = _fold_tables(self.n)
        if k is ALL:
            hk = self.spectrum.block(ALL, l)
            c, cn = hk[:self.n // 2 + 1], hk[partner]
        else:
            hk = self.spectrum.block(np.concatenate([k, partner[k]]), l)
            c, cn = hk[:len(k)], hk[len(k):]
        g = gains[l]
        out = np.empty((len(c), 2, len(g), 2))
        for s, f in enumerate(_fold(self.n, k, c, cn)):
            np.multiply(f.view(np.float64).reshape(len(c), -1, 2), g, out=out[:, s])
        if k is ALL or k[-1] == self.n // 2:
            out[-1, 1] *= keep[l]  # row (n/2, sin) keeps the columns l = 0, n/2
        return out.reshape(2 * len(c), -1)

    @cached_property
    def _factor(self):
        """(U, V), (n+2, r), with M = U V^T to rounding, or None.

        With D = diag(1 + k) on the rows and columns of mode k, which weights
        their error as d/dx weights the series, U = D^-1 a and V = D^-1 b for
        a cross a b^T of S = D M D (see _cross): each row and column of S is
        one of M, scaled by D as it is fetched. The next row is the one of
        the largest residual of a seeded probe Y = S W, W Gaussian (n+2, 4),
        and the factor is kept if that residual Y - a b^T W ends within
        PROBE_TOL of |Y| (Frobenius norms). Y = D M (D W) is streamed from
        row blocks of the half spectrum H: rows (k, cos) and (k, sin) of M D W
        are Re F_+ H Z and Re i F_- H Z, by the fold of M's rows (_fold), where
        Z folds M's column gains into D W; row (n/2, sin), which keeps two
        columns, comes from _matrix. None for n < 62, where one product with M
        costs less, or when the cross stops at RANK_CAP or fails the probe."""
        if self.n < 62:
            return None
        n, h, size = self.n, self.n // 2, self.n + 2
        partner, _, _, gains, _ = _fold_tables(n)
        d = 1.0 + self._modes.repeat(2)
        w = np.random.default_rng(20110).standard_normal((size, 4))
        dw = d[:, None] * w
        hz = self.spectrum.times(gains[:, :1] * dw[0::2] - 1j * gains[:, 1:] * dw[1::2])
        plus, minus = _fold(n, ALL, hz[:h + 1], hz[partner])
        y = np.stack([plus.real, minus.real], axis=1).reshape(size, -1)
        y[-2:] = self._matrix(self._modes[-1:], ALL) @ dw
        y *= d[:, None]
        resid = y.copy()

        def pick(u, v):
            if u is not None:
                resid[...] -= np.outer(u, v @ w)
            return int(np.argmax(np.einsum("ij,ij->i", resid, resid)))

        cross = _cross(lambda i: d[i] * self._matrix(np.array([i // 2]), ALL)[i % 2] * d,
                       lambda j: d * self._matrix(ALL, np.array([j // 2]))[:, j % 2] * d[j],
                       (size, size), pick)
        if cross is None or np.linalg.norm(resid) > PROBE_TOL * np.linalg.norm(y):
            return None
        return cross[0] / d[:, None], cross[1] / d[:, None]

    @cached_property
    def _split_tables(self):
        """Fine frequencies w_q, q < L, and coarse turns L p / side for the
        modes L p <= n/2 (in extended precision), L = isqrt(n/2 + 1)."""
        step = math.isqrt(self.n // 2 + 1)
        return (self.omega[:step],
                np.arange(0, self.n // 2 + 1, step, dtype=np.longdouble) / self.box.side[0])

    def _phases(self, x: np.ndarray) -> np.ndarray:
        """Phase factors exp(i w_k (x - min_corner)) of the modes k = 0..n/2
        at points x (P, 2) in the box (else DomainError), (2, P, n/2+1).

        Mode k = L p + q, L = isqrt(n/2 + 1), is the product of a coarse
        factor (w_{Lp}) and a fine one (w_q), so each axis exponentiates
        about 2 sqrt(n/2) phases instead of n/2 + 1. Coarse phases reach
        pi n; their turns L p (x - min_corner) / side are reduced mod 1 in
        extended precision (np.longdouble) before the exponential: in double
        precision the rounding of such arguments alone costs up to ~1e-12 at
        n = 1024, as it does for a direct exp(i w_k (x - min_corner))."""
        inside = self.box.contains(x)
        if not inside.all():
            x1, x2 = x[np.argmin(inside)]
            raise DomainError(f"point ({x1}, {x2}) lies outside the embedding box")
        fine_w, coarse_turns = self._split_tables
        d = (x - self.box.min_corner).T[:, :, None]
        turns = d.astype(np.longdouble) * coarse_turns
        turns -= np.round(turns)
        coarse = np.exp(2j * np.pi * turns.astype(float))
        fine = np.exp(1j * fine_w * d)
        z = coarse[..., None] * fine[:, :, None, :]
        return z.reshape(2, len(x), -1)[..., :self.n // 2 + 1]

    def _series(self, ex: np.ndarray, ey: np.ndarray) -> np.ndarray:
        """Re sum_kl (ex M)_k ey_l per point for phase factors ex, ey (P, n/2+1)
        of the two axes, or their derivatives, viewed as floats: the row dot
        of ex M and ey, or of ex U and ey V."""
        a, b = ex.view(np.float64), ey.view(np.float64)
        u, v = self._factor or (self.real_matrix, None)
        return np.einsum("pk,pk->p", a @ u, b if v is None else b @ v)


def _frequencies(n: int, box: Box2) -> np.ndarray:
    """Mode frequencies w_m = 2 pi m / side of the n-point grid on the square
    box, m the integer mode numbers in fftfreq order, (n,)."""
    return 2.0 * np.pi * (np.fft.fftfreq(n) * n) / float(box.side[0])


def _bump(s):
    """exp(-1/s) for s > 0, else 0; vectorized."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0
    out[pos] = np.exp(-1.0 / s[pos])
    return out


def _eta(s):
    """Smooth step: 0 for s <= 0, 1 for s >= 1, eta(s) + eta(1-s) = 1."""
    a = _bump(s)
    b = _bump(1.0 - np.asarray(s, dtype=float))
    return a / (a + b)


def _axis_weight(xi, t: float):
    """Taper weight along one axis at xi = (x - min) / side in [0, 1]:
    0 on both box edges, 1 on the plateau [t, 1 - t]."""
    xi = np.asarray(xi, dtype=float)
    rise = _eta(xi / t)
    fall = _eta((1.0 - xi) / t)
    return np.minimum(rise, fall)


def required_margin(taper: TaperSpec) -> float:
    """Smallest box_margin for which the taper plateau contains the domain."""
    t = taper.inner_fraction
    return t / (1.0 - 2.0 * t)


def _source_values(f: Callable, x1: np.ndarray, x2: np.ndarray, block) -> np.ndarray:
    """f(x1, x2) broadcast to the shape of x1 and x2 together; a result of
    another shape, or a non-finite value, raises ConfigurationError."""
    shape = np.broadcast_shapes(x1.shape, x2.shape)
    values = f(x1, x2)
    try:
        values = np.broadcast_to(values, shape)
    except ValueError:
        raise ConfigurationError(
            f"source returned shape {np.shape(values)}, which does not broadcast to "
            f"{shape}, the shape of its points in the sampled block {block}") from None
    if not np.all(np.isfinite(values)):
        raise ConfigurationError("source samples must be finite")
    return values


def extend_source(f: Callable, domain: StarDomain,
                  box: Box2, n: int, taper: TaperSpec) -> SourceGrid:
    """The tapered extension of f on the n x n periodic grid, as factors.

    f follows the callback contract of the presets module. The taper weight
    is the outer product of per-axis weights, so the samples are 0 outside
    the block of points where both are nonzero (every point off the box's
    lower edges), and inside it the weights times f. That block is
    cross-approximated (see _cross): f is called first on 4n seeded random
    points of the block, as two arrays of one shape; then on single rows,
    x1 of shape (1, 1) and x2 of shape (1, c), and single columns, x1 of
    shape (r, 1) and x2 of shape (1, 1), one of each per cross and a last
    row whose residual stops it. Each row is the one of the largest
    residual on the 4n points, and the cross is accepted if that residual
    ends within SOURCE_CHECK_TOL of their largest sample. Else, or for
    blocks no larger than RANK_CAP, f is called once on the open grid of the
    block, x1 (r, 1) and x2 (1, c), and the grid keeps the samples (the
    r = n case). A result that does not broadcast to its points' shape, or
    a non-finite one, raises ConfigurationError. A factored grid's
    `samples` are computed by that same open-grid call when read. Inside
    the physical domain the taper weight is 1, so samples there equal f
    exactly; the check below enforces that the domain's tight bounding box
    lies within the taper plateau.
    """
    t = taper.inner_fraction
    tight = bounding_box(domain, 0.0)
    plateau_lo = box.min_corner + t * box.side
    plateau_hi = box.max_corner - t * box.side
    if np.any(tight.min_corner < plateau_lo) or np.any(tight.max_corner > plateau_hi):
        raise ConfigurationError(
            "taper plateau does not contain the physical domain; "
            f"with inner_fraction={t} the box needs box_margin >= "
            f"{required_margin(taper):.4g}")
    axes = box.min_corner[:, None] + float(box.side[0]) * np.arange(n) / n  # (2, n)
    axis_w = _axis_weight((axes - box.min_corner[:, None]) / box.side[:, None], t)
    (r0, r1), (c0, c1) = (np.flatnonzero(w)[[0, -1]] + (0, 1) for w in axis_w)
    x1, x2 = axes[0, r0:r1, None], axes[1, None, c0:c1]  # (r, 1), (1, c)
    w1, w2 = axis_w[0, r0:r1], axis_w[1, c0:c1]
    shape = (int(r1 - r0), int(c1 - c0))

    def sample() -> np.ndarray:
        samples = np.zeros((n, n))
        block = np.multiply.outer(w1, w2, out=samples[r0:r1, c0:c1])
        block *= _source_values(f, x1, x2, shape)
        return samples

    if min(shape) > RANK_CAP:
        rng = np.random.default_rng(2000)
        i, j = rng.integers(shape[0], size=4 * n), rng.integers(shape[1], size=4 * n)
        check = w1[i] * w2[j] * _source_values(f, x1[i, 0], x2[0, j], shape)
        resid = check.copy()

        def pick(u, v):
            if u is not None:
                resid[...] -= u[i] * v[j]
            return int(i[np.argmax(np.abs(resid))])

        factor = _cross(lambda k: w1[k] * w2 * _source_values(f, x1[k:k + 1], x2, shape)[0],
                        lambda k: w1 * w2[k] * _source_values(f, x1, x2[:, k:k + 1], shape)[:, 0],
                        shape, pick)
        if factor is not None and (np.abs(resid).max(initial=0.0)
                                   <= SOURCE_CHECK_TOL * np.abs(check).max(initial=0.0)):
            factors = np.zeros((2, n, factor[0].shape[1]))
            factors[0, r0:r1], factors[1, c0:c1] = factor
            return SourceGrid(box, n, factors=tuple(factors), sampler=sample)
    return SourceGrid(box, n, samples=sample())


def solve_particular(op: OperatorSpec, grid: SourceGrid) -> SpectralField:
    """Divide the half spectrum of the samples by the Fourier symbol, held as
    factors and an outer sum: fft(A) rfft(B)^T / (s1 + s2^T), whose rows and
    columns the field builds on demand, or rfft2(samples) in the r = n case;
    O(n r log n) for factors of rank r, O(n^2 log n) for samples."""
    n, h = grid.n, grid.n // 2
    if grid.factors is None:
        p, q, total = np.fft.rfft2(grid.samples), None, grid.samples.sum()
    else:
        a, b = grid.factors
        p, q, total = np.fft.fft(a, axis=0), np.fft.rfft(b, axis=0), a.sum(axis=0) @ b.sum(axis=0)
    m = np.fft.fftfreq(n) * n
    w = _frequencies(n, grid.box)
    # no operator has a mixed w1*w2 term, so the symbol on the grid is the
    # outer sum sigma(w1, 0) + sigma(0, w2) - sigma(0, 0); the series
    # coefficients are fft2 / (sigma n^2), and n^2 scales both parts exactly
    D, v, c = op.coefficients[:3]
    s1 = fourier_symbol(op, stack_xy(w, 0.0)) * (n * n)
    s2 = (fourier_symbol(op, stack_xy(0.0, w[:h + 1])) - fourier_symbol(op, (0.0, 0.0))) * (n * n)
    spectrum = _HalfSpectrum(p, q, s1, s2) if v.any() else _HalfSpectrum(p, q, s1.real, s2.real)

    compensator = None
    if c == 0.0:
        origin, mean = np.zeros(1, int), float(total) / (n * n)
        compensator = (Compensator(grid.box.center, lin=tuple(mean * v / float(v @ v)))
                       if v.any() else Compensator(grid.box.center, quad=mean / (4.0 * D)))
        spectrum = replace(spectrum, zero=(origin, origin))

    if c > 0.0:
        spectrum = replace(spectrum, zero=_clamp_resonances(op, spectrum, m))
    return SpectralField(grid.box, n, spectrum, compensator)


def _clamp_resonances(op: OperatorSpec, spectrum: _HalfSpectrum, m: np.ndarray):
    """The near-resonant modes (i, j), |sigma_ij| <= RESONANCE_SYMBOL_TOL
    max(1, c), of a real symbol, found by scanning s1 + s2^T a row block at a
    time; ResonantBoxError if one carries more than RESONANCE_SOURCE_TOL of
    max |fhat| (|fhat| and the symbol are even: the half grid sees every mode)."""
    n = len(spectrum.s1)
    tol = RESONANCE_SYMBOL_TOL * max(1.0, op.coefficients.c) * (n * n)
    blocks = _row_blocks(n, len(spectrum.s2))
    i, j = np.concatenate([np.argwhere(np.abs(spectrum.s1[rows, None] + spectrum.s2) <= tol)
                           + (rows[0], 0) for rows in blocks]).T
    if len(i):
        fmax = max(float(np.abs(spectrum.numerator(rows, ALL)).max()) for rows in blocks)
        fhat = spectrum.numerator(i, ALL)[np.arange(len(i)), j]
        bad = np.flatnonzero(np.abs(fhat) > RESONANCE_SOURCE_TOL * fmax)
        if len(bad):
            first = bad[np.lexsort((j[bad], i[bad]))[0]]
            raise ResonantBoxError(
                f"Fourier mode {(int(m[i[first]]), int(m[j[first]]))} of the embedding box "
                f"is resonant for {op} and carries source energy; "
                "change box_margin or the grid size to detune the box")
    return i, j


def _evaluate(sf: SpectralField, x, gradient: bool) -> np.ndarray:
    """u_p (shape (...)) or grad u_p (shape (..., 2)) at points x (2,) or (..., 2):
    per block of points, real GEMMs of the phase factors with the folded matrix
    or its factor (see SpectralField). The derivative phases i w exp(i w x) go
    through the same matrices."""
    pts, blocks, shape = point_blocks(x, sf.n // 2 + 1)
    out = np.empty((len(pts), 2) if gradient else len(pts))
    iw = 1j * sf.omega
    for blk in blocks:
        ex, ey = sf._phases(pts[blk])
        if gradient:
            out[blk, 0], out[blk, 1] = sf._series(iw * ex, ey), sf._series(ex, iw * ey)
        else:
            out[blk] = sf._series(ex, ey)
        del ex, ey  # frees this block's phases before the next block's are built
    if sf.compensator is not None:
        c = sf.compensator
        out += (c.gradient if gradient else c.value)(pts[:, 0], pts[:, 1])
    return out.reshape(shape + out.shape[1:])


def eval_particular(sf: SpectralField, x):
    """u_p at points x, (2,) or (..., 2); the result has shape (...)."""
    return _evaluate(sf, x, gradient=False)[()]


def eval_particular_gradient(sf: SpectralField, x) -> np.ndarray:
    """grad u_p at points x, (2,) or (..., 2); the result has x's shape."""
    return _evaluate(sf, x, gradient=True)
