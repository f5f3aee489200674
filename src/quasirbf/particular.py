"""Particular solution on a periodic embedding box via FFT.

The source f is multiplied by a C-infinity taper so that its periodic
extension over the square box is smooth and compactly supported; the
equation L u = f_tapered is then solved mode-by-mode by dividing the FFT
coefficients by the operator's Fourier symbol. The resulting field
satisfies the governing equation exactly on the physical domain (where
the taper is 1), which is all a particular solution has to do.

The layer stays low-rank from end to end. extend_source cross-approximates
the tapered samples as A B^T (_cross), so their rfft2 half spectrum is P Q^T =
fft(A) rfft(B)^T. The symbol on the grid is an outer sum s1 + s2^T, and its
reciprocal C depends only on the grid, the operator and the box: one cached
cross X Y^T of C (_reciprocal_factor) serves every source, and u_p's half
spectrum (P Q^T) o C is the product (P o X)(Q o Y)^T. SpectralField folds it
into u_p's real matrix M and crosses that down to M's rank as U V^T; u_p is
evaluated per block of points by one stacked GEMM of each axis's cos/sin phases
with U and V. The three crosses are one _cross, checked on seeded samples of the
crossed matrix. A source with no cross of rank <= RANK_CAP keeps its samples
(the r = n case, spectrum rfft2(samples)), as does a SourceGrid built from
samples; such a field, or one whose C has no cross (a near-resonant box),
keeps one product with M, folded from the whole half spectrum.

With L u = D laplace(u) + v . grad(u) + c u (see the operators module), the
zero mode has symbol c. For c = 0 it is repaired by the compensator
u_c = quad |x - x0|^2 + lin.(x - x0) about the box centre x0:

    c = 0, v = 0:    quad = mean / 4D         (Poisson)
    c = 0, v != 0:   lin = mean * v / |v|^2   (conv-diff, kappa = 0)

For c > 0 (Helmholtz) the symbol vanishes on a circle of modes, found once
per grid, operator and box side by a dense mask (_symbol); near-resonant
modes with non-negligible source energy abort the solve with ResonantBoxError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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
# of the cross that stops it, and the largest residual on its seeded check,
# relative to the largest check value or pivot, that accepts it.
RANK_CAP = 48
CROSS_TOL = 1e-15
CHECK_TOL = 1e-14

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


# _phases' constants, as arrays: numpy converts a Python scalar on every call
_HEAD, _TURN, _ONE = np.array(-(1 << 27)), np.array(2j * np.pi), np.array(1.0 + 0j)
ALL = slice(None)  # every index of an axis, for _HalfSpectrum.reciprocal


@dataclass(frozen=True)
class _HalfSpectrum:
    """The half spectrum H (n, n/2+1) with H_ij = (P Q^T)_ij C_ij, C = 1 / (s1 +
    s2^T) but 0 at the entries (zero[0], zero[1]). Q None stands for the
    identity, P being the numerator itself. `cross` is _reciprocal_factor's
    cross of C."""
    p: Optional[np.ndarray]
    q: Optional[np.ndarray]
    s1: np.ndarray
    s2: np.ndarray
    zero: Tuple[np.ndarray, np.ndarray] = (np.zeros(0, int), np.zeros(0, int))
    cross: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def numerator(self, i) -> np.ndarray:
        """Rows i (indices or ALL) of P Q^T."""
        return self.p[i] if self.q is None else self.p[i] @ self.q.T

    def reciprocal(self, i, j) -> np.ndarray:
        """Block (i, j) of C; i and j are index arrays or ALL."""
        den = self.s1[i, None] + self.s2[j]
        if len(self.zero[0]):  # zero entries z in rows a (i[a] = zi[z]), those w in columns b
            zi, zj = self.zero
            a, z = (zi, ALL) if i is ALL else np.nonzero(i[:, None] == zi)
            b, w = (zj[z], ALL) if j is ALL else np.nonzero(j[:, None] == zj[z])
            den[a[w], b] = np.inf
        return np.reciprocal(den, out=den)

    def block(self) -> np.ndarray:
        """H itself."""
        return self.numerator(ALL) * self.reciprocal(ALL, ALL)


def _cross(rows: Callable, cols: Callable, shape: Tuple[int, int], check: np.ndarray,
           sample: Callable, at: Optional[np.ndarray] = None, dtype=float):
    """Adaptive cross approximation with partial pivoting (Bebendorf, Numer.
    Math. 2000) of the matrix S of `shape` whose row i and column j are rows(i)
    and cols(j): (a, b) with S ~ a b^T, or None. It is checked on a seeded
    linear sample of S, `check`, whose check[..., k] comes from S's row at[k]
    (row k if at is None); sample(u, v) samples a cross u v^T alike. Each cross
    takes the residual of the row of the largest check residual, pivots at its
    largest entry j, and u is the residual of column j over that pivot. It
    stops at a pivot within CROSS_TOL of the largest so far, and is accepted if
    the check residual then lies within CHECK_TOL of the largest |check| or
    pivot. It gives up past RANK_CAP crosses, or once the check residual lies
    more than RANK_CAP - k decades above that after k crosses: even falling a
    decade per cross, it would end past the cap."""
    a, b = (np.empty((m, RANK_CAP), dtype, order="F") for m in shape)
    resid, top, k, scale = check.copy(), np.abs(check).max(initial=0.0), 0, 0.0
    while True:
        size = np.abs(resid)
        i = int(size.argmax())
        worst = size.flat[i]
        if worst > top * CHECK_TOL * 10.0 ** (RANK_CAP - k):
            return None
        i %= size.shape[-1]
        i = i if at is None else int(at[i])
        v = rows(i) - b[:, :k] @ a[i, :k]
        j = int(np.abs(v).argmax())
        scale = max(scale, abs(v[j]))
        if abs(v[j]) <= CROSS_TOL * scale:
            return None if worst > CHECK_TOL * top else (a[:, :k], b[:, :k])
        if k == RANK_CAP:
            return None
        u = (cols(j) - a[:, :k] @ b[j, :k]) / v[j]
        a[:, k], b[:, k] = u, v
        resid -= sample(u, v)
        top = max(top, abs(v[j]))
        k += 1


@lru_cache(maxsize=16)
def _seeded(seed: int, shape: Tuple[int, ...], count: int = 0):
    """Cached seeded draws: `count` entries (i, j) of a matrix of `shape`, or
    for count 0 a Gaussian array of `shape`."""
    rng = np.random.default_rng(seed)
    if count:
        return _read_only(*(rng.integers(m, size=count) for m in shape))
    return _read_only(rng.standard_normal(shape))[0]


def _read_only(*arrays):
    """arrays, made read-only: they are cached and shared by every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=None)
def _fold_tables(n: int):
    """Per mode k = 0..n/2 of an n-point axis, the tables of _fold and of M (see
    SpectralField.real_matrix): the partner row n - k; its weight `inner`, 1 for
    0 < k < h and 0 at k = 0, h; `sin`, which turns F_- c into row (k, sin) of M:
    i, or -i at k = h (F_- c = -c_h), or 0 at k = 0; the column gains of (k, cos)
    and (k, sin), (h+1, 2)."""
    h = n // 2
    k = np.arange(h + 1)
    inner = (k > 0) & (k < h)
    sin = np.where(inner, 1j, -1j) * (k > 0)
    gains = np.stack([np.where(inner, 2.0, 1.0), np.where(inner, -2.0, (k == h) * 1.0)], axis=-1)
    return _read_only(-k % n, inner * 1.0, sin, gains)


def _fold(n: int, c: np.ndarray, cn: np.ndarray) -> np.ndarray:
    """F (n/2+1, 2, m) with F[:, 0] = F_+ c = c + inner cn and F[:, 1] = i F_- c
    = sin (c - inner cn) for the rows 0..n/2 of the half spectrum, c, and their
    partner rows n - k, cn (overwritten); inner and sin (_fold_tables) are 0,
    +-1 or +-i, so only the sum and difference round."""
    _, inner, sin = _fold_tables(n)[:3]
    cn *= inner[:, None]
    out = np.empty((len(c), 2) + c.shape[1:], complex)
    np.add(c, cn, out=out[:, 0])
    np.subtract(c, cn, out=out[:, 1])
    out[:, 1] *= sin[:, None]
    return out


class SpectralField:
    """Truncated Fourier series u_p(x) = Re sum_m c_m exp(i w_m.(x - min_corner))
    plus an optional zero-mode compensator.

    The coefficients c are the half spectrum `half` (columns 0..n/2, the last
    at -n/2) of a Hermitian (n, n) array `coeffs`; `half` is given as an
    array or as a _HalfSpectrum. With phases a_k, b_k of mode k = 0..n/2 on the
    two axes (`_phases`: two exponentials per point and axis, reduced exactly in
    double arithmetic), u_p = [cos a, sin a] M [cos b, sin b] (`real_matrix`) =
    row dot of [cos a, sin a] U and [cos b, sin b] V (`_factor`). d/dx maps (cos
    a_k, sin a_k) to w_k (-sin a_k, cos a_k), the pair times J = [[0, w_k],
    [-w_k, 0]]: d_x u_p is the row dot of [cos a, sin a] J U and [cos b, sin b]
    V, d_y u_p alike with J V (J U, J V cached: `_gradient_factor`; with M, J
    goes on the phase rows). `half`, `coeffs` and `real_matrix` are formed only
    when read (for conv-diff, whose symbol is not even, `coeffs` differs from a
    full fft2 division on the Nyquist ring).
    """

    def __init__(self, box: Box2, n: int, half, compensator: Optional[Compensator] = None):
        if isinstance(half, np.ndarray):
            half = _HalfSpectrum(half, None, np.ones(n), np.zeros(n // 2 + 1))
        self.box, self.n, self.spectrum, self.compensator = box, n, half, compensator

    @cached_property
    def half(self) -> np.ndarray:
        """The half spectrum (n, n/2 + 1)."""
        return _read_only(self.spectrum.block())[0]

    @cached_property
    def coeffs(self) -> np.ndarray:
        """The full (n, n) coefficients: the Hermitian completion of `half`."""
        tail = np.conj(self.half[-np.arange(self.n) % self.n, self.n // 2 - 1:0:-1])
        return _read_only(np.concatenate([self.half, tail], axis=1))[0]

    @cached_property
    def omega(self) -> np.ndarray:
        """Frequencies 2 pi k / side of the modes k = 0..n/2 of one axis."""
        w = _frequencies(self.n, float(self.box.side[0]))[:self.n // 2 + 1]
        return _read_only(np.abs(w))[0]

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
        partner, _, _, gains = _fold_tables(self.n)
        half = self.spectrum.block()
        c = _fold(self.n, half[:self.n // 2 + 1], half[partner])
        out = c.view(np.float64).reshape(len(c), 2, -1, 2) * gains
        out[-1, 1, 1:-1] = 0.0  # row (n/2, sin) keeps the columns l = 0, n/2
        return _read_only(out.reshape(self.n + 2, -1))[0]

    @cached_property
    def _factor(self):
        """U, V stacked, (2, n+2, r), with M = U V^T to rounding, or None.

        With the cross X Y^T of C (_HalfSpectrum.cross), H = A B^T for A = P o
        X and B = Q o Y (each column of P times each of X). The row fold of A
        (_fold) and M's column gains make M = U0 V0^T: row (k, s) of U0 is F_s A
        as [Re, Im], rows (l, cos), (l, sin) of V0 are g_l conj(B_l) and g_l i
        conj(B_l), as Re(a b) = [Re a, Im a].[Re b, -Im b] and Im(a b) = [Re a,
        Im a].[Im b, Re b]. A real symbol is even, so X holds C's rows 0..n/2,
        and P is Hermitian: F_s A = (g o [Re P, Im P]) o X, real, and B's side
        alike. U V^T is a cross of S = D U0 V0^T D checked on a seeded probe of
        S, U = D^-1 a and V = D^-1 b: D = diag(1 + k) on the rows and columns of
        mode k weights their error as d/dx weights the series. Row (n/2, sin),
        which keeps only the columns of l = 0, n/2, is M's own, one more column
        of U and V, from H[n/2, 0] and H[n/2, n/2]. None for the r = n case, or
        when either cross fails: the series then uses M itself."""
        s, n, h = self.spectrum, self.n, self.n // 2
        if s.q is None or s.cross is None:
            return None
        partner, _, _, gains = _fold_tables(n)
        d = 1.0 + np.arange(h + 1)
        (x, y), q = s.cross, s.q * d[:, None]
        if len(x) < n:
            u0, v0 = ((np.stack([z.real, z.imag], axis=1) * gains[:, :, None])[..., None]
                      * f[:, None, None] for z, f in ((s.p[:h + 1] * d[:, None], x), (q, y)))
        else:
            a = ((s.p * (1.0 + np.abs(np.fft.fftfreq(n, 1.0 / n)))[:, None])[:, :, None]
                 * x[:, None]).reshape(n, -1)
            b = (q[:, :, None] * y[:, None]).reshape(h + 1, 1, -1)
            b = np.conjugate(b, out=b) * (gains * [1.0, 1j])[:, :, None]
            u0, v0 = (z.view(np.float64) for z in (_fold(n, a[:h + 1], a[partner]), b))
        u0, v0 = (z.reshape(n + 2, -1) for z in (u0, v0))
        u0[-1] = 0.0
        w = _seeded(20110, (4, n + 2))
        cross = _cross(lambda k: v0 @ u0[k], lambda k: u0 @ v0[k], (n + 2, n + 2),
                       (w @ v0) @ u0.T, lambda u, v: (w @ v)[:, None] * u)
        if cross is None:
            return None
        row = s.numerator(np.array([h]))[0, [0, h]] * s.reciprocal(np.array([h]), ALL)[0, [0, h]]
        last = np.zeros(n + 2)
        last[[0, n, n + 1]] = row[0].imag, row[1].imag, -row[1].real
        d = d.repeat(2)[:, None]
        u, v = (np.concatenate([z / d, e[:, None]], axis=1) for z, e in
                zip(cross, (np.zeros(n + 2), last)))
        u[-1, -1] = 1.0
        return _read_only(np.stack([u, v]))[0]

    @cached_property
    def _gradient_factor(self):
        """([U, J U], [V, J V]), (2, n+2, 2r), for _factor (U, V), or None (see the class)."""
        z, w = self._factor, self.omega[:, None, None] * np.array([[1.0], [-1.0]])
        return None if z is None else _read_only(np.concatenate(
            [z, (z.reshape(2, -1, 2, z.shape[2])[:, :, ::-1] * w).reshape(z.shape)], axis=2))[0]

    @cached_property
    def _split_tables(self):
        """_phases' tables: 26-bit heads s_hi of the turn rates s = (L, 1) / side, L = isqrt(n/2
        + 1); the exact rest s - s_hi, rounded (side's integer ratio); signs and box corners."""
        step, (num, den) = math.isqrt(self.n // 2 + 1), float(self.box.side[0]).as_integer_ratio()
        hi = (np.array([step * den / num, den / num]).view(np.int64) & _HEAD).view(np.float64)
        lo = [(r * den * b - a * num) / (num * b)
              for r, (a, b) in zip((step, 1), map(float.as_integer_ratio, hi.tolist()))]
        corners = np.stack([-self.box.min_corner, self.box.max_corner])[:, :, None]
        return _read_only(hi[:, None, None], np.array(lo)[:, None, None],
                          np.array([1.0, -1.0])[:, None, None], corners)

    def _phases(self, x: np.ndarray) -> np.ndarray:
        """Phase factors exp(i w_k (x - min_corner)) of the modes k = 0..n/2
        at points x (P, 2) in the box (else DomainError), (2, P, n/2+1).

        Mode k = L p + q is c^p f^q, c = exp(i w_L d), f = exp(i w_1 d), d = x - min_corner: two
        exponentials per point and axis and cumulative products, alike in any block. The turns d s
        are reduced mod 1 exactly in double arithmetic (Dekker, Numer. Math. 1971): the 26-bit
        heads of d and s multiply exactly, rint takes off the integer part, and the tails (d -
        head) s_hi + d s_lo are added. Error ~1.5e-14 at n = 1024, on any platform."""
        s_hi, s_lo, signs, corners = self._split_tables
        d = x.T * signs + corners  # x - min_corner and max_corner - x, signs exact
        if not np.minimum.reduce(d, None) >= 0.0:
            x1, x2 = x[np.argmin(self.box.contains(x))]
            raise DomainError(f"point ({x1}, {x2}) lies outside the embedding box")
        d = d[0]
        head = (d.view(np.int64) & _HEAD).view(np.float64)
        turns = head * s_hi  # exact; axes: rate, box axis, point
        turns -= np.rint(turns)
        turns += (d - head) * s_hi + d * s_lo
        k, step = self.n // 2 + 1, math.isqrt(self.n // 2 + 1)
        z = np.empty(turns.shape + (-(-k // step),), complex)  # powers 0..m-1, m >= step
        z[...] = np.exp(turns * _TURN)[..., None]
        z[..., 0] = _ONE
        np.multiply.accumulate(z, axis=-1, out=z)
        z = z[0, ..., None] * z[1, :, :, None, :step]
        return z.reshape(2, len(x), -1)[..., :k]

    def _series(self, z: np.ndarray, gradient: bool = False) -> np.ndarray:
        """u_p (P,) or grad u_p (P, 2) from phase factors z (2, P, n/2+1) viewed as floats:
        row dots of ex U and ey V (one stacked product), or of ex M and ey, with J on one axis
        for the gradient (J U and J V from _gradient_factor; with M, the rows i w e beside e)."""
        n = z.shape[1]
        if gradient and self._factor is None:
            z = np.stack([z, 1j * self.omega * z], 2).reshape(2, 2 * n, -1)
        f = z.view(np.float64)
        uv = self._gradient_factor if gradient else self._factor
        p, q = (f[0] @ self.real_matrix, f[1]) if uv is None else np.matmul(f, uv)
        if not gradient:
            return np.einsum("pk,pk->p", p, q)
        return np.add.reduce(p.reshape(n, 2, -1)[:, ::-1] * q.reshape(n, 2, -1), axis=2)


def _frequencies(n: int, side: float) -> np.ndarray:
    """Mode frequencies w_m = 2 pi m / side of the n-point grid on a square
    box, m the integer mode numbers in fftfreq order, (n,)."""
    return 2.0 * np.pi * (np.fft.fftfreq(n) * n) / side


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
    cross-approximated (_cross): f is called first on 4n seeded
    points of the block, as two arrays of one shape, which check the cross;
    then per cross on one row, x1 (1, 1) and x2 (1, c), and one column, x1
    (r, 1) and x2 (1, 1), and on a last row whose residual stops it. If the
    cross fails or gives up, or the block is no larger than RANK_CAP, f is
    called once on the block's open grid, x1 (r, 1) and x2 (1, c), and the
    grid keeps the samples (the r = n case); a factored grid's `samples` come
    from that same call when read. A result that does not broadcast to its
    points' shape, or a non-finite one, raises ConfigurationError. The taper
    is 1 on the physical domain, so samples there equal f exactly; the check
    below enforces that the domain's tight bounding box lies within the
    taper plateau.
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
        i, j = _seeded(2000, shape, 4 * n)
        check = w1[i] * w2[j] * _source_values(f, x1[i, 0], x2[0, j], shape)
        factor = _cross(
            lambda k: w1[k] * w2 * _source_values(f, x1[k:k + 1], x2, shape)[0],
            lambda k: w1 * w2[k] * _source_values(f, x1, x2[:, k:k + 1], shape)[:, 0],
            shape, check, lambda u, v: u[i] * v[j], i)
        if factor is not None:
            factors = np.zeros((2, n, factor[0].shape[1]))
            factors[0, r0:r1], factors[1, c0:c1] = factor
            return SourceGrid(box, n, factors=tuple(factors), sampler=sample)
    return SourceGrid(box, n, samples=sample())


def solve_particular(op: OperatorSpec, grid: SourceGrid) -> SpectralField:
    """Divide the half spectrum of the samples by the Fourier symbol, held as
    factors and an outer sum: fft(A) rfft(B)^T / (s1 + s2^T), with the cached
    cross of 1 / (s1 + s2^T) (_reciprocal_factor), or rfft2(samples) in the
    r = n case; O(n r log n) for factors of rank r, O(n^2 log n) for samples."""
    n = grid.n
    if grid.factors is None:
        p, q, total = np.fft.rfft2(grid.samples), None, grid.samples.sum()
    else:
        a, b = grid.factors
        p, q, total = np.fft.fft(a, axis=0), np.fft.rfft(b, axis=0), a.sum(axis=0) @ b.sum(axis=0)
    _read_only(*(z for z in (p, q) if z is not None))
    D, v, c = op.coefficients[:3]
    key = (n, (D, tuple(v.tolist()), c), float(grid.box.side[0]))
    spectrum = _HalfSpectrum(p, q, *_symbol(*key), None if q is None else _reciprocal_factor(*key))
    if c > 0.0:
        _check_resonances(op, spectrum)

    compensator = None
    if c == 0.0:
        mean = float(total) / (n * n)
        compensator = (Compensator(grid.box.center, lin=tuple(mean * v / float(v @ v)))
                       if v.any() else Compensator(grid.box.center, quad=mean / (4.0 * D)))
    return SpectralField(grid.box, n, spectrum, compensator)


@lru_cache(maxsize=8)
def _symbol(n: int, coefficients, side: float):
    """(s1, s2, zero) for the operator's (D, v, c): its symbol on the grid of
    this box side, times n^2, as the outer sum s1 + s2^T over the (n,) and
    (n/2 + 1,) modes (no operator has a mixed w1 w2 term), real unless v != 0;
    and the entries where 1 / (s1 + s2^T) is set to 0: the zero mode for c =
    0, and for c > 0 the near-resonant modes, |s1_i + s2_j| <= tol, found by
    one dense mask over the (n, n/2 + 1) outer sum."""
    c, w = coefficients[2], _frequencies(n, side)
    s1 = fourier_symbol(coefficients, stack_xy(w, 0.0)) * (n * n)
    s2 = (fourier_symbol(coefficients, stack_xy(0.0, w[:n // 2 + 1]))
          - fourier_symbol(coefficients, (0.0, 0.0))) * (n * n)
    if not any(coefficients[1]):
        s1, s2 = s1.real, s2.real
    i = j = np.zeros(int(c == 0.0), int)
    if c > 0.0:
        tol = RESONANCE_SYMBOL_TOL * max(1.0, c) * (n * n)
        i, j = np.nonzero(np.abs(s1[:, None] + s2) <= tol)
    return _read_only(s1, s2) + (_read_only(i, j),)


@lru_cache(maxsize=8)
def _reciprocal_factor(n: int, coefficients, side: float):
    """(X, Y) with X Y^T = C, the reciprocal of _symbol(n, coefficients, side)
    with its zero entries, to CHECK_TOL on 8n seeded entries, or None. Y has
    n/2 + 1 rows; X has n, or for a real symbol, which is even (C's row n - i
    is its row i), rows 0..n/2 only. C's entries are closed form; it is
    Cauchy-like, so its singular values decay exponentially away from
    resonance (Beckermann and Townsend, SIMAX 2017). Rows are picked by the
    seeded residual: ACA's largest entry of the last column stalls at rank 2
    on an even C."""
    spectrum = _HalfSpectrum(None, None, *_symbol(n, coefficients, side))
    shape = (n if spectrum.s1.dtype == complex else n // 2 + 1, n // 2 + 1)
    i, j = _seeded(2017, shape, 8 * n)
    den = spectrum.s1[i] + spectrum.s2[j]
    zi, zj = spectrum.zero
    den[np.isin(i * shape[1] + j, zi * shape[1] + zj)] = np.inf
    factor = _cross(lambda k: spectrum.reciprocal(np.array([k]), ALL)[0],
                    lambda k: spectrum.reciprocal(ALL, np.array([k]))[:shape[0], 0],
                    shape, 1.0 / den, lambda u, v: u[i] * v[j], i, den.dtype)
    return factor and _read_only(*factor)


def _check_resonances(op: OperatorSpec, spectrum: _HalfSpectrum):
    """ResonantBoxError if a near-resonant mode (spectrum.zero) carries more
    than RESONANCE_SOURCE_TOL of max |fhat| (|fhat| and the symbol are even:
    the half grid sees every mode)."""
    i, j = spectrum.zero
    if len(i):
        n, step = len(spectrum.s1), max(1, BLOCK_PAIRS // len(spectrum.s2))
        fmax = max(float(np.abs(spectrum.numerator(np.arange(k, min(k + step, n)))).max())
                   for k in range(0, n, step))
        fhat = spectrum.numerator(i)[np.arange(len(i)), j]
        bad = np.flatnonzero(np.abs(fhat) > RESONANCE_SOURCE_TOL * fmax)
        if len(bad):
            m = np.fft.fftfreq(n) * n
            first = bad[np.lexsort((j[bad], i[bad]))[0]]
            raise ResonantBoxError(
                f"Fourier mode {(int(m[i[first]]), int(m[j[first]]))} of the embedding box "
                f"is resonant for {op} and carries source energy; "
                "change box_margin or the grid size to detune the box")


def _evaluate(sf: SpectralField, x, gradient: bool) -> np.ndarray:
    """u_p (shape (...)) or grad u_p (shape (..., 2)) at points x (2,) or (..., 2):
    per block of points, real GEMMs of the phase factors with the folded matrix
    or its factor (see SpectralField)."""
    pts, blocks, shape = point_blocks(x, (sf.n // 2 + 1) * (1 + gradient))
    out = [sf._series(sf._phases(pts[blk]), gradient) for blk in blocks]
    out = out[0] if len(out) == 1 else np.concatenate(out or [np.empty((0, 2) if gradient else 0)])
    if sf.compensator is not None:
        out += (sf.compensator.gradient if gradient else sf.compensator.value)(*pts.T)
    return out.reshape(shape + out.shape[1:])


def eval_particular(sf: SpectralField, x):
    """u_p at points x, (2,) or (..., 2); the result has shape (...)."""
    return _evaluate(sf, x, gradient=False)[()]


def eval_particular_gradient(sf: SpectralField, x) -> np.ndarray:
    """grad u_p at points x, (2,) or (..., 2); the result has x's shape."""
    return _evaluate(sf, x, gradient=True)
