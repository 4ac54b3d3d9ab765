"""Operator norms of multilinear forms over products of lp unit balls.

Two functions choose how a norm is taken.  ``exact_norm`` is the one place
that decides a form's norm is computed exactly.  Today that is two cases: a
linear form, whose norm is the conjugate norm of its coefficients, attained
at the ``dual_argmax`` maximizer; and the bilinear l_2 x l_2 case, a
largest singular value: sigma is the square root of the top Gram eigenvalue
(one product on the short side and one LAPACK eigenvalue call), and that
value is all the case reports.  ``norms`` is the batch entry: it takes
``exact_norm`` where that applies and runs block-coordinate ascent on every
other form, all of arity 2 or more: one slot at a time is replaced by the
exact maximizer of its linearized problem on the slot's ball, which never
decreases the modulus of the value, so every ascent value is an attained
lower bound carrying a feasible witness.  Restarts are seeded through child
streams, making runs reproducible.

All restarts of one ascent move together: slot k holds an (R, n_k) block
whose row r is restart r, and matmuls against the coefficient tensor
serve every row.  A sweep reads the tensor twice, whatever the arity, and
both reads walk it along its rows: once for the slot-0 gradient,
contracted from slot 1 forward, and once for the prefix P = x_0 . T, from
which every later slot's gradient is contracted while the new x_k are
folded in (see ``_sweep_wave``).  A row that has converged is frozen and leaves
the block, so each restart follows the ascent it would follow on its own
up to rounding: BLAS rounds a row of a matrix product according to where
it falls in the row block, so a value may move in the last bit.  The price
is two intermediates, of R * |T| / n_1 and R * |T| / n_0 elements, never
alive together, so one scratch buffer per ascent holds both: about 1.8 MB
at m = 4, n = 24 with R = 16, and about 7 MB for the four-fold retry.
Rows are chunked so that neither exceeds the larger of |T| and 2^20
elements (see ``_Group.cut``).

``norms`` runs the ascents of several forms that share dims, dtype and
domain as one block: form f's R restarts are rows f R .. f R + R - 1,
and its active rows stay contiguous as rows freeze.  Only the two tensor
reads run per form, each one matrix product of the form's own rows,
exactly the product an ascent of that form alone makes.  Every other step
runs once per sweep over the whole block: the slot contractions and folds,
row-batched products that make the same BLAS call for a row whatever rows
lie beside it, and the row-wise steps, ``dual_argmax``, the entering moduli
and the freeze, finiteness and monotonicity checks.  So each extra form
costs a sweep two matrix products, and each estimate has the bits
``ascent_norm`` gives it; ``ascent_norm`` is the one-form case of the same
sweeps.  The scratch buffer then holds every form's intermediate side by
side.

Each block step is ``dual_argmax``, whose cost on the small blocks of most
sweeps is a fixed number of NumPy calls, so an ascent trims it: each slot's
order is resolved once into a ``_Ball`` holding its float exponents, a
finite order takes one ``np.power`` per block, the zero-row guards run
only when a block has an all-zero row, a real block's maximizer takes its
signs from the gradient by one ``np.copysign``, and a sweep asks only its
last slot for the conjugate norm (``value=False`` elsewhere), since that is
the only value it reports.

The starts of a group are built as one block too (see ``_unit_starts``):
each restart's stream fills one row with all its slots' Gaussian values in
a single draw, and each slot block is normalized once for the whole group,
so building them costs one child stream and one draw per restart plus a
few NumPy calls per slot, and every start keeps the bits of its own stream.

Weak norms of finite vector sequences are operator norms of the induced
pairing, so ``weak_norm`` lives here too: it takes a list of sequences,
every pairing is a form, and one ``norms`` call at fixed ascent settings
gives all of a call's values, so ``exact_norm`` settles the l_2 x l_2
pairings and the others are ascents, each value with the bits of a
one-sequence call.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exponents import ExponentVector, ExtLike, as_ext, conjugate
from .rng import child_rng
from .tensor import CHUNK_ELEMENTS, MultilinearForm

__all__ = [
    "AscentInvariantError",
    "NormEstimate",
    "dual_argmax",
    "spectral_norm",
    "ascent_norm",
    "exact_norm",
    "norms",
    "weak_norm",
]


# The default ascent settings and seed: of ``ascent_norm`` and ``norms``, of
# an ``ExperimentConfig`` and of the ``norm`` command.
ASCENT_DEFAULTS = namedtuple("AscentDefaults", "restarts tol max_iters seed")(
    restarts=16, tol=1e-10, max_iters=500, seed=42)


class AscentInvariantError(ValueError):
    """Block ascent broke an invariant that holds for every finite form: a
    sweep lowered a value, a value left the finite range, or the best value
    exceeded the l_1 coefficient bound.  No norm is reported."""


@dataclass
class NormEstimate:
    """A norm value plus how it was obtained.

    ``method`` names how the value was obtained: "exact-dual" from
    ``exact_norm`` on a linear form (``dual_argmax``), "exact-singular" from
    ``exact_norm`` on an l_2 x l_2 bilinear form (``spectral_norm``),
    "ascent" from the block ascent, and "analytic" for a witness's
    closed-form norm, which the harness prefers.  Exact-dual and ascent
    estimates carry a maximizer, feasible on the domain balls, at which
    ``evaluate`` reproduces ``value``; ascent values are attained lower
    bounds.  An exact-singular estimate is sigma alone, with no maximizer.
    ``iterations`` counts sweeps summed over restarts; ``converged`` refers
    to the restart that produced the reported value.
    """

    value: float
    method: str
    restarts_used: int = 0
    iterations: int = 0
    converged: bool = True
    maximizer: list | None = None

    @property
    def lower_bound(self) -> bool:
        """True when ``value`` is an ascent lower bound, not an exact norm."""
        return self.method == "ascent"


class _Ball:
    """A slot's unit l_p ball with its order resolved once.

    ``kind`` is "1", "finite" (1 < p < inf) or "inf".  A finite ball also
    holds the float exponents of the stationarity profile: ``profile`` =
    1/(p-1), ``inv_e`` = 1/p and ``inv_estar`` = 1/p*.  ``_ascend`` builds
    one per slot, so the sweeps' block steps skip parsing and comparing
    exact orders."""

    __slots__ = ("kind", "profile", "inv_e", "inv_estar")

    def __init__(self, p: ExtLike):
        p = as_ext(p)
        if p.is_inf:
            self.kind = "inf"
            return
        if p.fraction < 1:
            raise ValueError(f"unit balls require p >= 1, got {p}")
        if p.fraction == 1:
            self.kind = "1"
            return
        self.kind = "finite"
        e = float(p.fraction)
        self.profile = 1.0 / (e - 1.0)
        self.inv_e = 1.0 / e
        self.inv_estar = 1.0 / (e / (e - 1.0))


def dual_argmax(c, p: ExtLike | _Ball, *, value: bool = True):
    """Maximize Re <c, x> over the unit l_p ball; returns (value, x).

    ``c`` is one vector, giving a float value and a vector, or an (R, n)
    block maximized row by row, giving an (R,) array of values and an (R, n)
    block of maximizers.  ``p`` is an order (``ExtLike``); the ascent passes
    the module's internal ``_Ball`` resolved from it instead.  The value is
    the conjugate norm ||c||_{p*}; with ``value=False`` it is not computed
    and None is returned in its place, the maximizers being the same.  For
    finite p > 1 the maximizer follows the stationarity profile
    |c_j|^(1/(p-1)) (normalized), the one ``np.power`` of the step: with
    the moduli scaled by their row maximum, profile * modulus is the p-th
    power of the profile, which gives its norm, and the p*-th power of the
    modulus, which gives the value; at p = 1 all weight goes to the first
    modulus-maximal coordinate; at p = inf it is the conjugate phase vector.
    Complex phases are conjugated so the attained pairing is real.  A real
    phase is -1 where c < 0 and +1 elsewhere, except for finite p > 1, where
    the profile takes c's signs by ``np.copysign``: the same maximizer, save
    that a zero entry where c is -0.0 is -0.0.  An all-zero row gets the
    first unit vector and value 0; the guards for it run only when such a
    row is present.
    """
    ball = p if isinstance(p, _Ball) else _Ball(p)
    c = np.asarray(c)
    if c.ndim not in (1, 2) or c.size == 0:
        raise ValueError("expected a nonempty vector or (R, n) block")
    C = c.reshape(-1, c.shape[-1])
    mags = np.abs(C).astype(np.float64, copy=False)
    scale = mags.max(axis=1)
    zero = None if scale.all() else scale == 0
    if C.dtype.kind == "c":
        div = np.where(mags > 0, mags, 1.0)
        tiny = div < 1e-300
        if tiny.any():   # complex division forms 1/|c|: rescale subnormal c exactly
            C = np.where(tiny, C * 2.0 ** 600, C)
            div[tiny] = np.abs(C[tiny])
        phase = np.conj(C) / div
        phase[mags == 0] = 1
    elif ball.kind != "finite":
        phase = np.where(C < 0, -1.0, 1.0)
    values = None
    if ball.kind == "1":
        rows = np.arange(len(C))
        j = np.argmax(mags, axis=1)
        values = mags[rows, j]
        X = np.zeros_like(phase)
        X[rows, j] = phase[rows, j]
    elif ball.kind == "inf":
        values = mags.sum(axis=1)
        X = phase
    else:
        ratio = mags / (scale if zero is None else np.where(zero, 1.0, scale))[:, np.newaxis]
        profile = np.power(ratio, ball.profile)
        # profile * ratio is both profile ** p and ratio ** p*; the profile
        # peaks at exactly 1, so sums ** (1/p) is lp_norm(profile, p)
        sums = (profile * ratio).sum(axis=1)
        norms = sums ** ball.inv_e
        if zero is not None:
            norms = np.where(zero, 1.0, norms)
        X = profile / norms[:, np.newaxis]
        if C.dtype.kind == "c":
            X = phase * X
        else:
            np.copysign(X, C, out=X)
        if value:
            values = scale * sums ** ball.inv_estar
    if zero is not None:
        X[zero] = 0
        X[zero, 0] = 1
        if values is not None:
            values[zero] = 0.0
    if not value:
        values = None
    if c.ndim == 1:
        return (None if values is None else float(values[0])), X[0]
    return values, X


def spectral_norm(matrix) -> NormEstimate:
    """Largest singular value sigma of a matrix, as an exact-singular estimate.

    This equals the operator norm of the induced bilinear form on l_2 x l_2.
    sigma is the square root of the top eigenvalue of the Gram matrix on the
    short side (see ``_largest_singular_value``), the only LAPACK call a
    call makes.  Squaring costs the top eigenvalue no relative accuracy: the
    rounding errors of forming G and of the eigensolver perturb it by a
    small multiple of eps * ||G||_2, and ||G||_2 is that eigenvalue itself;
    only the small singular values get lost.  Non-finite entries raise
    ValueError before LAPACK sees them, and so does a sigma that overflows.
    """
    A = np.asarray(matrix)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.isfinite(A).all():
        raise ValueError("spectral norm needs finite entries")
    sigma = _largest_singular_value(A)
    if not math.isfinite(sigma):
        raise ValueError(f"largest singular value is {sigma}; the entries are too large")
    return NormEstimate(sigma, "exact-singular")


# Largest moduli for which the Gram matrix is formed from the matrix as it
# is: its top eigenvalue then lies between 2^-400 and 2^400 times the number
# of entries, where no product that matters over- or underflows and LAPACK
# does not rescale.
_GRAM_UNSCALED = (2.0 ** -200, 2.0 ** 200)


def _largest_singular_value(A) -> float:
    """sigma_max of a finite matrix, as sqrt(lambda_max(B B^H)) * 2^s.

    B is A in the wide orientation (A^T for a tall A) times 2^-s, where 2^s
    is the power of two at the largest modulus, taken over the real and
    imaginary parts; it is applied only when that modulus lies outside
    ``_GRAM_UNSCALED``.  Power-of-two scaling is exact, so huge and tiny
    matrices lose nothing to it.  A real B is multiplied by its own
    transpose, which NumPy hands to BLAS as a symmetric rank-k update.  A
    1 x 1 Gram matrix is its own eigenvalue, and the zero matrix gives 0;
    neither calls LAPACK.  The product is formed in float64 or complex128
    whatever A's dtype.  A sigma past the float range is returned as inf.
    """
    if A.dtype.char not in "dD":
        A = A.astype(np.result_type(A.dtype, np.float64))
    if A.dtype.kind == "c":
        top = max(float(np.abs(A.real).max()), float(np.abs(A.imag).max()))
    else:
        top = float(np.abs(A).max())
    if top == 0.0:
        return 0.0
    s = 0
    if not _GRAM_UNSCALED[0] <= top < _GRAM_UNSCALED[1]:
        s = max(math.frexp(top)[1] - 1, -1023)   # 2^s <= top < 2^(s+1), or top is subnormal
        A = A * 2.0 ** -s
    if A.shape[0] > A.shape[1]:
        A = A.T
    G = A @ A.conj().T
    top_eig = G[0, 0].real if len(G) == 1 else np.linalg.eigvalsh(G)[-1]
    return math.sqrt(max(float(top_eig), 0.0)) * 2.0 ** s


# Row-chunk cap, in elements, for the two tensor-sized intermediates of a sweep.
_GRADIENT_CHUNK = 1 << 20


def _chunk_rows(dims, size: int) -> int:
    """Rows of one sweep chunk: the most rows for which neither tensor-sized
    intermediate, of R * |T| / n_1 or R * |T| / n_0 elements (at arity 2
    only the latter is formed), exceeds max(|T|, _GRADIENT_CHUNK); at least
    one."""
    return max(1, max(size, _GRADIENT_CHUNK) * min(dims[:2]) // size)


def _tensor_reads(coeffs):
    """The operands of a sweep's two reads of ``coeffs``: the slot-1 read,
    the (n_0, n_1, |T| / (n_0 n_1)) view from arity 3 on and T^T at arity 2
    (whose product is the slot-0 gradient itself); and the prefix read, the
    (n_0, |T| / n_0) view."""
    dims = coeffs.shape
    if len(dims) == 2:
        return coeffs.T, coeffs
    return coeffs.reshape(dims[0], dims[1], -1), coeffs.reshape(dims[0], -1)


class _Group:
    """The forms that one ascent sweeps together, which share dims, dtype and
    domain, of arity 2 or more.  ``reads`` holds the operands of each form's
    two tensor reads (see ``_tensor_reads``) in block order, ``dims`` their
    dims and ``balls`` the ``_Ball`` of each slot.  ``scratch`` is a 1-d
    buffer of their dtype that the sweeps write their tensor-sized
    intermediates into, sized for a wave of the rows first given,
    ``counts[f]`` of them form f's.  ``waves`` is the cut of the rows the
    next sweep takes (see ``cut``)."""

    __slots__ = ("reads", "dims", "balls", "scratch", "waves", "_rows")

    def __init__(self, tensors, orders, counts):
        tensors = list(tensors)
        first = tensors[0]
        self.reads = [_tensor_reads(c) for c in tensors]
        self.dims = first.shape
        self.balls = [_Ball(p) for p in orders]
        self._rows = _chunk_rows(first.shape, first.size)
        self.scratch = np.empty(min(sum(counts), self._rows) * first.size
                                // min(first.shape[:2]), dtype=first.dtype)
        self.cut(counts)

    def cut(self, counts):
        """Cut the rows of the next sweeps, ``counts[f]`` of them form f's, in
        order, into ``waves`` of (start, stop, segments, Y, P).

        Rows are independent, so a form's rows are cut into segments of
        ``_chunk_rows`` rows, which keep both intermediates of a segment
        within max(|T|, _GRADIENT_CHUNK) elements, and consecutive segments
        of at most that many rows in all make a wave.  A group with no more
        rows than that is one wave; only a form whose own rows exceed it
        takes several.  A wave's two tensor-sized intermediates are blocks
        at the start of the scratch buffer, never alive together: Y, the
        (n_0, rows, |T| / (n_0 n_1)) slot-1 intermediate (at arity 2 the
        (1, rows, n_0) slot-0 gradient), and P, the (rows, |T| / n_0)
        prefix.  A segment is (start, stop,
        slot-1 read, prefix read, Y[:, start:stop], P[start:stop]): its rows
        within the wave, its form's operands (see ``_tensor_reads``) and the
        views its two reads write into, so the segments' intermediates lie
        side by side in the wave's blocks."""
        rows = self._rows
        self.waves, spans, lo, start = [], [], 0, 0
        for reads, count in zip(self.reads, counts):
            stop = start + count
            for s in range(start, stop, rows):
                e = min(s + rows, stop)
                if spans and e - lo > rows:
                    self.waves.append(self._wave(lo, s, spans))
                    spans, lo = [], s
                spans.append((s - lo, e - lo, reads))
            start = stop
        self.waves.append(self._wave(lo, start, spans))

    def _wave(self, lo, hi, spans):
        """The wave of rows lo..hi-1 whose segments span ``spans``, a list of
        (start, stop, reads) within the wave; see ``cut``."""
        dims, rows = self.dims, hi - lo
        size = math.prod(dims)
        Y = self.scratch[:rows * size // dims[1]].reshape(dims[0] if len(dims) > 2 else 1, rows, -1)
        P = self.scratch[:rows * size // dims[0]].reshape(rows, -1)
        return lo, hi, [(s, e, first, prefix, Y[:, s:e], P[s:e])
                        for s, e, (first, prefix) in spans], Y, P


def _sweep(group, X):
    """One Gauss-Seidel sweep over every row of the blocks ``X``, cut as
    ``group.waves`` (see ``_Group.cut``): slot k is replaced by
    ``dual_argmax`` of its gradient at the new slots 0..k-1 and the old
    slots k+1..m-1, on the slot's ball.  Returns (before, after, X): the
    moduli of the value at the entering rows and after the sweep, one per
    row, and the new blocks.  Each wave is one ``_sweep_wave``."""
    if len(group.waves) == 1:
        return _sweep_wave(group, X, group.waves[0])
    parts = [_sweep_wave(group, [x[wave[0]:wave[1]] for x in X], wave)
             for wave in group.waves]
    before, after, blocks = zip(*parts)
    return np.concatenate(before), np.concatenate(after), \
        [np.concatenate(b) for b in zip(*blocks)]


def _sweep_wave(group, X, wave):
    """``_sweep`` on one wave of ``group``: ``X`` holds the wave's rows, which
    its segments cover in order (see ``_Group.cut``).

    Only the two tensor reads run per segment, each one matrix product of
    the segment's rows against its form's operand (see ``_tensor_reads``)
    into the segment's view of the wave's block, so it sees exactly the rows
    an ascent of that form alone gives it.  Every other step runs once per
    wave and is row by row or row-batched, one BLAS call per row whatever
    rows lie beside it, so every row gets the bits it would get alone.  The
    slot-1 reads fill Y, from which row-batched products contract slots
    2..m-1 into the (rows, n_0) slot-0 gradient (at arity 2, Y[0] is that
    gradient).  The prefix reads then fill P with x_0 . T.  Slot k >= 1
    takes its gradient from P by contracting the old trailing slots
    m-1..k+1, and its new x_k is then folded into P, so the last slot's
    gradient is P itself.  Only the last slot's ``dual_argmax`` computes its
    conjugate norm, which is ``after``.  Both tensor-sized intermediates
    live in the scratch buffer, so a sweep allocates nothing tensor-sized.
    """
    _, _, segments, Y, P = wave
    dims, balls = group.dims, group.balls
    m, rows = len(dims), len(X[0])
    X = list(X)
    for s, e, first, _, Ys, _ in segments:
        np.matmul(X[1][s:e], first, out=Ys)
    G = Y
    for i in range(2, m - 1):
        G = np.matmul(X[i][:, np.newaxis, :], G.reshape(dims[0], rows, dims[i], -1))[:, :, 0, :]
    G = G[0] if m == 2 else np.matmul(G.transpose(1, 0, 2), X[-1][:, :, np.newaxis])[:, :, 0]
    before = np.abs((G * X[0]).sum(axis=1))
    _, X[0] = dual_argmax(G, balls[0], value=False)
    for s, e, _, prefix, _, Ps in segments:
        np.matmul(X[0][s:e], prefix, out=Ps)
    for k in range(1, m):
        G = P
        for i in range(m - 1, k, -1):
            G = np.matmul(G.reshape(rows, -1, dims[i]), X[i][:, :, np.newaxis])[:, :, 0]
        value, X[k] = dual_argmax(G, balls[k], value=k == m - 1)
        if k < m - 1:
            P = np.matmul(X[k][:, np.newaxis, :], P.reshape(rows, dims[k], -1))[:, 0, :]
    return before, value, X


def _normalize_rows(A, order: ExtLike):
    """Scale each row of the block ``A`` onto the unit l_p sphere, in place,
    and return ``A``.  Every row must be nonzero.  A row's norm is rounded
    exactly as ``lp_norm`` rounds it: row max, the power sum of the scaled
    moduli, then its root taken one row at a time, since a vectorized root
    may round differently."""
    p = as_ext(order)
    a = np.abs(A).astype(np.float64, copy=False)
    scale = a.max(axis=1)
    if p.is_inf:
        norms = scale
    else:
        e = float(p.fraction)
        sums = np.power(a / scale[:, np.newaxis], e).sum(axis=1)
        norms = np.array([s * float(t ** (1.0 / e)) for s, t in zip(scale, sums)])
    A /= norms[:, np.newaxis]
    return A


def _unit_starts(T: MultilinearForm, restarts: int, seeds: Sequence[int]) -> list:
    """The seeded ascent starts of a group of forms with T's dims, dtype and
    domain, one per seed: one (K restarts, n_k) block per slot, rows
    f restarts .. f restarts + restarts - 1 being the starts of seeds[f].

    Start r of seed s is, slot after slot, a Gaussian vector (plus i times
    one for a complex form) drawn from the child stream (s, r) and redrawn
    while all zero, then scaled onto the slot's unit sphere.  The group's
    starts are built as one block: each start takes one ``standard_normal``
    draw of all its slots' values in that order (real then imaginary parts
    per slot), which the stream gives exactly as it gives the slot-by-slot
    draws, into one row of a (K restarts, width) array.  That array is split
    per slot, and each slot block is normalized by one ``_normalize_rows``
    call, which rounds row by row.  A start where some slot drew all zeros
    is drawn again slot by slot with the redraw, so every start has the bits
    of its own stream.
    """
    cplx = T.is_complex
    parts = 2 if cplx else 1
    edges = np.cumsum((0,) + T.dims) * parts
    D = np.empty((len(seeds) * restarts, edges[-1]))
    for f, seed in enumerate(seeds):
        for r in range(restarts):
            child_rng(seed, r).standard_normal(out=D[f * restarts + r])
    X = [D[:, a:a + n] + 1j * D[:, a + n:b] if cplx else D[:, a:b].copy()
         for a, b, n in zip(edges[:-1], edges[1:], T.dims)]
    drawn = np.all([x.any(axis=1) for x in X], axis=0)
    for row in np.flatnonzero(~drawn):
        rng = child_rng(seeds[row // restarts], row % restarts)
        for x in X:
            while True:
                g = rng.standard_normal(x.shape[1])
                if cplx:
                    g = g + 1j * rng.standard_normal(x.shape[1])
                if g.any():
                    break
            x[row] = g
    return [_normalize_rows(x, p) for x, p in zip(X, T.domain_p)]


def _ascend(forms, X, tol, max_iters):
    """Sweep block maximizations over the restarts of a group of forms until
    each stalls.

    ``forms`` share dims, dtype and domain and have R restarts each; ``X``
    holds one (K R, n_k) start block per slot, rows f R .. f R + R - 1 being
    form f's restarts.  The blocks are overwritten with the final rows.
    Each sweep is one ``_sweep``: two reads of each form's tensor into
    intermediates of R * |T| / n_1 and R * |T| / n_0 elements, in row chunks
    that keep each within max(|T|, _GRADIENT_CHUNK) elements.  They are all
    written into one scratch buffer, allocated once with the slot balls as a
    ``_Group`` and sized at the first sweep's rows, so no sweep allocates or
    frees a tensor-sized block.  A row freezes after the first sweep that
    raised its value above the modulus at its entering rows by at most
    ``tol`` relative; only the remaining active rows are swept further, and
    each form's active rows stay contiguous, so every row follows the
    ascent it would follow alone, up to the last-bit rounding of its place
    in its form's row block.

    Returns (values, X, sweeps, converged): the (K R,) final values, the
    blocks, the (K R,) sweep counts and the (K R,) convergence flags.  Each
    block step sets a row's value to a conjugate norm of its slot gradient,
    which dominates the previous modulus, so a row's value never decreases;
    a sweep that ends below its entering modulus beyond a tiny rounding
    allowance raises AscentInvariantError.  So does a non-finite value,
    which a form with finite coefficients reaches only when float64
    arithmetic overflows; NumPy's overflow and invalid-value warnings are
    silenced for the ascent, since that error reports the overflow.  These
    checks, like the freezing, run once per sweep over the whole block.
    """
    total = len(X[0])
    R = total // len(forms)
    group = _Group((T.coeffs for T in forms), forms[0].domain_p, [R] * len(forms))
    active = np.arange(total)
    work = list(X)
    values = np.zeros(total)
    sweeps = np.zeros(total, dtype=np.int64)
    converged = np.zeros(total, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iters):
            prev, value, work = _sweep(group, work)
            values[active] = value
            sweeps[active] += 1
            if not np.isfinite(value).all():
                raise AscentInvariantError(
                    "block ascent overflowed float64 arithmetic and reached a non-finite "
                    "value; rescale the form's coefficients")
            if not (value >= prev - 1e-9 * (1.0 + prev)).all():
                raise AscentInvariantError("block step decreased the value")
            done = value - prev <= tol * np.maximum(value, 1e-300)
            if done.any():
                converged[active[done]] = True
                for x, w in zip(X, work):
                    x[active[done]] = w[done]
                keep = ~done
                active = active[keep]
                work = [w[keep] for w in work]
                if not active.size:
                    break
                group.cut(np.bincount(active // R, minlength=len(forms)).tolist())
    for x, w in zip(X, work):
        x[active] = w
    return values, X, sweeps, converged


def ascent_norm(T: MultilinearForm, restarts: int = ASCENT_DEFAULTS.restarts,
                tol: float = ASCENT_DEFAULTS.tol, max_iters: int = ASCENT_DEFAULTS.max_iters,
                seed: int = ASCENT_DEFAULTS.seed) -> NormEstimate:
    """Best block-ascent value across seeded restarts: a certified lower bound.

    Restart r draws its start from the child stream (seed, r) on the slot
    spheres, so a fixed seed reproduces the run exactly.  The restarts are
    swept together as one (R, n_k) block per slot (see ``_ascend``); the
    first restart reaching the best value wins.  The reported value never
    exceeds the l_1 coefficient bound (AscentInvariantError otherwise), and
    the returned maximizer is feasible and attains it.  This is the
    one-form case of the ascent ``norms`` runs, through the same sweeps.
    The ascent serves forms of arity 2 or more: a linear form's norm is
    exact, and ``exact_norm`` or ``norms`` gives it, so one is refused with
    ValueError.  A zero form takes one sweep per restart, to value 0 at the
    first unit vectors.
    """
    if T.arity == 1:
        raise ValueError("a linear form's norm is exact: take it from exact_norm or norms, "
                         "not from the ascent")
    check_ascent_settings(restarts, tol, max_iters)
    return _ascent_estimates([T], [seed], restarts, tol, max_iters)[0]


def exact_norm(T: MultilinearForm) -> NormEstimate | None:
    """T's norm when it is computed exactly, else None; no seed is read.

    This is the one place that decides it, for ``norms`` and the harness.
    Today there are two exact cases.  A linear form's norm is the conjugate
    norm of its coefficients, which ``dual_argmax`` returns with the
    maximizer that attains it ("exact-dual").  A bilinear form on
    l_2 x l_2 has the largest singular value of its coefficient matrix
    (``spectral_norm``).  Either raises ValueError on a norm past the float
    range."""
    if T.arity == 1:
        with np.errstate(over="ignore"):   # an overflow is refused below
            value, x = dual_argmax(T.coeffs, T.domain_p[0])
        if not math.isfinite(value):
            raise ValueError(f"the dual norm is {value}; the coefficients are too large")
        return NormEstimate(value, "exact-dual", maximizer=[x])
    if T.arity == 2 and all(e == 2 for e in T.domain_p):
        return spectral_norm(T.coeffs)
    return None


def norms(forms, seeds, restarts: int = ASCENT_DEFAULTS.restarts,
          tol: float = ASCENT_DEFAULTS.tol,
          max_iters: int = ASCENT_DEFAULTS.max_iters) -> list[NormEstimate]:
    """The norm estimate of each form, in order, seeds[i] seeding forms[i].

    The seed count and the ascent settings are checked up front, whatever
    the forms.  A form gets ``exact_norm`` where that applies and the ascent
    at its seed otherwise.  Ascent forms that share dims, dtype and domain
    are swept as one block (see ``_sweep_wave``), in which every step gives
    a row the bits it would get alone, so each ascent estimate (value, sweep
    count, convergence flag and maximizer) has exactly the bits
    ``ascent_norm`` gives that form and seed, zero forms included.  The l_1
    bound is checked per form.  A lone ascent form is handed to
    ``ascent_norm`` by name, so whatever wraps that function sees every
    one-form ascent.
    """
    forms, seeds = list(forms), list(seeds)
    if len(seeds) != len(forms):
        raise ValueError(f"{len(forms)} forms but {len(seeds)} seeds")
    check_ascent_settings(restarts, tol, max_iters)
    out = [exact_norm(T) for T in forms]
    rest = [i for i, est in enumerate(out) if est is None]
    if len(rest) == 1:
        out[rest[0]] = ascent_norm(forms[rest[0]], restarts, tol, max_iters, seeds[rest[0]])
    elif rest:
        ests = _ascent_estimates([forms[i] for i in rest], [seeds[i] for i in rest],
                                 restarts, tol, max_iters)
        for i, est in zip(rest, ests):
            out[i] = est
    return out


def check_ascent_settings(restarts, tol, max_iters) -> None:
    """Raise ValueError unless restarts >= 1, 0 < tol < inf and
    max_iters >= 1.  ``ascent_norm`` and ``norms`` check them up front, and
    so do the runs that echo them, so that a run whose norms are all exact
    refuses them too."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")


def _ascent_estimates(forms, seeds, restarts, tol, max_iters) -> list:
    """The engine of ``ascent_norm`` and ``norms``, on checked settings:
    group the forms by dims, dtype and domain, ascend each group as one
    block and take each form's best restart."""
    out = [None] * len(forms)
    groups = {}   # (dims, dtype, domain) -> indices of the forms that share them
    for i, T in enumerate(forms):
        groups.setdefault((T.dims, T.coeffs.dtype, T.domain_p), []).append(i)
    for members in groups.values():
        X = _unit_starts(forms[members[0]], restarts, [seeds[i] for i in members])
        values, X, sweeps, converged = _ascend([forms[i] for i in members], X, tol, max_iters)
        for j, i in enumerate(members):
            rows = slice(j * restarts, (j + 1) * restarts)
            best = rows.start + int(np.argmax(values[rows]))
            value = float(values[best])
            bound = _upper_bound_l1(forms[i])
            if not value <= bound * (1.0 + 1e-12) + 1e-12:
                raise AscentInvariantError(
                    f"ascent value {value!r} exceeds the l1 coefficient bound {bound!r}")
            out[i] = NormEstimate(value, "ascent", restarts_used=restarts,
                                  iterations=int(sweeps[rows].sum()),
                                  converged=bool(converged[best]),
                                  maximizer=[x[best].copy() for x in X])
    return out


# The fixed ascent settings of weak_norm.
_WEAK_RESTARTS, _WEAK_TOL, _WEAK_MAX_ITERS = 8, 1e-12, 200


def weak_norm(sequences, p: ExtLike, space_q: ExtLike, *, seed: Sequence[int]) -> list[float]:
    """Weak-l_p norms of finite sequences of vectors living in l_{space_q}^n,
    one per sequence, in order, seed[i] seeding sequences[i].

    A sequence's weak norm equals the operator norm of the map
    c -> sum_k c_k x_k from the unit l_{p*} ball into l_{space_q}, i.e. of
    the pairing on l_{p*} x l_{q*}: the estimate ``norms`` gives the pairing
    form at its seed, with the fixed ascent settings above.  So
    ``exact_norm`` decides which values are exact; for p = q = 2 it is the
    largest singular value, and no seed is used.  Otherwise it is the
    attained lower bound of the seeded ascent.  Each sequence is a 2-d
    array whose rows are its vectors; anything else is a ValueError.  The
    pairing domain is resolved once and every pairing form goes through one
    ``norms`` call, which groups the ascents by dims, so each value has the
    bits of a one-sequence call.
    """
    seqs, seeds = list(sequences), list(seed)
    if len(seeds) != len(seqs):
        raise ValueError(f"{len(seqs)} sequences but {len(seeds)} seeds")
    mats = [np.asarray(v) for v in seqs]
    for X in mats:
        if X.ndim != 2:
            raise ValueError("pass each sequence as the rows of a 2-d array")
        if 0 in X.shape:
            raise ValueError(f"a sequence needs at least one nonempty vector, got shape {X.shape}")
    p = as_ext(p)
    if p < 1:
        raise ValueError(f"weak norms need p >= 1, got {p}")
    q = as_ext(space_q)
    if q < 1:
        raise ValueError(f"the container space needs q >= 1, got {q}")
    domain = ExponentVector((conjugate(p), conjugate(q)))
    ests = norms([MultilinearForm(X, domain_p=domain) for X in mats], seeds,
                 restarts=_WEAK_RESTARTS, tol=_WEAK_TOL, max_iters=_WEAK_MAX_ITERS)
    return [est.value for est in ests]


def _upper_bound_l1(T: MultilinearForm) -> float:
    """Sum of coefficient moduli; dominates the norm on any p >= 1 balls.

    The moduli are summed in chunks of ``CHUNK_ELEMENTS`` elements, so no
    copy the size of the tensor is made."""
    flat = T.coeffs.reshape(-1)
    return float(sum(np.abs(flat[s:s + CHUNK_ELEMENTS]).sum()
                     for s in range(0, flat.size, CHUNK_ELEMENTS)))
