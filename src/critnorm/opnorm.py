"""Operator norms of multilinear forms over products of lp unit balls.

The bilinear l_2 x l_2 case is a largest singular value and is solved
exactly: LAPACK's values-only SVD gives sigma, and one shifted
inverse-iteration solve on the Gram matrix gives the attaining pair, so the
singular vectors are never formed.  A full SVD runs only below 16 on the
short side, where it is cheaper, on the zero matrix, and when the solve
misses sigma.  Everything else runs block-coordinate ascent: one slot at
a time is replaced by the exact maximizer of its linearized problem on the
slot's ball, which never decreases the modulus of the value, so every
reported number is an attained lower bound carrying a feasible witness.
Restarts are seeded through child streams, making runs reproducible.

All restarts of one ascent move together: slot k holds an (R, n_k) block
whose row r is restart r, and one matmul against the coefficient tensor
reshaped to 2-d serves every row, so the tensor is read once per slot per
sweep.  A row that has converged is frozen and leaves the block, so each
restart takes exactly the sweeps it would take on its own.  The price is an
intermediate of R * |T| / n elements per slot gradient, where n is the end
slot contracted first (n_0 at k = m-1, n_{m-1} at k = 0, and the larger of
the two in between): about 1.8 MB at m = 4, n = 24 with R = 16, and about
7 MB for the four-fold retry.  Rows are chunked so that it never exceeds
the larger of |T| and 2^20 elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExtLike, as_ext
from .rng import child_rng
from .tensor import MultilinearForm, lp_norm

__all__ = [
    "AscentInvariantError",
    "NormEstimate",
    "dual_argmax",
    "spectral_norm",
    "ascent_norm",
    "upper_bound_l1",
    "operator_norm",
]


class AscentInvariantError(ValueError):
    """Block ascent broke an invariant that holds for every finite form: a
    sweep lowered a value, a value left the finite range, or the best value
    exceeded the l_1 coefficient bound.  No norm is reported."""


@dataclass
class NormEstimate:
    """A norm value plus how it was obtained.

    ``method`` is "exact-singular", "ascent" or "analytic".  Ascent values
    are attained lower bounds: the stored maximizer is feasible on the
    domain balls and reproduces ``value`` under ``evaluate``.  ``iterations``
    counts sweeps summed over restarts; ``converged`` refers to the restart
    that produced the reported value.
    """

    value: float
    method: str
    restarts_used: int = 0
    iterations: int = 0
    converged: bool = True
    maximizer: list | None = None

    @classmethod
    def analytic(cls, value: float) -> "NormEstimate":
        return cls(float(value), "analytic")


def dual_argmax(c, p: ExtLike):
    """Maximize Re <c, x> over the unit l_p ball; returns (value, x).

    ``c`` is one vector, giving a float value and a vector, or an (R, n)
    block maximized row by row, giving an (R,) array of values and an (R, n)
    block of maximizers.  The value is the conjugate norm ||c||_{p*}.  For
    finite p > 1 the maximizer follows the stationarity profile
    |c_j|^(1/(p-1)) (normalized); at p = 1 all weight goes to the first
    modulus-maximal coordinate; at p = inf it is the conjugate phase vector.
    Complex phases are conjugated so the attained pairing is real.  An
    all-zero row gets the first unit vector and value 0.
    """
    p = as_ext(p)
    if p < 1:
        raise ValueError(f"unit balls require p >= 1, got {p}")
    c = np.asarray(c)
    if c.ndim not in (1, 2) or c.size == 0:
        raise ValueError("expected a nonempty vector or (R, n) block")
    C = c.reshape(-1, c.shape[-1])
    mags = np.abs(C).astype(np.float64, copy=False)
    scale = mags.max(axis=1)
    zero = scale == 0
    if np.iscomplexobj(C):
        phase = np.conj(C) / np.where(mags > 0, mags, 1.0)
        phase[mags == 0] = 1
    else:
        phase = np.where(C < 0, -1.0, 1.0)
    if p == 1:
        rows = np.arange(len(C))
        j = np.argmax(mags, axis=1)
        values = mags[rows, j]
        X = np.zeros_like(phase)
        X[rows, j] = phase[rows, j]
    elif p.is_inf:
        values = mags.sum(axis=1)
        X = phase
    else:
        e = float(p.fraction)
        ratio = mags / np.where(zero, 1.0, scale)[:, np.newaxis]
        profile = np.power(ratio, 1.0 / (e - 1.0))
        # the profile peaks at exactly 1, so this is lp_norm(profile, p)
        norms = np.power(profile, e).sum(axis=1) ** (1.0 / e)
        X = phase * (profile / np.where(zero, 1.0, norms)[:, np.newaxis])
        estar = e / (e - 1.0)
        values = scale * np.power(ratio, estar).sum(axis=1) ** (1.0 / estar)
    if zero.any():
        X[zero] = 0
        X[zero, 0] = 1
        values[zero] = 0.0
    if c.ndim == 1:
        return float(values[0]), X[0]
    return values, X


# Smallest short side at which singular values plus a Gram solve beat one
# full (thin) SVD; below it the full SVD runs directly.
_WITNESS_MIN_DIM = 16
# Shift of the Gram solve: just past the top eigenvalue 1 of (A / sigma)^H (A / sigma).
_GRAM_SHIFT = 1.0 + 2.0 ** -40


def spectral_norm(matrix) -> NormEstimate:
    """Largest singular value, with an attaining pair for the bilinear form.

    This equals the operator norm of the induced bilinear form on l_2 x l_2;
    for complex coefficients the witness absorbs the conjugate phases so the
    plain (unconjugated) pairing attains the value.

    sigma comes from the values-only SVD.  The witness is one step of
    shifted inverse iteration: with B = A / sigma in the taller orientation
    (A^T / sigma for a wide A), solve (B^H B - (1 + 2^-40) I) v = 1, so v
    lies along the top right singular vector, and set u = B v / ||B v||.  A
    full SVD runs instead when the short side is below 16, where it is
    cheaper, when A is zero (giving e_0, e_0), and when ||B v|| < 1 - 1e-13,
    i.e. the all-ones start missed the top singular vector.  Non-finite
    entries raise ValueError before LAPACK sees them.
    """
    A = np.asarray(matrix)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.isfinite(A).all():
        raise ValueError("spectral norm needs finite entries")
    if min(A.shape) >= _WITNESS_MIN_DIM:
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        _check_finite_sigma(sigma)
        pair = _gram_witness(A, sigma) if sigma > 0 else None
        if pair is not None:
            return NormEstimate(sigma, "exact-singular", maximizer=pair)
    U, S, Vh = np.linalg.svd(A, full_matrices=False)
    sigma = float(S[0])
    _check_finite_sigma(sigma)
    return NormEstimate(sigma, "exact-singular", maximizer=[np.conj(U[:, 0]), np.conj(Vh[0])])


def _check_finite_sigma(sigma):
    if not np.isfinite(sigma):
        raise ValueError(f"largest singular value is {sigma}; the entries are too large")


def _gram_witness(A, sigma):
    """Unit pair [x, y] with x^T A y = sigma from one shifted Gram solve, or
    None when the solve does not reach sigma within 1e-13 relative."""
    wide = A.shape[0] < A.shape[1]
    B = (A.T if wide else A) / sigma
    G = B.conj().T @ B
    G.flat[::len(G) + 1] -= _GRAM_SHIFT
    try:
        v = np.linalg.solve(G, np.ones(len(G), dtype=G.dtype))
    except np.linalg.LinAlgError:
        return None
    v /= np.linalg.norm(v)
    u = B @ v
    norm = np.linalg.norm(u)
    if not norm >= 1.0 - 1e-13:
        return None
    u = np.conj(u / norm)
    return [v, u] if wide else [u, v]


# Row-chunk cap, in elements, for the first contraction of _slot_gradient.
_GRADIENT_CHUNK = 1 << 20


def _slot_gradient(coeffs, X, k):
    """Slot-k linearization at every row of the blocks ``X`` (one (R, n_i)
    block per slot): row r contracts ``coeffs`` with X[i][r] in every slot
    i != k.

    One matmul contracts an end slot for all rows at once, reading the
    tensor once: slot m-1 when k = 0, slot 0 when k = m-1, and otherwise
    the larger of the two.  Batched matrix-vector products then contract the
    remaining trailing slots down to k + 1 and leading slots up to k - 1.
    The first product is R * |T| / n_end elements; when that exceeds
    max(|T|, _GRADIENT_CHUNK) the rows go through in chunks that keep it
    within that cap.  An arity-1 gradient is ``coeffs`` itself in every row.
    """
    dims = coeffs.shape
    m = len(dims)
    R = len(X[0])
    if m == 1:
        return np.broadcast_to(coeffs, (R, dims[0]))
    end = m - 1 if k == 0 or (k < m - 1 and dims[m - 1] > dims[0]) else 0
    rows = max(1, max(coeffs.size, _GRADIENT_CHUNK) * dims[end] // coeffs.size)
    if R > rows:
        return np.concatenate([_slot_gradient(coeffs, [x[s:s + rows] for x in X], k)
                               for s in range(0, R, rows)])
    if end:
        G = X[m - 1] @ coeffs.reshape(-1, dims[m - 1]).T
        lo, hi = 0, m - 2
    else:
        G = X[0] @ coeffs.reshape(dims[0], -1)
        lo, hi = 1, m - 1
    for i in range(hi, k, -1):
        G = np.matmul(G.reshape(R, -1, dims[i]), X[i][:, :, np.newaxis])[:, :, 0]
    for i in range(lo, k):
        G = np.matmul(X[i][:, np.newaxis, :], G.reshape(R, dims[i], -1))[:, 0, :]
    return G


def _random_unit(rng, n, order, want_complex):
    while True:
        g = rng.standard_normal(n)
        if want_complex:
            g = g + 1j * rng.standard_normal(n)
        nrm = lp_norm(g, order)
        if nrm > 0:
            return g / nrm


def _ascend(T, X, tol, max_iters):
    """Sweep block maximizations over a block of restarts until each stalls.

    ``X`` holds one (R, n_k) start block per slot, row r being restart r;
    the blocks are overwritten with the final rows.  A row freezes after the
    first sweep that raised its value by at most ``tol`` relative; only the
    remaining active rows are swept further, so every row takes exactly the
    sweeps it would take alone.

    Returns (values, X, trace, sweeps, converged): the (R,) final values,
    the blocks, the (S, R) per-sweep trace (row s holds every value after
    sweep s; a frozen row repeats its final value), the (R,) sweep counts
    and the (R,) convergence flags.  Each block step sets a row's
    value to a conjugate norm of its slot gradient, which dominates the
    previous modulus, so the trace is nondecreasing; a decrease beyond a
    tiny rounding allowance, or a non-finite value, raises
    AscentInvariantError.
    """
    coeffs, orders = T.coeffs, T.domain_p
    active = np.arange(len(X[0]))
    work = list(X)
    prev = np.abs((_slot_gradient(coeffs, work, 0) * work[0]).sum(axis=1))
    values = prev.copy()
    sweeps = np.zeros(len(active), dtype=np.int64)
    converged = np.zeros(len(active), dtype=bool)
    trace = []
    for _ in range(max_iters):
        for k in range(T.arity):
            value, work[k] = dual_argmax(_slot_gradient(coeffs, work, k), orders[k])
        values[active] = value
        sweeps[active] += 1
        trace.append(values.copy())
        if not np.isfinite(value).all():
            raise AscentInvariantError(
                "block ascent reached a non-finite value; are all coefficients finite?")
        if not (value >= prev - 1e-9 * (1.0 + prev)).all():
            raise AscentInvariantError("block step decreased the value")
        done = value - prev <= tol * np.maximum(value, 1e-300)
        prev = value
        if done.any():
            converged[active[done]] = True
            for x, w in zip(X, work):
                x[active[done]] = w[done]
            keep = ~done
            active, prev = active[keep], prev[keep]
            work = [w[keep] for w in work]
            if not active.size:
                break
    for x, w in zip(X, work):
        x[active] = w
    return values, X, np.array(trace), sweeps, converged


def ascent_norm(T: MultilinearForm, restarts: int = 16, tol: float = 1e-10,
                max_iters: int = 500, seed: int = 42) -> NormEstimate:
    """Best block-ascent value across seeded restarts: a certified lower bound.

    Restart r draws its start from the child stream (seed, r) on the slot
    spheres, so a fixed seed reproduces the run exactly.  The restarts are
    swept together as one (R, n_k) block per slot (see ``_ascend``); the
    first restart reaching the best value wins.  The reported value never
    exceeds the l_1 coefficient bound (AscentInvariantError otherwise), and
    the returned maximizer is feasible and attains it.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if not T.coeffs.any():
        unit = []
        for n in T.dims:
            e = np.zeros(n, dtype=T.coeffs.dtype)
            e[0] = 1.0
            unit.append(e)
        return NormEstimate(0.0, "ascent", restarts_used=0, iterations=0,
                            converged=True, maximizer=unit)
    starts = []
    for r in range(restarts):
        rng = child_rng(seed, r)
        starts.append([_random_unit(rng, n, T.domain_p[k], T.is_complex)
                       for k, n in enumerate(T.dims)])
    X = [np.array([start[k] for start in starts]) for k in range(T.arity)]
    values, X, _, sweeps, converged = _ascend(T, X, tol, max_iters)
    best = int(np.argmax(values))
    value = float(values[best])
    bound = upper_bound_l1(T)
    if not value <= bound * (1.0 + 1e-12) + 1e-12:
        raise AscentInvariantError(
            f"ascent value {value!r} exceeds the l1 coefficient bound {bound!r}")
    return NormEstimate(value, "ascent", restarts_used=restarts,
                        iterations=int(sweeps.sum()), converged=bool(converged[best]),
                        maximizer=[x[best].copy() for x in X])


def upper_bound_l1(T: MultilinearForm) -> float:
    """Sum of coefficient moduli; dominates the norm on any p >= 1 balls."""
    return float(np.abs(T.coeffs).sum())


def operator_norm(T: MultilinearForm, restarts: int = 16, tol: float = 1e-10,
                  max_iters: int = 500, seed: int = 42) -> NormEstimate:
    """Dispatch: exact singular value on the bilinear l_2 case, ascent otherwise."""
    if T.arity == 2 and all(e == 2 for e in T.domain_p):
        return spectral_norm(T.coeffs)
    return ascent_norm(T, restarts=restarts, tol=tol, max_iters=max_iters, seed=seed)
