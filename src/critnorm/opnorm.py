"""Operator norms of multilinear forms over products of lp unit balls.

The bilinear l_2 x l_2 case is a largest singular value and is solved
exactly: LAPACK's values-only SVD gives sigma, and that is all a call
computes.  The attaining pair is computed on the first read of the
estimate's ``maximizer``: one shifted inverse-iteration solve on the Gram
matrix, so the singular vectors are never formed, or a full SVD below 16
on the short side, where it is cheaper, on the zero matrix, and when the
solve misses sigma.  Everything else runs block-coordinate ascent: one
slot at a time is replaced by the exact maximizer of its linearized
problem on the slot's ball, which never decreases the modulus of the value,
so every reported number is an attained lower bound carrying a feasible
witness.
Restarts are seeded through child streams, making runs reproducible.

All restarts of one ascent move together: slot k holds an (R, n_k) block
whose row r is restart r, and matmuls against the coefficient tensor
reshaped to 2-d serve every row.  A sweep reads the tensor twice, whatever
the arity: once for the slot-0 gradient, contracted from the last slot, and
once for the prefix P = x_0 . T, from which every later slot's gradient is
contracted while the new x_k are folded in (see ``_sweep``).  A row that
has converged is frozen and leaves the block, so each restart takes the
sweeps it would take on its own.  The price is two intermediates, of
R * |T| / n_{m-1} and R * |T| / n_0 elements, never alive together: about
1.8 MB at m = 4, n = 24 with R = 16, and about 7 MB for the four-fold
retry.  Rows are chunked so that neither exceeds the larger of |T| and
2^20 elements.

Weak norms of finite vector sequences are operator norms of the induced
pairing, so ``weak_norm`` lives here too and goes through ``operator_norm``
at fixed ascent settings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExtLike, as_ext, conjugate
from .rng import child_rng
from .tensor import MultilinearForm, lp_norm

__all__ = [
    "AscentInvariantError",
    "NormEstimate",
    "dual_argmax",
    "spectral_norm",
    "ascent_norm",
    "weak_norm",
    "upper_bound_l1",
    "operator_norm",
]


class AscentInvariantError(ValueError):
    """Block ascent broke an invariant that holds for every finite form: a
    sweep lowered a value, a value left the finite range, or the best value
    exceeded the l_1 coefficient bound.  No norm is reported."""


class _Witness:
    """``NormEstimate.maximizer``: stores the attaining vectors, or a function
    of no arguments that computes them, called on the first read and then
    replaced by its result."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None   # the dataclass default
        v = obj.__dict__[self.slot]
        if callable(v):
            v = obj.__dict__[self.slot] = v()
        return v

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass
class NormEstimate:
    """A norm value plus how it was obtained.

    ``method`` is "exact-singular", "ascent" or "analytic".  Ascent values
    are attained lower bounds: the stored maximizer is feasible on the
    domain balls and reproduces ``value`` under ``evaluate``.  ``iterations``
    counts sweeps summed over restarts; ``converged`` refers to the restart
    that produced the reported value.  ``maximizer`` may also be given as a
    function of no arguments; it then runs on the first read of
    ``maximizer``, which is how an exact-singular estimate computes its
    attaining pair only when asked for it.
    """

    value: float
    method: str
    restarts_used: int = 0
    iterations: int = 0
    converged: bool = True
    maximizer: list | None = _Witness()


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
    e = None if p.is_inf else p.fraction
    if e is not None and e < 1:
        raise ValueError(f"unit balls require p >= 1, got {p}")
    c = np.asarray(c)
    if c.ndim not in (1, 2) or c.size == 0:
        raise ValueError("expected a nonempty vector or (R, n) block")
    C = c.reshape(-1, c.shape[-1])
    mags = np.abs(C).astype(np.float64, copy=False)
    scale = mags.max(axis=1)
    zero = scale == 0
    if np.iscomplexobj(C):
        div = np.where(mags > 0, mags, 1.0)
        tiny = div < 1e-300
        if tiny.any():   # complex division forms 1/|c|: rescale subnormal c exactly
            C = np.where(tiny, C * 2.0 ** 600, C)
            div[tiny] = np.abs(C[tiny])
        phase = np.conj(C) / div
        phase[mags == 0] = 1
    else:
        phase = np.where(C < 0, -1.0, 1.0)
    if e == 1:
        rows = np.arange(len(C))
        j = np.argmax(mags, axis=1)
        values = mags[rows, j]
        X = np.zeros_like(phase)
        X[rows, j] = phase[rows, j]
    elif e is None:
        values = mags.sum(axis=1)
        X = phase
    else:
        e = float(e)
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

    sigma comes from the values-only SVD, the only factorization a call
    makes.  Non-finite entries raise ValueError before LAPACK sees them, and
    so does a sigma that overflows.  The attaining pair is computed the first
    time ``maximizer`` is read (see ``_singular_pair``) and then kept; a
    read-only matrix, such as a form's coefficients, is shared with it, any
    other is copied.
    """
    A = np.asarray(matrix)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if not np.isfinite(A).all():
        raise ValueError("spectral norm needs finite entries")
    sigma = float(np.linalg.svd(A, compute_uv=False)[0])
    if not np.isfinite(sigma):
        raise ValueError(f"largest singular value is {sigma}; the entries are too large")
    if A.flags.writeable:
        A = A.copy()
    return NormEstimate(sigma, "exact-singular", maximizer=lambda: _singular_pair(A, sigma))


def _singular_pair(A, sigma):
    """Unit pair [x, y] with x^T A y = sigma, the largest singular value of A.

    One step of shifted inverse iteration (``_gram_witness``) gives it when
    the short side is at least 16.  A full (thin) SVD gives it instead when
    the short side is below 16, where it is cheaper, when A is zero (giving
    e_0, e_0), and when the Gram solve misses sigma.
    """
    if min(A.shape) >= _WITNESS_MIN_DIM and sigma > 0:
        pair = _gram_witness(A, sigma)
        if pair is not None:
            return pair
    U, _, Vh = np.linalg.svd(A, full_matrices=False)
    return [np.conj(U[:, 0]), np.conj(Vh[0])]


def _gram_witness(A, sigma):
    """Unit pair [x, y] with x^T A y = sigma from one shifted Gram solve, or
    None when the solve does not reach sigma within 1e-13 relative.

    With B = A / sigma in the taller orientation (A^T / sigma for a wide A),
    solve (B^H B - (1 + 2^-40) I) v = 1, so v lies along the top right
    singular vector, and set u = B v / ||B v||.  ||B v|| < 1 - 1e-13 means
    the all-ones start missed the top singular vector."""
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


# Row-chunk cap, in elements, for the two tensor-sized intermediates of a sweep.
_GRADIENT_CHUNK = 1 << 20


def _first_slot_gradient(coeffs, X):
    """Slot-0 linearization at every row of the blocks ``X`` (one (R, n_i)
    block per slot): row r contracts ``coeffs`` with X[i][r] in every slot
    i >= 1.  One matmul contracts slot m-1 for all rows, reading the tensor
    once into R * |T| / n_{m-1} elements; batched matrix-vector products
    then contract slots m-2 down to 1.  An arity-1 gradient is ``coeffs``
    itself in every row."""
    dims = coeffs.shape
    R = len(X[0])
    if len(dims) == 1:
        return np.broadcast_to(coeffs, (R, dims[0]))
    G = X[-1] @ coeffs.reshape(-1, dims[-1]).T
    for i in range(len(dims) - 2, 0, -1):
        G = np.matmul(G.reshape(R, -1, dims[i]), X[i][:, :, np.newaxis])[:, :, 0]
    return G


def _sweep(coeffs, X, orders):
    """One Gauss-Seidel sweep over every row of the blocks ``X``: slot k is
    replaced by ``dual_argmax`` of its gradient at the new slots 0..k-1 and
    the old slots k+1..m-1.  Returns (before, after, X): the (R,) moduli of
    the value at the entering rows and after the sweep, and the new blocks.

    The tensor is read twice.  The slot-0 gradient is contracted from the
    tail (see ``_first_slot_gradient``); then the prefix P = x_0 . T, an
    R * |T| / n_0 block, is formed.  Slot k >= 1 takes its gradient from P
    by contracting the old trailing slots m-1..k+1, and its new x_k is then
    folded into P, so the last slot's gradient is P itself.  Rows are
    independent, so when either intermediate would exceed
    max(|T|, _GRADIENT_CHUNK) elements the rows sweep in chunks that keep
    both within that cap.
    """
    dims = coeffs.shape
    m = len(dims)
    R = len(X[0])
    rows = max(1, max(coeffs.size, _GRADIENT_CHUNK) * min(dims[0], dims[-1]) // coeffs.size)
    if R > rows:
        parts = [_sweep(coeffs, [x[s:s + rows] for x in X], orders)
                 for s in range(0, R, rows)]
        before, after, blocks = zip(*parts)
        return np.concatenate(before), np.concatenate(after), \
            [np.concatenate(b) for b in zip(*blocks)]
    G = _first_slot_gradient(coeffs, X)
    before = np.abs((G * X[0]).sum(axis=1))
    X = list(X)
    value, X[0] = dual_argmax(G, orders[0])
    if m > 1:
        P = X[0] @ coeffs.reshape(dims[0], -1)
    for k in range(1, m):
        G = P
        for i in range(m - 1, k, -1):
            G = np.matmul(G.reshape(R, -1, dims[i]), X[i][:, :, np.newaxis])[:, :, 0]
        value, X[k] = dual_argmax(G, orders[k])
        if k < m - 1:
            P = np.matmul(X[k][:, np.newaxis, :], P.reshape(R, dims[k], -1))[:, 0, :]
    return before, value, X


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
    the blocks are overwritten with the final rows.  Each sweep is one
    ``_sweep``: two reads of the tensor, an R * |T| / n_0 prefix, and row
    chunks that keep every intermediate within max(|T|, _GRADIENT_CHUNK)
    elements.  A row freezes after the first sweep that raised its value
    above the modulus at its entering rows by at most ``tol`` relative;
    only the remaining active rows are swept further, so every row takes
    the sweeps it would take alone.

    Returns (values, X, trace, sweeps, converged): the (R,) final values,
    the blocks, the (S, R) per-sweep trace (row s holds every value after
    sweep s; a frozen row repeats its final value), the (R,) sweep counts
    and the (R,) convergence flags.  Each block step sets a row's
    value to a conjugate norm of its slot gradient, which dominates the
    previous modulus, so the trace is nondecreasing; a sweep that ends
    below its entering modulus beyond a tiny rounding allowance, or a
    non-finite value, raises AscentInvariantError.
    """
    coeffs, orders = T.coeffs, T.domain_p
    active = np.arange(len(X[0]))
    work = list(X)
    values = np.zeros(len(active))
    sweeps = np.zeros(len(active), dtype=np.int64)
    converged = np.zeros(len(active), dtype=bool)
    trace = []
    for _ in range(max_iters):
        prev, value, work = _sweep(coeffs, work, orders)
        values[active] = value
        sweeps[active] += 1
        trace.append(values.copy())
        if not np.isfinite(value).all():
            raise AscentInvariantError(
                "block ascent reached a non-finite value; are all coefficients finite?")
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


# The fixed ascent settings of weak_norm.
_WEAK_RESTARTS, _WEAK_TOL, _WEAK_MAX_ITERS = 8, 1e-12, 200


def weak_norm(vectors, p: ExtLike, space_q: ExtLike, *, seed: int = 0) -> float:
    """Weak-l_p norm of a finite sequence of vectors living in l_{space_q}^n.

    Equals the operator norm of the map c -> sum_k c_k x_k from the unit
    l_{p*} ball into l_{space_q}, i.e. of the pairing on l_{p*} x l_{q*},
    which ``operator_norm`` gives exactly for p = q = 2 and otherwise as an
    attained lower bound from the seeded ascent at the fixed settings above.
    ``vectors`` are the rows of a 2-d array.
    """
    X = np.asarray(vectors)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.ndim != 2:
        raise ValueError("pass the sequence as rows of a 2-d array")
    p = as_ext(p)
    if p < 1:
        raise ValueError(f"weak norms need p >= 1, got {p}")
    q = as_ext(space_q)
    if q < 1:
        raise ValueError(f"the container space needs q >= 1, got {q}")
    pairing = MultilinearForm(X, domain_p=(conjugate(p), conjugate(q)))
    return operator_norm(pairing, restarts=_WEAK_RESTARTS, tol=_WEAK_TOL,
                         max_iters=_WEAK_MAX_ITERS, seed=seed).value


# Elements per block of upper_bound_l1: 512 KiB of moduli, under the peak of
# the ascent it checks.
_L1_BLOCK = 1 << 16


def upper_bound_l1(T: MultilinearForm) -> float:
    """Sum of coefficient moduli; dominates the norm on any p >= 1 balls.

    The moduli are summed in blocks of ``_L1_BLOCK`` elements, so no copy
    the size of the tensor is made."""
    flat = T.coeffs.reshape(-1)
    return float(sum(np.abs(flat[s:s + _L1_BLOCK]).sum()
                     for s in range(0, flat.size, _L1_BLOCK)))


def operator_norm(T: MultilinearForm, restarts: int = 16, tol: float = 1e-10,
                  max_iters: int = 500, seed: int = 42) -> NormEstimate:
    """Dispatch: exact singular value on the bilinear l_2 case, ascent otherwise."""
    if T.arity == 2 and all(e == 2 for e in T.domain_p):
        return spectral_norm(T.coeffs)
    return ascent_norm(T, restarts=restarts, tol=tol, max_iters=max_iters, seed=seed)
