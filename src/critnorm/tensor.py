"""Dense multilinear forms and their mixed and comparison norms.

An arity-m form on l_{p_1} x ... x l_{p_m} is stored as its dense coefficient
tensor a[j_1, ..., j_m] = T(e_{j_1}, ..., e_{j_m}), row-major, float64 or
complex128.  The mixed norm nests one l_s reduction per axis, innermost axis
first, with an infinite order meaning a running maximum; the leading modulus
is factored out before any exponentiation so extreme orders neither overflow
nor underflow.  JSON interchange keeps the flat row-major coefficient list
with complex entries as [re, im] pairs.  Weak norms of vector sequences
are operator norms, so they live in critnorm.opnorm.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Sequence

import numpy as np

from .exponents import ExponentVector, ExtLike, as_ext

__all__ = [
    "MultilinearForm",
    "evaluate",
    "mixed_norm",
    "lp_norm",
    "minkowski_gap",
    "to_dict",
    "from_dict",
    "save_tensor",
    "load_tensor",
]


@functools.cache
def _critical_domain(m: int) -> ExponentVector:
    """The default domain of an arity-m form, every slot on l_m; built once
    per arity and shared, since an ExponentVector is immutable."""
    return ExponentVector.uniform(m, m)


class MultilinearForm:
    """Immutable dense m-linear form with per-slot domain orders.

    The coefficients must be finite: a NaN or inf entry raises ValueError.
    ``domain_p`` defaults to the critical choice: every slot on l_m where m
    is the arity.  ``analytic_norm`` is optional closed-form operator norm
    metadata (on the stored domain).
    """

    __slots__ = ("coeffs", "domain_p", "analytic_norm")

    def __init__(self, coeffs, domain_p=None, analytic_norm=None):
        arr = np.asarray(coeffs)
        if arr.ndim < 1:
            raise ValueError("coefficients must carry at least one axis")
        if any(d < 1 for d in arr.shape):
            raise ValueError(f"all dimensions must be positive, got {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.array(arr, dtype=dtype, order="C", copy=True)
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite; the tensor holds NaN or inf")
        arr.setflags(write=False)
        self.coeffs = arr
        if domain_p is None:
            domain_p = _critical_domain(arr.ndim)
        else:
            if not isinstance(domain_p, ExponentVector):
                domain_p = ExponentVector(domain_p)
            if len(domain_p) != arr.ndim:
                raise ValueError(
                    f"domain orders: expected {arr.ndim} entries, got {len(domain_p)}"
                )
            for i, e in enumerate(domain_p, start=1):
                if e < 1:
                    raise ValueError(f"slot {i} domain order {e} < 1; unit balls need p >= 1")
        self.domain_p = domain_p
        self.analytic_norm = None if analytic_norm is None else float(analytic_norm)

    @property
    def arity(self) -> int:
        return self.coeffs.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.coeffs.shape

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.coeffs)

    @property
    def scalar_field(self) -> str:
        return "complex" if self.is_complex else "real"

    def with_domain(self, domain_p) -> "MultilinearForm":
        """Same coefficients on different unit balls (analytic metadata drops,
        since a closed-form norm is tied to its domain)."""
        return MultilinearForm(self.coeffs, domain_p)

    def __repr__(self):
        shape = "x".join(map(str, self.dims))
        return f"MultilinearForm({self.scalar_field} {shape} on l_{self.domain_p})"


def evaluate(T: MultilinearForm, xs: Sequence) -> float | complex:
    """Contract the form against one vector per slot."""
    xs = list(xs)
    if len(xs) != T.arity:
        raise ValueError(f"expected {T.arity} vectors, got {len(xs)}")
    out = T.coeffs
    for k, x in enumerate(xs):
        x = np.asarray(x)
        if x.shape != (T.dims[k],):
            raise ValueError(f"slot {k + 1}: expected shape ({T.dims[k]},), got {x.shape}")
        out = np.tensordot(out, x, axes=(0, 0))
    return out.item()


def mixed_norm(T, orders) -> float:
    """Nested norm of the coefficient moduli, innermost axis first.

    ``orders[k-1]`` is applied along axis k, starting with the last axis; an
    infinite order takes the maximum of the level below.  Exact orders are
    converted to double precision once; the global maximum modulus is
    factored out first, which makes the result exactly homogeneous and keeps
    large orders stable.  A non-finite maximum modulus raises ValueError.
    Where a level holds zeros only its nonzero entries are raised to the
    power (0^e = 0, so the sums are the same bits); on sparse tensors such
    as the dot forms this skips nearly all of the work.  Accepts a form or
    a bare array.
    """
    arr = T.coeffs if isinstance(T, MultilinearForm) else np.asarray(T)
    s = orders if isinstance(orders, ExponentVector) else ExponentVector(orders)
    if len(s) != arr.ndim:
        raise ValueError(f"expected {arr.ndim} orders for arity {arr.ndim}, got {len(s)}")
    work = np.abs(arr).astype(np.float64, copy=False)
    if work.size == 0:
        return 0.0
    scale = float(work.max())
    if not math.isfinite(scale):
        raise ValueError(f"mixed norm needs finite coefficients, got a modulus of {scale}")
    if scale == 0.0:
        return 0.0
    work /= scale
    for order in reversed(s):
        if order.is_inf:
            work = work.max(axis=-1)
        else:
            e = float(order.fraction)
            # work is always a fresh array here, so it is raised in place
            np.power(work, e, out=work, where=True if work.min() > 0 else work > 0)
            work = work.sum(axis=-1) ** (1.0 / e)
    return float(work) * scale


def lp_norm(x, order: ExtLike) -> float:
    """l_p norm of a vector for any order > 0; inf means the maximum modulus."""
    p = as_ext(order)
    a = np.abs(np.asarray(x)).astype(np.float64, copy=False).ravel()
    if a.size == 0:
        return 0.0
    if p.is_inf:
        return float(a.max())
    e = float(p.fraction)
    if e <= 0:
        raise ValueError(f"norm order must be positive, got {p}")
    scale = float(a.max())
    if scale == 0.0:
        return 0.0
    return scale * float(np.power(a / scale, e).sum() ** (1.0 / e))


def minkowski_gap(matrix, p: ExtLike, q: ExtLike) -> float:
    """Columns-inside minus rows-inside mixed norm of a nonnegative matrix.

    For 0 < p <= q <= inf the value l_q(rows of l_p) never exceeds
    l_p(columns of l_q), so the gap is nonnegative up to rounding.
    """
    A = np.asarray(matrix, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if (A < 0).any():
        raise ValueError("entries must be nonnegative")
    p, q = as_ext(p), as_ext(q)
    for name, e in (("p", p), ("q", q)):
        if e <= 0:
            raise ValueError(f"{name} must be positive, got {e}")
    if q < p:
        raise ValueError(f"needs p <= q, got p = {p} > q = {q}")
    return mixed_norm(A.T, (p, q)) - mixed_norm(A, (q, p))


def to_dict(T: MultilinearForm) -> dict:
    """Interchange dict: m, dims, scalar, flat row-major coeffs (complex as
    [re, im] pairs); non-default domain orders ride along as token strings."""
    flat = T.coeffs.ravel(order="C")
    if T.is_complex:
        coeffs = [[float(z.real), float(z.imag)] for z in flat]
    else:
        coeffs = [float(v) for v in flat]
    payload = {
        "m": T.arity,
        "dims": list(T.dims),
        "scalar": T.scalar_field,
        "coeffs": coeffs,
    }
    if T.domain_p != _critical_domain(T.arity):
        payload["domain_p"] = [str(e) for e in T.domain_p]
    return payload


def from_dict(payload: dict) -> MultilinearForm:
    """Inverse of ``to_dict``; a NaN or inf coefficient raises ValueError
    (from ``MultilinearForm``)."""
    m = int(payload["m"])
    dims = tuple(int(d) for d in payload["dims"])
    if len(dims) != m:
        raise ValueError(f"dims has {len(dims)} entries but m = {m}")
    scalar = payload["scalar"]
    raw = payload["coeffs"]
    size = math.prod(dims)
    if len(raw) != size:
        raise ValueError(f"expected {size} coefficients, got {len(raw)}")
    if scalar == "real":
        arr = np.array(raw, dtype=np.float64).reshape(dims)
    elif scalar == "complex":
        arr = np.array([complex(re, im) for re, im in raw], dtype=np.complex128).reshape(dims)
    else:
        raise ValueError(f"unknown scalar field {scalar!r}")
    domain = payload.get("domain_p")
    return MultilinearForm(arr, domain_p=ExponentVector(domain) if domain else None)


def save_tensor(T: MultilinearForm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(T), fh)
        fh.write("\n")


def load_tensor(path) -> MultilinearForm:
    with open(path, encoding="utf-8") as fh:
        return from_dict(json.load(fh))
