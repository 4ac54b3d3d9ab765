"""Multilinear forms and their mixed and comparison norms.

An arity-m form on l_{p_1} x ... x l_{p_m} is read as its dense coefficient
tensor a[j_1, ..., j_m] = T(e_{j_1}, ..., e_{j_m}), row-major, float64 or
complex128.  The mixed norm nests one l_s reduction per axis, innermost axis
first, with an infinite order meaning a running maximum; the leading modulus
is factored out before any exponentiation so extreme orders neither overflow
nor underflow.  JSON interchange keeps the flat row-major coefficient list
with complex entries as [re, im] pairs.  Weak norms of vector sequences
are operator norms, so they live in critnorm.opnorm.

Memory: a form built from an array keeps that array as its only
tensor-sized array.  A form takes over an array that is already
C-contiguous float64 or complex128, read-only, and owned by a read-only
array (itself or its base), so the builders in critnorm.witnesses,
``from_dict`` and ``with_domain`` make no second copy; any other array is
copied.  The finiteness check and ``mixed_norm`` work in chunks of at most
``CHUNK_ELEMENTS`` elements (or one leading-axis row, if a row is larger),
so their scratch stays bounded whatever the tensor size.  The diagonal
witnesses (``make_dot``, ``make_partial_dot``) hold n nonzero entries of an
n^m tensor, so they keep only their compressed group-diagonal block.  Such
a form builds its dense tensor on the first read of ``coeffs``, and
``mixed_norm`` reduces the block without building it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from typing import Sequence

import numpy as np

from .exponents import ExponentVector, ExtLike

__all__ = [
    "MultilinearForm",
    "evaluate",
    "mixed_norm",
    "lp_norm",
    "to_dict",
    "from_dict",
    "save_tensor",
    "load_tensor",
]


# Elements per chunk of every chunked reduction over a coefficient tensor
# (2 MiB of float64 moduli).
CHUNK_ELEMENTS = 1 << 18


@functools.cache
def _critical_domain(m: int) -> ExponentVector:
    """The default domain of an arity-m form, every slot on l_m; built once
    per arity and shared, since an ExponentVector is immutable."""
    return ExponentVector.uniform(m, m)


class MultilinearForm:
    """Immutable m-linear form with per-slot domain orders.

    The coefficients must be finite: a NaN or inf entry raises ValueError.
    ``domain_p`` defaults to the critical choice: every slot on l_m where m
    is the arity.  ``analytic_norm`` is optional closed-form operator norm
    metadata (on the stored domain).

    The form shares ``coeffs`` instead of copying it when the array is
    already C-contiguous float64 or complex128, read-only, and its memory
    belongs to a read-only array that owns it (the array itself or its
    base); a builder hands a fresh array over by marking it read-only.  Any
    other input, a read-only view of a writeable array included, is copied.
    Finiteness is checked in chunks of ``CHUNK_ELEMENTS``, so beyond the
    coefficients themselves construction allocates at most one chunk.

    A form made by ``_from_block`` keeps its real compressed block only.
    ``dims``, ``arity`` and ``is_complex`` are stored apart from the
    coefficients, and the read-only dense ``coeffs`` is built from the
    block on its first read, once.
    """

    __slots__ = ("_coeffs", "_block", "_dims", "_dtype", "domain_p", "analytic_norm")

    def __init__(self, coeffs, domain_p=None, analytic_norm=None):
        arr = np.asarray(coeffs)
        if arr.ndim < 1:
            raise ValueError("coefficients must carry at least one axis")
        if any(d < 1 for d in arr.shape):
            raise ValueError(f"all dimensions must be positive, got {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        owner = arr if arr.base is None else arr.base
        if not (arr.dtype == dtype and arr.flags.c_contiguous and not arr.flags.writeable
                and isinstance(owner, np.ndarray) and owner.flags.owndata
                and not owner.flags.writeable):
            arr = np.array(arr, dtype=dtype, order="C", copy=True)
            arr.setflags(write=False)
        flat = arr.reshape(-1)
        for i in range(0, flat.size, CHUNK_ELEMENTS):
            if not np.isfinite(flat[i:i + CHUNK_ELEMENTS]).all():
                raise ValueError("coefficients must be finite; the tensor holds NaN or inf")
        self._coeffs, self._block = arr, None
        self._set_layout(arr.shape, arr.dtype, domain_p, analytic_norm)

    @classmethod
    def _from_block(cls, dims, U, groups, domain_p=None, analytic_norm=None):
        """A real form from its compressed group-diagonal block U, one axis
        per group of ``groups[l]`` consecutive slots: the entry whose slots
        in group l all hold i_l is U[i_1, ..., i_L], every other entry is 0.
        An axis of U may be shorter than its slots' dimension, so a pinned
        slot is a group of one slot with an axis of length 1.  U is taken
        over and marked read-only, and the shapes must fit; the caller
        guarantees it.  A NaN or inf in U raises ValueError."""
        U = np.asarray(U, dtype=np.float64)
        U.setflags(write=False)
        if not np.isfinite(U).all():
            raise ValueError("coefficients must be finite; the block holds NaN or inf")
        T = cls.__new__(cls)
        T._coeffs, T._block = None, (U, tuple(groups))
        T._set_layout(tuple(dims), np.dtype(np.float64), domain_p, analytic_norm)
        return T

    def _set_layout(self, dims, dtype, domain_p, analytic_norm):
        self._dims, self._dtype = dims, dtype
        if domain_p is None:
            domain_p = _critical_domain(len(dims))
        else:
            if not isinstance(domain_p, ExponentVector):
                domain_p = ExponentVector(domain_p)
            if len(domain_p) != len(dims):
                raise ValueError(
                    f"domain orders: expected {len(dims)} entries, got {len(domain_p)}"
                )
            for i, e in enumerate(domain_p, start=1):
                if e < 1:
                    raise ValueError(f"slot {i} domain order {e} < 1; unit balls need p >= 1")
        self.domain_p = domain_p
        self.analytic_norm = None if analytic_norm is None else float(analytic_norm)

    @property
    def coeffs(self) -> np.ndarray:
        """The read-only dense coefficient tensor (built from the block on
        first read when the form keeps one)."""
        if self._coeffs is None:
            U, groups = self._block
            axes = zip(np.indices(U.shape, sparse=True), groups)
            arr = np.zeros(self._dims)
            arr[tuple(axis for axis, g in axes for _ in range(g))] = U
            arr.setflags(write=False)
            self._coeffs = arr
        return self._coeffs

    @property
    def arity(self) -> int:
        return len(self._dims)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    @property
    def is_complex(self) -> bool:
        return self._dtype == np.complex128

    @property
    def scalar_field(self) -> str:
        return "complex" if self.is_complex else "real"

    def with_domain(self, domain_p) -> "MultilinearForm":
        """Same coefficients on different unit balls (analytic metadata drops,
        since a closed-form norm is tied to its domain).  The two forms share
        one coefficient array, or one block, which is not checked again."""
        T = MultilinearForm.__new__(MultilinearForm)
        T._coeffs, T._block = self._coeffs, self._block
        T._set_layout(self._dims, self._dtype, domain_p, None)
        return T

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
    large orders stable.  A non-finite maximum modulus raises ValueError,
    and so does a result past the float range.  Where a level holds zeros
    only its nonzero entries are raised to the power (0^e = 0, so the sums
    are the same bits); on mostly-zero arrays such as a ``t0`` tensor this
    skips nearly all of the work.  Accepts a form or a bare array.

    A tensor of more than ``CHUNK_ELEMENTS`` elements is reduced in chunks
    of leading-axis rows, each at most ``CHUNK_ELEMENTS`` elements or one
    row: one pass takes the maximum modulus, a second applies every level
    but the outermost to each chunk, and the outermost level then runs over
    the per-row results.  A row's sums do not depend on the rows beside it,
    so the result is bit for bit that of a single chunk, and the scratch
    stays at a few chunks instead of a tensor-sized copy of the moduli.

    A form that keeps only its block (see ``MultilinearForm``) is reduced
    as the bare block U, with the order of each group's first slot on the
    group's axis.  Inside a group every slot after the first sees one
    nonzero entry per index prefix, and the levels there leave it as it is
    up to rounding.  On the 0/1 blocks of the diagonal witnesses that entry
    is exactly 1, so every other level runs the dense path's operations on
    the same values and the result has the dense path's bits.
    """
    s = orders if isinstance(orders, ExponentVector) else ExponentVector(orders)
    form = isinstance(T, MultilinearForm)
    m = T.arity if form else np.ndim(T)
    if len(s) != m:
        raise ValueError(f"expected {m} orders for arity {m}, got {len(s)}")
    if form and T._block is not None:
        U, groups = T._block
        return mixed_norm(U, [s[k] for k in itertools.accumulate(groups[:-1], initial=0)])
    arr = T.coeffs if form else np.asarray(T)
    if arr.size == 0:
        return 0.0
    rows = CHUNK_ELEMENTS * arr.shape[0] // arr.size
    with np.errstate(over="ignore"):   # an overflow is refused below
        if rows >= arr.shape[0]:
            work = np.abs(arr)
            scale = _finite_scale(work.max())
            if scale == 0.0:
                return 0.0
            value = float(_reduce_levels(work, s, scale)) * scale
        else:
            rows = max(rows, 1)
            starts = range(0, arr.shape[0], rows)
            scale = max(_finite_scale(np.abs(arr[i:i + rows]).max()) for i in starts)
            if scale == 0.0:
                return 0.0
            outer, *inner = s
            heads = np.empty(arr.shape[0])
            for i in starts:
                heads[i:i + rows] = _reduce_levels(np.abs(arr[i:i + rows]), inner, scale)
            value = float(_reduce_levels(heads, (outer,))) * scale
    if not math.isfinite(value):
        raise ValueError(f"the mixed norm overflowed float64 arithmetic and reached {value}; "
                         "rescale the coefficients")
    return value


def _finite_scale(top) -> float:
    scale = float(top)
    if not math.isfinite(scale):
        raise ValueError(f"mixed norm needs finite coefficients, got a modulus of {scale}")
    return scale


def _reduce_levels(work, orders, scale=None):
    """Apply ``orders`` to the trailing axes of ``work``, a fresh array of
    moduli (divided by ``scale`` first when one is given), innermost (last
    order, last axis) first.  A chunk passed as a temporary is held by this
    frame alone, so it is freed as soon as its first level is reduced."""
    if scale is not None:
        work = work.astype(np.float64, copy=False)
        work /= scale
    for order in reversed(orders):
        if order.is_inf:
            work = work.max(axis=-1)
        else:
            e = float(order.fraction)
            # work is always a fresh array here, so it is raised in place
            np.power(work, e, out=work, where=True if work.min() > 0 else work > 0)
            work = work.sum(axis=-1) ** (1.0 / e)
    return work


def lp_norm(x, order: ExtLike) -> float:
    """l_p norm of the entries of ``x`` for any order > 0; inf means the
    maximum modulus.  It is ``mixed_norm`` on the flattened entries, with
    its refusals: a non-finite entry, or a result past the float range."""
    return mixed_norm(np.ravel(x), (order,))


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
    """Inverse of ``to_dict``.  A payload that is not a dict with integer
    ``m`` and ``dims``, ``scalar`` and a ``coeffs`` list of the right length
    and shape, whose ``domain_p`` holds anything but integers and token
    strings, or that holds a NaN or inf coefficient, raises ValueError.
    The parsed array is handed to the form without a second copy."""
    if not isinstance(payload, dict):
        raise ValueError("a tensor file must hold a JSON object")
    missing = [k for k in ("m", "dims", "scalar", "coeffs") if k not in payload]
    if missing:
        raise ValueError(f"tensor file lacks {', '.join(map(repr, missing))}")
    raw = payload["coeffs"]
    domain = payload.get("domain_p")
    if not all(isinstance(v, list) for v in (payload["dims"], raw, domain or [])):
        raise ValueError("tensor file: dims, coeffs and domain_p must be lists")
    m, dims = payload["m"], tuple(payload["dims"])
    # type(), not isinstance: JSON true parses to bool, an int subclass
    if not all(type(v) is int for v in (m, *dims)):
        raise ValueError("tensor file: m and dims must be integers")
    if not all(type(e) is int or isinstance(e, str) for e in domain or []):
        raise ValueError("tensor file: domain_p entries must be integers or token strings")
    if len(dims) != m:
        raise ValueError(f"dims has {len(dims)} entries but m = {m}")
    scalar = payload["scalar"]
    size = math.prod(dims)
    if len(raw) != size:
        raise ValueError(f"expected {size} coefficients, got {len(raw)}")
    if scalar == "real":
        shape = (size,)
    elif scalar == "complex":
        shape = (size, 2)
    else:
        raise ValueError(f"unknown scalar field {scalar!r}")
    try:
        flat = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        flat = None
    if flat is None or flat.shape != shape:
        kind = "[re, im] pairs of numbers" if scalar == "complex" else "numbers"
        raise ValueError(f"{scalar} coefficients must be {kind}")
    flat.setflags(write=False)
    arr = (flat.view(np.complex128) if scalar == "complex" else flat).reshape(dims)
    return MultilinearForm(arr, domain_p=ExponentVector(domain) if domain else None)


def save_tensor(T: MultilinearForm, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_dict(T), fh)
        fh.write("\n")


def load_tensor(path) -> MultilinearForm:
    with open(path, encoding="utf-8") as fh:
        return from_dict(json.load(fh))
