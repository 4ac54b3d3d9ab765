"""Constructors for extremal and random test forms, plus the form-spec parser.

The diagonal family and its pinned variants attain the critical mixed-norm
bound on the l_m domain, so they carry closed-form operator norms as
metadata.  Random sign and Gaussian forms draw from child streams of an
explicit seed and are reproducible.  ``parse_form_spec`` reads compact specs
like ``"partial:m=3,r=1"`` by their kind's one row in ``_KINDS``.  A spec
names a family: ``FormFactory.make(n, seed)`` alone gives a member its
dimension and seed, and only ``dims=`` or a file fixes one shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rng import child_rng
from .tensor import MultilinearForm, load_tensor

__all__ = [
    "make_dot",
    "make_partial_dot",
    "make_t0",
    "make_sign_random",
    "make_gaussian_random",
    "FormFactory",
    "parse_form_spec",
]


def _frozen(coeffs: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only, so the form takes it over
    instead of copying it."""
    coeffs.setflags(write=False)
    return coeffs


def make_dot(m: int, n: int) -> MultilinearForm:
    """Diagonal contraction sum_j x^(1)_j ... x^(m)_j; norm 1 on the l_m domain."""
    return make_partial_dot(m, n, 0)


def make_partial_dot(m: int, n: int, r: int) -> MultilinearForm:
    """Diagonal contraction with the first r slots pinned to coordinate 1.

    On the l_m domain the norm is n^(r/m): Hoelder across the m-r live slots,
    attained by uniform vectors n^(-1/m)(1,...,1) with the pinned slots at
    e_1.  The same argument extends past r = 2, where the value is
    cross-checked numerically rather than quoted.

    The form keeps its compressed block, n ones behind r axes of length 1,
    so building it and taking its mixed norms cost O(n); its dense n^m
    tensor is built only if ``coeffs`` is read.
    """
    if m < 2:
        raise ValueError(f"arity must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= r <= m - 2:
        raise ValueError(f"pinned slots must satisfy 0 <= r <= m-2, got r = {r}")
    return MultilinearForm._from_block((n,) * m, np.ones((1,) * r + (n,)),
                                       (1,) * r + (m - r,), analytic_norm=float(n) ** (r / m))


def make_t0(n1: int, n2: int) -> MultilinearForm:
    """Bilinear x_1 * (y_1 + ... + y_{n2}) on l_2 x l_2; norm sqrt(n2)."""
    if n1 < 1 or n2 < 1:
        raise ValueError(f"dimensions must be >= 1, got ({n1}, {n2})")
    coeffs = np.zeros((n1, n2))
    coeffs[0, :] = 1.0
    return MultilinearForm(_frozen(coeffs), domain_p=(2, 2), analytic_norm=float(n2) ** 0.5)


# Elements per slice of the int64 sign draws: 256 KiB, the bytes of the bool
# chunk that the form's finiteness check allocates anyway.
_SIGN_SLICE = 1 << 15


def make_sign_random(m: int, n: int, seed: int) -> MultilinearForm:
    """Independent uniform +-1 coefficients from the seed's child stream.

    The int64 draws of ``rng.integers(0, 2, ...)`` are made slice by slice,
    ``_SIGN_SLICE`` elements at a time, straight into the float64 tensor,
    so no int64 array of the tensor's size is made.  A draw below 2 takes
    one 32-bit word of the stream and is never rejected, so the slices
    read the stream exactly as one draw of the whole tensor does."""
    if m < 2:
        raise ValueError(f"arity must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = child_rng(seed)
    coeffs = np.empty((n,) * m)
    flat = coeffs.reshape(-1)
    for s in range(0, flat.size, _SIGN_SLICE):
        flat[s:s + _SIGN_SLICE] = rng.integers(0, 2, size=min(_SIGN_SLICE, flat.size - s))
    coeffs *= 2.0
    coeffs -= 1.0
    return MultilinearForm(_frozen(coeffs))


def make_gaussian_random(dims, seed: int, scalar_field: str = "real") -> MultilinearForm:
    """Independent standard normal coefficients; complex draws real parts first."""
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("dims must be nonempty")
    if min(dims) < 1:
        raise ValueError(f"all dimensions must be positive, got {dims}")
    rng = child_rng(seed)
    if scalar_field == "real":
        coeffs = rng.standard_normal(dims)
    elif scalar_field == "complex":
        coeffs = np.empty(dims, dtype=np.complex128)
        coeffs.real = rng.standard_normal(dims)
        coeffs.imag = rng.standard_normal(dims)
    else:
        raise ValueError(f"unknown scalar field {scalar_field!r}")
    return MultilinearForm(_frozen(coeffs))


def _gauss(seed: int, m=None, n=None, dims=None, scalar="real") -> MultilinearForm:
    """A gauss spec's form: its dims=, or m= slots of dimension n."""
    return make_gaussian_random(dims or (n,) * m, seed, scalar)


# One row per form kind: (builder, keys a spec may set, keys it must set, the
# key make's n fills, whether make's seed is read).
_KINDS = {
    "dot": (make_dot, {"m"}, ("m",), "n", False),
    "partial": (make_partial_dot, {"m", "r"}, ("m", "r"), "n", False),
    "t0": (make_t0, {"n1"}, ("n1",), "n2", False),
    "sign": (make_sign_random, {"m"}, ("m",), "n", True),
    "gauss": (_gauss, {"dims", "m", "scalar"}, (), "n", True),
    "file": (load_tensor, {"path"}, ("path",), None, False),
}


@dataclass(frozen=True)
class FormFactory:
    """A parsed form spec, which names a family; ``make`` builds one member.

    ``takes_n`` and ``takes_seed`` state what ``make`` reads.  A spec that
    fixes its dimensions (``dims=`` or a file) refuses an ``n`` passed to
    ``make``, and a seedless kind ignores the seed.  So a seedless spec has
    one member per dimension, while a random one has one per seed too (the
    harness fills n per sweep point and a child seed per trial).
    """

    kind: str
    params: dict = field(default_factory=dict)

    @property
    def takes_n(self) -> bool:
        """Whether ``make`` reads its ``n``: the kind has a free dimension and no dims=."""
        return _KINDS[self.kind][3] is not None and self.params.get("dims") is None

    @property
    def takes_seed(self) -> bool:
        """Whether ``make`` reads its ``seed``: the kind is random."""
        return _KINDS[self.kind][4]

    def make(self, n=None, seed=None, domain_p=None) -> MultilinearForm:
        build, _, _, dim, seeded = _KINDS[self.kind]
        params = dict(self.params)
        if self.takes_n:
            if n is None:
                raise ValueError("a dimension is required: pass n")
            params[dim] = int(n)
        elif n is not None:
            raise ValueError(f"the {self.kind} form spec fixes its dimensions, "
                             f"so a separate n = {n} cannot apply")
        if seeded and seed is None:
            raise ValueError("a seed is required for random forms")
        T = build(**params, **({"seed": seed} if seeded else {}))
        if domain_p is not None:
            if len(domain_p) != T.arity:
                raise ValueError(f"this run needs forms of {len(domain_p)} slots, "
                                 f"but the {self.kind} form has arity {T.arity}")
            T = T.with_domain(domain_p)
        return T


def parse_form_spec(text: str) -> FormFactory:
    """Parse ``kind:key=value,...`` by the kind's ``_KINDS`` row (dims as
    AxBxC; ``file:<path>`` is verbatim), refusing a key given twice."""
    head, _, rest = text.partition(":")
    kind, rest = head.strip().lower(), rest.strip()
    if kind not in _KINDS:
        raise ValueError(f"unknown form kind {kind!r}; choose from {sorted(_KINDS)}")
    if kind == "file":
        if not rest:
            raise ValueError("file forms need a path: file:/path/to/tensor.json")
        return FormFactory("file", {"path": rest})
    params, row = {}, _KINDS[kind]
    for item in rest.split(",") if rest else ():
        key, eq, val = (s.strip() for s in item.partition("="))
        if not eq or not val:
            raise ValueError(f"malformed parameter {item!r}; expected key=value")
        if key not in row[1]:
            hint = ("; the dimension comes from --n" if key == row[3] else
                    "; the seed comes from --seed" if key == "seed" and row[4] else "")
            raise ValueError(f"parameter {key!r} does not apply to {kind!r} forms{hint}")
        if key in params:
            raise ValueError(f"parameter {key!r} is given twice")
        try:
            params[key] = (val if key == "scalar" else int(val) if key != "dims"
                           else tuple(int(t) for t in val.split("x")))
        except ValueError:
            shape = "integers joined by x, like 4x8x6" if key == "dims" else "an integer"
            raise ValueError(f"parameter {key!r} must be {shape}, got {val!r}") from None
    if params.keys() >= {"dims", "m"}:
        raise ValueError("dims= fixes the arity and every dimension, so give it without m=")
    for key in row[2]:
        if key not in params:
            raise ValueError(f"{kind} forms need {key}=")
    if kind == "gauss" and not params.keys() & {"dims", "m"}:
        raise ValueError("gauss forms need dims=AxBx... or m= plus a dimension")
    return FormFactory(kind, params)
