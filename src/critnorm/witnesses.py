"""Constructors for extremal and random test forms, plus the form-spec parser.

The diagonal family and its pinned variants attain the critical mixed-norm
bound on the l_m domain, so they carry closed-form operator norms as
metadata.  Random sign and Gaussian forms draw from child streams of an
explicit seed and are reproducible.  ``parse_form_spec`` turns compact specs
like ``"partial:m=3,n=8,r=1"`` into factories whose dimension and seed can be
filled in later by an experiment sweep.
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

    The form keeps its n unit entries (j, ..., j) with the pinned indices 0,
    so building it and taking its mixed norms cost O(m n); its dense n^m
    tensor is built only if ``coeffs`` is read.
    """
    if m < 2:
        raise ValueError(f"arity must be >= 2, got {m}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= r <= m - 2:
        raise ValueError(f"pinned slots must satisfy 0 <= r <= m-2, got r = {r}")
    index = (np.zeros(n, dtype=int),) * r + (np.arange(n),) * (m - r)
    return MultilinearForm._from_support((n,) * m, index, np.ones(n),
                                         analytic_norm=float(n) ** (r / m))


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


_KINDS = {
    "dot": {"m", "n"},
    "partial": {"m", "n", "r"},
    "t0": {"n1", "n2"},
    "sign": {"m", "n", "seed"},
    "gauss": {"dims", "m", "n", "seed", "scalar"},
    "file": {"path"},
}


@dataclass(frozen=True)
class FormFactory:
    """A parsed form spec; ``make`` builds a concrete form.

    ``takes_n`` and ``takes_seed`` state what a spec leaves free.  A spec
    that pins its dimensions refuses an ``n`` passed to ``make``; a seed
    pinned in the spec wins over a passed one, and a seedless kind ignores
    it.  So a spec with no free seed denotes one form per dimension, while a
    random one denotes a family (the harness fills n per sweep point and a
    child seed per trial).
    """

    kind: str
    params: dict = field(default_factory=dict)

    @property
    def takes_n(self) -> bool:
        """Whether ``make`` reads its ``n``: the spec pins no dimension."""
        if self.kind == "file" or "dims" in self.params:
            return False
        return ("n2" if self.kind == "t0" else "n") not in self.params

    @property
    def takes_seed(self) -> bool:
        """Whether ``make`` reads its ``seed``: a random kind with no seed pinned."""
        return self.kind in ("sign", "gauss") and "seed" not in self.params

    def make(self, n=None, seed=None, domain_p=None) -> MultilinearForm:
        P = self.params
        k = self.kind
        if n is not None and not self.takes_n:
            raise ValueError(f"the {k} form spec fixes its dimensions, "
                             f"so a separate n = {n} cannot apply")
        if k == "file":
            T = load_tensor(P["path"])
        elif k == "dot":
            T = make_dot(P["m"], self._dim(P.get("n"), n))
        elif k == "partial":
            T = make_partial_dot(P["m"], self._dim(P.get("n"), n), P["r"])
        elif k == "t0":
            T = make_t0(P["n1"], self._dim(P.get("n2"), n))
        elif k == "sign":
            T = make_sign_random(P["m"], self._dim(P.get("n"), n), self._seed(P, seed))
        elif k == "gauss":
            dims = P.get("dims")
            if dims is None:
                if "m" not in P:
                    raise ValueError("gauss forms need dims=AxBx... or m= plus a dimension")
                dims = (self._dim(P.get("n"), n),) * P["m"]
            T = make_gaussian_random(dims, self._seed(P, seed), P.get("scalar", "real"))
        else:
            raise ValueError(f"unknown form kind {self.kind!r}")
        if domain_p is not None:
            T = T.with_domain(domain_p)
        return T

    @staticmethod
    def _dim(pinned, n):
        if pinned is not None:
            return int(pinned)
        if n is not None:
            return int(n)
        raise ValueError("a dimension is required (pin n in the spec or pass one)")

    @staticmethod
    def _seed(params, seed):
        if "seed" in params:
            return params["seed"]
        if seed is not None:
            return seed
        raise ValueError("a seed is required for random forms")


def parse_form_spec(text: str) -> FormFactory:
    """Parse ``kind:key=value,...`` (dims as AxBxC; ``file:<path>`` is verbatim)."""
    head, _, rest = text.partition(":")
    kind = head.strip().lower()
    if kind not in _KINDS:
        raise ValueError(f"unknown form kind {kind!r}; choose from {sorted(_KINDS)}")
    if kind == "file":
        path = rest.strip()
        if not path:
            raise ValueError("file forms need a path: file:/path/to/tensor.json")
        return FormFactory("file", {"path": path})
    params: dict = {}
    rest = rest.strip()
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key, val = key.strip(), val.strip()
            if not eq or not val:
                raise ValueError(f"malformed parameter {item!r}; expected key=value")
            if key not in _KINDS[kind]:
                raise ValueError(f"parameter {key!r} does not apply to {kind!r} forms")
            if key == "dims":
                params[key] = tuple(int(t) for t in val.split("x"))
            elif key == "scalar":
                params[key] = val
            else:
                params[key] = int(val)
    if kind in ("dot", "partial", "sign") and "m" not in params:
        raise ValueError(f"{kind} forms need m=")
    if kind == "partial" and "r" not in params:
        raise ValueError("partial forms need r=")
    if kind == "t0" and "n1" not in params:
        raise ValueError("t0 forms need n1=")
    return FormFactory(kind, params)
