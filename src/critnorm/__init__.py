"""Numerical verification of critical mixed-norm inequalities for
multilinear forms on finite-dimensional l_p spaces.

Exact exponent arithmetic lives in critnorm.exponents, form containers and
mixed norms in critnorm.tensor, operator and weak norms in critnorm.opnorm,
canonical test forms in critnorm.witnesses, and the reporting experiment
runner in critnorm.harness.  The package exports each module's ``__all__``.
"""

from . import exponents, harness, opnorm, rng, tensor, witnesses
from .exponents import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .opnorm import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .tensor import *  # noqa: F401,F403
from .witnesses import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*exponents.__all__, *harness.__all__, *opnorm.__all__, *rng.__all__,
           *tensor.__all__, *witnesses.__all__, "__version__"]
