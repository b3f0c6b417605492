"""edsx: exact computer algebra for invariant exterior differential systems.

Everything runs over the fixed real field Q(r2, r3, r5, r7) with exact
rational coefficients; all algorithms are deterministic, so identical
inputs give identical outputs across runs and machines.
"""

from .scalar import Scalar, as_scalar

__version__ = "0.1.0"

__all__ = ["Scalar", "as_scalar", "__version__"]
