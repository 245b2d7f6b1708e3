"""Exact evaluation and reduction of ordered multiple sums.

Everything numeric is a ``fractions.Fraction`` (or a rational multiple of a
power of pi for the even zeta layer); floating point appears only in the
tail-trend probe and decimals only in the display helper, never in an
identity check.

The public API is the union of the compute modules' ``__all__``s; the
``acceptance`` and ``cli`` modules are imported on demand.
"""

from __future__ import annotations

from . import core, exact_arith, identities, partitions, polynomials, special_sums
from .core import *
from .exact_arith import *
from .identities import *
from .partitions import *
from .polynomials import *
from .special_sums import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *exact_arith.__all__,
    *identities.__all__,
    *partitions.__all__,
    *polynomials.__all__,
    *special_sums.__all__,
]
