"""Exact computation in the Temperley-Lieb monoid TL_n and its twisted algebra.

Diagram arithmetic on non-crossing perfect matchings, two monoid
presentations with machine-checkable rewriting certificates, the twisted
semigroup algebra over exact rationals, and an exhaustive small-degree
verification harness.  Each module's `__all__` is its public API, and the
package re-exports every one of them.
"""

from .errors import *
from .tuples import *
from .tangles import *
from .words import *
from .relations import *
from .rewrite import *
from .etranslate import *
from .algebra import *
from .verify import *

__version__ = "0.1.0"
