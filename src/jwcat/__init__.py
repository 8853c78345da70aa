"""Exact-arithmetic engine for graded path-algebra homological algebra:
two categorified degree-two projectors and the duality functor relating
them, verified mechanically on objects, morphisms, and Grothendieck classes.
A class is one ``TruncatedSeries`` per vertex, exact on its window.
"""

from .linalg import Matrix
from .series import NoInverseError, TruncatedSeries, WindowError

__all__ = ["Matrix", "TruncatedSeries", "WindowError", "NoInverseError",
           "__version__"]

__version__ = "0.1.0"
