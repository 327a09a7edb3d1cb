"""ccflab: Chebyshev centers, farthest points, and CCF/CCNF diagnostics.

The library works with finite point sets in R^n under a closed, declarative
set of norm families.  A set is *CCF* when one of its Chebyshev centers is
also a farthest point of the set from some viewpoint, and *CCNF* otherwise;
the ccf module provides witness verification and sampled scans for these
properties, and the reproductions module packages the benchmark constructions
end to end.  The package namespace is the union of the ``__all__`` lists
of the layer modules norms, sets, solver, ccf and reproductions.
"""

from . import ccf, norms, reproductions, sets, solver
from .ccf import *
from .norms import *
from .reproductions import *
from .sets import *
from .solver import *

__all__ = [*norms.__all__, *sets.__all__, *solver.__all__, *ccf.__all__, *reproductions.__all__]

__version__ = "0.1.0"
