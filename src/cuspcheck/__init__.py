"""Partition calculus and cuspidality criteria for Arthur packets of Sp(2n).

The package decides, from published combinatorial criteria, when a global
Arthur packet of a symplectic group provably contains no cuspidal members.
Everything is exact integer/rational arithmetic; see the README for the
command-line interface.  The public names are the union of the modules'
``__all__`` lists.
"""

from . import arthur, engine, errors, partitions, satake, smallrep
from .errors import *
from .partitions import *
from .arthur import *
from .engine import *
from .satake import *
from .smallrep import *

__version__ = "0.1.0"

__all__: list[str] = []
__all__ += errors.__all__
__all__ += partitions.__all__
__all__ += arthur.__all__
__all__ += engine.__all__
__all__ += satake.__all__
__all__ += smallrep.__all__
