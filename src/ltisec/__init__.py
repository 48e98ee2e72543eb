"""Detectability analysis, stealthy-attack synthesis, and windowed detection
for discrete-time linear systems under attack, with side initial-state
information.  Each module's ``__all__`` is the one list of its public names."""

from .analysis import *
from .detector import *
from .errors import *
from .model import *
from .numlin import *
from .scenario import *
from .subspaces import *
from .synthesis import *

__version__ = "0.1.0"
