"""Markovian open-system thermodynamics: GKLS generators, heat and work
bookkeeping, slow-drive engine power formulas, and two worked models
(a multi-mode photocell and a driven-oscillator chemical engine)."""

__version__ = "0.1.0"

from . import errors, tolerances, operators, gkls, thermo, engine, models
from .errors import *
from .tolerances import *
from .operators import *
from .gkls import *
from .thermo import *
from .engine import *

__all__ = [
    "__version__",
    *errors.__all__,
    *tolerances.__all__,
    *operators.__all__,
    *gkls.__all__,
    *thermo.__all__,
    *engine.__all__,
    "models",
]
