"""Reference models: two-band photovoltaic cell, chemical engine/replicator."""

from . import pv, chem
from .pv import *
from .chem import *

__all__ = [*pv.__all__, *chem.__all__]
