"""qzeta: exact and certified-numeric verification of linear forms in
q-zeta values, their cyclotomic denominators, asymptotic rates, and the
associated dimension bounds.
"""

from types import ModuleType as _ModuleType

from .upoly import *
from .qcomb import *
from .series import *
from .linform import *
from .asymptotics import *
from .zeta3 import *
from .eisenstein import *

__version__ = "0.1.0"

# the public API is the union of the modules' __all__ lists
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
