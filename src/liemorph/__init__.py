"""Field alignment by Lie-derivative tensor morphing.

The package solves for displacement vector fields that align pairs of
geophysical fields while transporting each field as the tensor type its
governing equation dictates (0-form, 1-form, or 2-form).  The morphing is
demonstrated in a morphed ensemble Kalman filter twin experiment on the
thermal shallow water equations, integrated pseudo-spectrally on a doubly
periodic grid.

The package exports each module's `__all__`; the experiment CLI,
`liemorph.cli_experiments`, is imported on its own.
"""

from .spectral_core import *  # noqa: F401,F403
from .forms import *  # noqa: F401,F403
from .displacement_solver import *  # noqa: F401,F403
from .tsw_model import *  # noqa: F401,F403
from .morph_engine import *  # noqa: F401,F403
from .assimilation import *  # noqa: F401,F403

__version__ = "0.1.0"
