"""Field alignment by Lie-derivative tensor morphing.

The package solves for displacement vector fields that align pairs of
geophysical fields while transporting each field as the tensor type its
governing equation dictates (0-form, 1-form, or 2-form).  The morphing is
demonstrated in a morphed ensemble Kalman filter twin experiment on the
thermal shallow water equations, integrated pseudo-spectrally on a doubly
periodic grid.
"""

from .spectral_core import (
    GridSpec,
    ScalarField,
    coarsen,
    curl_2d,
    divergence,
    domain_integral,
    gradient,
    hou_li_filter,
    hou_li_multiplier,
    inverse_helmholtz,
    refine,
)
from .forms import (
    AnalyticMap,
    DiffForm,
    DisplacementField,
    codifferential,
    exterior_derivative,
    h1_norm,
    hodge_star,
    lie_derivative,
    oneform_to_vector,
    pushforward,
    rotation_map,
    translation_map,
    vector_to_oneform,
)
from .displacement_solver import (
    SolverParams,
    combine_displacements,
    displacement_from_0forms,
    displacement_from_2forms,
    generalized_optical_flow,
)
from .tsw_model import (
    InstabilityError,
    ModelParams,
    TSWState,
    VortexIC,
    ab3_step,
    double_vortex_ic,
    integrate,
    tendency,
    vorticity_of,
)
from .morph_engine import (
    MorphParams,
    MorphTrace,
    conserved_totals,
    field_mse,
    morph_step,
    morph_velocity,
    nudge,
    run_morph,
)
from .assimilation import (
    Ensemble,
    ObsSet,
    enkf_analysis,
    generate_ensemble,
    kalman_gain,
    observe,
)

__version__ = "0.1.0"
