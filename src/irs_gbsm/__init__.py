"""Non-stationary geometry-based stochastic channel model for IRS-assisted MIMO."""

import logging as _logging
import os as _os
import sys as _sys

# Ensembles run one worker process per core, so BLAS gets one thread per
# process unless the user chose otherwise.  Must run before numpy is imported:
# numpy imported first has already started BLAS with one thread per core.
if ("numpy" in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ
        and "MKL_NUM_THREADS" not in _os.environ):
    _logging.getLogger("irs_gbsm").warning(
        "numpy was imported before irs_gbsm, so BLAS keeps one thread per core in "
        "every worker process and pooled ensembles (threads > 1) oversubscribe the "
        "cores; import irs_gbsm first or set OPENBLAS_NUM_THREADS=1 before numpy "
        "is imported")
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_os.environ.setdefault("MKL_NUM_THREADS", "1")

# defined before the submodules are imported: the run manifest records it
__version__ = "0.1.0"

from .assembly import EndToEndChannel, apply_steering, cascade, phase_model_for
from .clusters import (
    ClusterPair,
    ClusterRealization,
    ClusterSet,
    VisibilityTensor,
    evolve_visibility,
    generate_cluster_pairs,
    realize_subchannel,
    realize_subchannels,
)
from .config import ConfigError, ScenarioConfig, parse_config, serialize_config
from .geometry import (
    RotationAngles,
    SceneGeometry,
    TerminalLayout,
    element_offset,
    flatten_index,
    gcs_to_lcs,
    lcs_to_gcs,
    rotation_matrix,
    unflatten_index,
)
from .irs import (
    IrsPhaseModel,
    PhasePlan,
    SteeringVector,
    cascaded_path_loss,
    optimal_phase,
    quantize_phase,
    received_power,
    steering_vector,
)
from .largescale import LargeScaleParams, path_loss_bu_db, sample_shadow_fading
from .rng import rng_stream
from .smallscale import (
    RayTap,
    SubchannelCIR,
    compose_cir,
    los_delay,
    nlos_cir,
    subchannel_cir,
    transfer_function,
    transfer_values,
)
from .stats import (
    CorrelationCurve,
    acf_analytical_subchannel,
    acf_full_irs,
    acf_single_irs_element,
    acf_subchannel,
    ccf_spatial,
    doppler_frequency,
    ds_cdf,
    local_doppler_spread,
    rms_delay_spread,
)

__all__ = [name for name in dir() if not name.startswith("_")]
