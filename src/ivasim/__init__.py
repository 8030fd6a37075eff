"""OFDM-ISAC inverse-virtual-aperture imaging simulator.

Synthesizes the monostatic MIMO-OFDM sensing chain for a moving extended
vehicular target, applies translational motion compensation, forms
range-Doppler (cross-range) images, and evaluates image contrast and
target-centroid range RMSE as functions of the sensing subcarrier fraction.
"""

from .errors import (
    ConfigurationError,
    DataError,
    GeometryError,
    SimulationError,
    SynthesisError,
)
from .harness import RunConfig, SimOptions, SweepSpec, load_run_config, run_sweep, run_trial, trial_seed
from .imaging import RangeDopplerImage, form_image
from .metrics import (
    CropWindow,
    MetricsReport,
    aggregate,
    centroid_range,
    image_contrast,
    make_crop_window,
    threshold_image,
)
from .scenario import DerivedParams, ScenarioConfig, derive, load_config
from .target import (
    ExtendedTarget,
    KinematicSnapshot,
    TrajectoryState,
    centroid_kinematics,
    cross_range_resolution,
    default_vehicle,
    exact_range,
    scatterer_positions,
)
from .tmc import AlignmentResult, RangeProfileSet

__version__ = "0.1.0"
