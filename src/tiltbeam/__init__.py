"""Analytical model of a complementary-source tilted-beam antenna.

A slot (magnetic source, broadside lobe) and a grounded post array
(electric source, null at broadside) share a phase center; weighting the
two far fields tilts the combined beam. The package computes the element
patterns, array factors, the superposition and its metrics, scan behavior
of a phased line of such elements, and the feed line's resonance and loss
budget. The `cli` module exposes every study as a deterministic
CSV/SVG-producing command. The names imported below are the public API.
"""

from .arrayfactor import ArrayLayout, SteeringCommand, array_factor, steered_array_factor
from .circuitmodel import (
    SUBSTRATE_PRESETS,
    LossBudget,
    MicrostripSpec,
    SubstrateSpec,
    characteristic_impedance,
    conductor_attenuation,
    dielectric_attenuation,
    effective_permittivity,
    half_wave_resonance,
    loss_budget,
    plane_wave_attenuation,
    roughness_factor,
    skin_depth,
)
from .config import ConfigError, RunConfig, load_config, parse_config, serialize_config
from .radiators import (
    SPEED_OF_LIGHT,
    CurrentModel,
    FrequencyContext,
    MonopoleSpec,
    SlotSpec,
    default_theta_grid,
    monopole_pattern,
    slot_pattern,
)
from .scanstudy import ScanReport, ScanStudyResult, default_scan_study
from .specfun import ConvergenceError, bessel_j1, integrate_complex
from .svgplot import render_polar_svg
from .synthesis import (
    BAND_CENTER_HZ,
    AntennaGeometry,
    ExcitationWeights,
    PatternCut,
    PatternMetrics,
    RatioSweepResult,
    StabilityResult,
    beam_stability,
    pattern_metrics,
    ratio_sweep,
    synthesize_pattern,
)

__version__ = "0.1.0"
