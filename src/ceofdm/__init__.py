"""Constant-envelope OFDM waveform design with GISL sidelobe shaping."""

from .waveform import (
    TWO_PI,
    WaveformConfig,
    compute_modulation_index,
    lfm_equivalent_tbp,
    random_psk,
    sample_frequency,
    sample_phase,
    synthesize,
)
from .metrics import (
    CorrelationResult,
    GislWeights,
    build_weights,
    compute_acf,
    compute_af,
    compute_gisl,
    compute_pslr,
    db,
    detect_mainlobe_null,
)
from .gradient import GradientWorkspace
from .optimizer import (
    OptimizerConfig,
    run_gd_gisl,
)
from .quantize import (
    degradation_sweep,
    quantize_psk,
    wrap_to_pi,
)

__version__ = "0.1.0"

__all__ = [
    "TWO_PI",
    "WaveformConfig",
    "CorrelationResult",
    "GislWeights",
    "OptimizerConfig",
    "GradientWorkspace",
    "compute_modulation_index",
    "lfm_equivalent_tbp",
    "sample_phase",
    "sample_frequency",
    "synthesize",
    "random_psk",
    "compute_acf",
    "compute_af",
    "detect_mainlobe_null",
    "build_weights",
    "compute_gisl",
    "compute_pslr",
    "db",
    "run_gd_gisl",
    "quantize_psk",
    "wrap_to_pi",
    "degradation_sweep",
]
