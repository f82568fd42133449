"""Feature extraction: spectral band power, wavelet energies, DFA, entropy
and dataset assembly."""

from .dataset import (
    FEATURE_FAMILIES,
    Dataset,
    build_feature_matrix,
    read_dataset_csv,
    write_dataset_csv,
)
from .dfa import DegenerateFluctuationsError, DfaResult, default_box_sizes, dfa
from .entropy import ENTROPY_EPS, EntropyPair, entropy_features
from .spectral import (
    EEG_BANDS,
    BandDefinition,
    BandPowerSet,
    spectopo_bandpower,
    welch_psd,
)
from .wavelet import (
    DB8_HIGHPASS,
    DB8_LOWPASS,
    WaveletCoefficients,
    WaveletEnergy,
    dwt_multilevel,
    idwt_multilevel,
    wavedec_bandpower,
    wavedec_levels,
)

__all__ = [
    "FEATURE_FAMILIES",
    "Dataset",
    "build_feature_matrix",
    "read_dataset_csv",
    "write_dataset_csv",
    "DegenerateFluctuationsError",
    "DfaResult",
    "default_box_sizes",
    "dfa",
    "ENTROPY_EPS",
    "EntropyPair",
    "entropy_features",
    "EEG_BANDS",
    "BandDefinition",
    "BandPowerSet",
    "spectopo_bandpower",
    "welch_psd",
    "DB8_HIGHPASS",
    "DB8_LOWPASS",
    "WaveletCoefficients",
    "WaveletEnergy",
    "dwt_multilevel",
    "idwt_multilevel",
    "wavedec_bandpower",
    "wavedec_levels",
]
