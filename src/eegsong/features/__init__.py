"""Feature extraction: one function per family (spectopo band power, wavedec
wavelet energies, DFA, entropy), each mapping a (..., samples) array to its
named columns, and the assembly of those columns into a dataset."""

from ..config import FEATURE_FAMILIES
from .dataset import (
    Dataset,
    build_feature_matrix,
    read_dataset_csv,
    write_dataset_csv,
)

__all__ = [
    "FEATURE_FAMILIES",
    "Dataset",
    "build_feature_matrix",
    "read_dataset_csv",
    "write_dataset_csv",
]
