"""aucal: audit, quantify, and mitigate annotation bias in AU-labeled
expression datasets."""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    AuCellKey,
    CsvSchema,
    Dataset,
    binarize,
    load_dataset,
    save_dataset,
)
from .rng import Rng  # noqa: F401
