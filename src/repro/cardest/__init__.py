"""Cardinality estimators: traditional (optimizer), data-driven (DeepDB-style),
and exact (executor oracle), plus plan annotation helpers."""

from .base import CardinalityEstimator
from .traditional import TraditionalEstimator
from .exact import ExactEstimator
from .spn import SPN, learn_spn, predicate_to_constraints, UnsupportedPredicate
from .datadriven import DataDrivenEstimator, spn_input_arrays
from .annotate import annotate_cardinalities, CARD_SOURCES

__all__ = [
    "CardinalityEstimator", "TraditionalEstimator", "ExactEstimator",
    "SPN", "learn_spn", "spn_input_arrays", "predicate_to_constraints",
    "UnsupportedPredicate",
    "DataDrivenEstimator", "annotate_cardinalities", "CARD_SOURCES",
]
