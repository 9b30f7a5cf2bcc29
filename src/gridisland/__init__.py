"""Controlled islanding of power networks.

Splits a transmission network into a requested number of islands, each
anchored by a reference generator, by choosing which lines to keep so
that generator non-coherency plus load-generation imbalance is small.
A two-step spectral-clustering baseline is included for comparison.
"""

from .netcase import (
    CaseError,
    OperatingPoint,
    PowerNetwork,
    dc_power_flow,
    parse_case,
    serialize_case,
)
from .coherency import CoherencyModel, ModelError, build_model
from .refsel import (
    ReferenceSelection,
    SelectionError,
    select_references_greedy,
    select_references_pivoting,
)
from .metrics import MetricContext, MetricError, build_context
from .islanding import IslandingError, IslandingSolution, solve
from .baseline import BaselineError, two_step_partition

__all__ = [
    "CaseError",
    "CoherencyModel",
    "IslandingError",
    "IslandingSolution",
    "MetricContext",
    "MetricError",
    "ModelError",
    "OperatingPoint",
    "PowerNetwork",
    "ReferenceSelection",
    "SelectionError",
    "BaselineError",
    "build_context",
    "build_model",
    "dc_power_flow",
    "parse_case",
    "select_references_greedy",
    "select_references_pivoting",
    "serialize_case",
    "solve",
    "two_step_partition",
]
