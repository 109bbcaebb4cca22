"""Multifractality and correlation-hierarchy toolkit.

Estimates generalized Hurst exponents and dendrogram depth of multivariate
return panels, and simulates markets driven by a nested multiplicative risk
hierarchy (Gaussian noise x lognormal common volatility x Bernoulli risk
activations along each asset's dendrogram path).
"""

__version__ = "0.1.0"

from hiermf.market_data import PricePanel, ReturnsPanel, WindowSpec
from hiermf.scaling import FbmSpec, GheEstimate, ThresholdCalibration
from hiermf.dependence import CorrelationMatrix, WeightScheme
from hiermf.hierarchy import Dendrogram, TreeNode
from hiermf.dhm import DhmSpec, LogVolSpec, Regime, RiskTree, SimulationOutput

__all__ = [
    "PricePanel",
    "ReturnsPanel",
    "WindowSpec",
    "FbmSpec",
    "GheEstimate",
    "ThresholdCalibration",
    "CorrelationMatrix",
    "WeightScheme",
    "Dendrogram",
    "TreeNode",
    "DhmSpec",
    "LogVolSpec",
    "Regime",
    "RiskTree",
    "SimulationOutput",
    "__version__",
]
