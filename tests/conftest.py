from pathlib import Path

import numpy as np
import pytest

from hiermf.dependence import CorrelationMatrix, one_factor_correlation  # noqa: F401 - tests import it from here
from hiermf.hierarchy import parse_dendrogram, tree_from_leaf_depths

DATA_DIR = Path(__file__).parent / "data"

# 25 assets whose hierarchical orders cover 3..8 (Kraft sum is exactly 1)
PROFILE_DEPTHS = [3] * 3 + [4] * 5 + [5] * 6 + [6] * 6 + [7] * 3 + [8] * 2
PROFILE_LABELS = [f"s{i:02d}" for i in range(25)]


@pytest.fixture(scope="session")
def example_tree_path() -> Path:
    return DATA_DIR / "example_tree.json"


@pytest.fixture(scope="session")
def example_tree(example_tree_path):
    return parse_dendrogram(example_tree_path)


@pytest.fixture(scope="session")
def profile_tree():
    return tree_from_leaf_depths(PROFILE_DEPTHS, PROFILE_LABELS)


def equicorrelation(labels, rho=0.3) -> CorrelationMatrix:
    n = len(labels)
    values = np.full((n, n), rho)
    np.fill_diagonal(values, 1.0)
    return CorrelationMatrix(assets=tuple(labels), values=values)
