"""From-scratch statistical-learning substrate.

The paper's modeling pipeline was built on R 3.0.1: multivariate linear
regression (``lm``), relational clustering on a dissimilarity matrix (the
Fossil package), and a CART classification tree (``rpart``).  None of those
are available in this offline environment, so this subpackage provides
faithful NumPy implementations of each building block:

``ols``
    Multivariate ordinary least squares with optional intercept,
    coefficient standard errors, and :math:`R^2` — fit from design
    matrices (:func:`~repro.stats.ols.fit_ols`) or from additive
    sufficient statistics
    (:class:`~repro.stats.ols.GramStats`,
    :func:`~repro.stats.ols.fit_ols_from_gram`).
``kendall``
    Kendall rank correlation (tau-a and tau-b) used to compare the
    orderings of shared configurations on two Pareto frontiers.
``kmedoids``
    Partitioning Around Medoids (PAM) operating directly on a
    dissimilarity matrix — i.e. *relational* clustering — plus silhouette
    scoring of the result.
``cart``
    A CART classification tree (Gini impurity) with a printable structure
    mirroring the paper's Figure 3.

All estimators are deterministic given their inputs (PAM's BUILD phase is
deterministic; optional random restarts take an explicit seed).
"""

from repro.stats.cart import ClassificationTree, TreeNode
from repro.stats.kendall import kendall_tau
from repro.stats.kmedoids import KMedoidsResult, pam, silhouette_score
from repro.stats.ols import GramStats, OLSModel, fit_ols, fit_ols_from_gram

__all__ = [
    "ClassificationTree",
    "GramStats",
    "KMedoidsResult",
    "OLSModel",
    "TreeNode",
    "fit_ols",
    "fit_ols_from_gram",
    "kendall_tau",
    "pam",
    "silhouette_score",
]
