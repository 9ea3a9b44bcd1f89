"""Persistence for trained models.

The paper's offline stage runs "only once to characterize a new system"
(Section III); its output must therefore outlive the process that
computed it.  These helpers serialize a trained
:class:`~repro.core.model.AdaptiveModel` — the machine it was trained
on, regression coefficients, clustering, and the full
classification-tree structure — to JSON and back, so the two-hour
offline characterization is paid once per machine and every subsequent
runtime just loads the model.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.classifier import ClusterClassifier, SAMPLE_FEATURE_NAMES
from repro.core.clustering import ClusteringResult
from repro.core.model import AdaptiveModel
from repro.core.regression import ClusterModels, DeviceModels
from repro.hardware.backend import descriptor_for
from repro.hardware.config import Device
from repro.stats.cart import ClassificationTree, TreeNode
from repro.stats.ols import OLSModel

__all__ = ["model_to_json", "model_from_json", "save_model", "load_model"]

#: Version 2 records the machine (``"backend"``); version-1 files, which
#: did not, are rejected.
_VERSION = 2


def _array(a: np.ndarray | None) -> Any:
    return None if a is None else np.asarray(a).tolist()


def _ols_to_dict(m: OLSModel) -> dict[str, Any]:
    return {
        "coef": _array(m.coef),
        "intercept": m.intercept,
        "r_squared": m.r_squared,
        "std_errors": _array(m.std_errors),
        "n_obs": m.n_obs,
        "rank": m.rank,
        "feature_names": list(m.feature_names),
        "sigma2": None if np.isnan(m.sigma2) else m.sigma2,
        "xtx_pinv": _array(m.xtx_pinv),
    }


def _ols_from_dict(d: dict[str, Any]) -> OLSModel:
    return OLSModel(
        coef=np.asarray(d["coef"], dtype=float),
        intercept=bool(d["intercept"]),
        r_squared=float(d["r_squared"]),
        std_errors=np.asarray(d["std_errors"], dtype=float),
        n_obs=int(d["n_obs"]),
        rank=int(d["rank"]),
        feature_names=tuple(d["feature_names"]),
        sigma2=float("nan") if d["sigma2"] is None else float(d["sigma2"]),
        xtx_pinv=(
            None
            if d["xtx_pinv"] is None
            else np.asarray(d["xtx_pinv"], dtype=float)
        ),
    )


def _device_models_to_dict(m: DeviceModels) -> dict[str, Any]:
    return {
        "device": m.device.value,
        "perf_ratio": _ols_to_dict(m.perf_ratio),
        "power": _ols_to_dict(m.power),
        "transform": m.transform,
        "power_anchor": m.power_anchor,
    }


def _device_models_from_dict(d: dict[str, Any]) -> DeviceModels:
    return DeviceModels(
        device=Device(d["device"]),
        perf_ratio=_ols_from_dict(d["perf_ratio"]),
        power=_ols_from_dict(d["power"]),
        transform=d["transform"],
        power_anchor=bool(d["power_anchor"]),
    )


def _tree_node_to_dict(node: TreeNode) -> dict[str, Any]:
    d: dict[str, Any] = {
        "depth": node.depth,
        "n_samples": node.n_samples,
        "class_counts": _array(node.class_counts),
        "prediction": node.prediction,
    }
    if not node.is_leaf:
        d["feature"] = node.feature
        d["threshold"] = node.threshold
        d["left"] = _tree_node_to_dict(node.left)
        d["right"] = _tree_node_to_dict(node.right)
    return d


def _tree_node_from_dict(d: dict[str, Any]) -> TreeNode:
    node = TreeNode(
        depth=int(d["depth"]),
        n_samples=int(d["n_samples"]),
        class_counts=np.asarray(d["class_counts"]),
        prediction=int(d["prediction"]),
    )
    if "feature" in d:
        node.feature = int(d["feature"])
        node.threshold = float(d["threshold"])
        node.left = _tree_node_from_dict(d["left"])
        node.right = _tree_node_from_dict(d["right"])
    return node


def _classifier_to_dict(c: ClusterClassifier) -> dict[str, Any]:
    tree = c.tree
    return {
        "max_depth": c.max_depth,
        "min_samples_leaf": c.min_samples_leaf,
        "classes": _array(tree.classes_),
        "n_features": tree._n_features,
        "root": _tree_node_to_dict(tree.root),
    }


def _classifier_from_dict(d: dict[str, Any]) -> ClusterClassifier:
    clf = ClusterClassifier(
        max_depth=int(d["max_depth"]),
        min_samples_leaf=int(d["min_samples_leaf"]),
    )
    tree = ClassificationTree(
        max_depth=int(d["max_depth"]),
        min_samples_leaf=int(d["min_samples_leaf"]),
        feature_names=SAMPLE_FEATURE_NAMES,
    )
    tree.classes_ = np.asarray(d["classes"])
    tree._n_classes = tree.classes_.shape[0]
    tree._n_features = int(d["n_features"])
    tree.root = _tree_node_from_dict(d["root"])
    clf._tree = tree
    return clf


def model_to_json(model: AdaptiveModel) -> str:
    """Serialize a trained model to a JSON string."""
    payload = {
        "version": _VERSION,
        "backend": model.config_space.descriptor.name,
        "clustering": {
            "labels": dict(model.clustering.labels),
            "n_clusters": model.clustering.n_clusters,
            "silhouette": (
                None
                if np.isnan(model.clustering.silhouette)
                else model.clustering.silhouette
            ),
            "medoid_uids": list(model.clustering.medoid_uids),
            # PAM is the only clusterer; the key keeps the file format.
            "method": "pam",
        },
        "cluster_models": {
            str(cid): {
                "cpu": _device_models_to_dict(cm.cpu),
                "gpu": _device_models_to_dict(cm.gpu),
            }
            for cid, cm in model.cluster_models.items()
        },
        "classifier": _classifier_to_dict(model.classifier),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def model_from_json(text: str) -> AdaptiveModel:
    """Rebuild a trained model from :func:`model_to_json` output."""
    data = json.loads(text)
    if data.get("version") != _VERSION:
        raise ValueError(
            f"unsupported model version: {data.get('version')!r} "
            f"(this build reads version {_VERSION})"
        )
    clus = data["clustering"]
    clustering = ClusteringResult(
        labels={k: int(v) for k, v in clus["labels"].items()},
        n_clusters=int(clus["n_clusters"]),
        silhouette=(
            float("nan") if clus["silhouette"] is None else float(clus["silhouette"])
        ),
        medoid_uids=tuple(clus["medoid_uids"]),
    )
    cluster_models = {
        int(cid): ClusterModels(
            cpu=_device_models_from_dict(cm["cpu"]),
            gpu=_device_models_from_dict(cm["gpu"]),
        )
        for cid, cm in data["cluster_models"].items()
    }
    return AdaptiveModel(
        clustering=clustering,
        cluster_models=cluster_models,
        classifier=_classifier_from_dict(data["classifier"]),
        config_space=descriptor_for(data["backend"]).config_space(),
    )


def save_model(model: AdaptiveModel, path: str | Path) -> None:
    """Write a trained model to a JSON file."""
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> AdaptiveModel:
    """Load a trained model from a JSON file."""
    return model_from_json(Path(path).read_text(encoding="utf-8"))
