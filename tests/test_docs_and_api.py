"""Documentation and public-API integrity checks.

Keeps the docs honest: every file path referenced in the markdown docs
must exist, every experiment promised in DESIGN.md's index must have its
benchmark, and every name exported via ``__all__`` must resolve.
"""

import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.cluster",
    "repro.core",
    "repro.evaluation",
    "repro.hardware",
    "repro.methods",
    "repro.profiling",
    "repro.runtime",
    "repro.server",
    "repro.stats",
    "repro.telemetry",
    "repro.workloads",
]

MODULES = [
    "repro.cli",
    "repro.constants",
    "repro.cluster.allocation",
    "repro.cluster.manager",
    "repro.cluster.node",
    "repro.cluster.pool",
    "repro.cluster.tree",
    "repro.core.characterization",
    "repro.core.classifier",
    "repro.core.clustering",
    "repro.core.dissimilarity",
    "repro.core.features",
    "repro.core.frontier",
    "repro.core.io",
    "repro.core.model",
    "repro.core.predictor",
    "repro.core.regression",
    "repro.core.scheduler",
    "repro.evaluation.accuracy",
    "repro.evaluation.experiments",
    "repro.evaluation.harness",
    "repro.evaluation.loocv",
    "repro.evaluation.metrics",
    "repro.evaluation.reporting",
    "repro.evaluation.sensitivity",
    "repro.hardware.apu",
    "repro.hardware.config",
    "repro.hardware.counters",
    "repro.hardware.hybrid",
    "repro.hardware.kernelmodel",
    "repro.hardware.noise",
    "repro.hardware.power",
    "repro.hardware.presets",
    "repro.hardware.pstates",
    "repro.hardware.rapl",
    "repro.hardware.thermal",
    "repro.methods.base",
    "repro.methods.freq_limit",
    "repro.methods.model_method",
    "repro.methods.oracle",
    "repro.methods.search",
    "repro.profiling.library",
    "repro.profiling.records",
    "repro.profiling.sampler",
    "repro.runtime.adaptive",
    "repro.runtime.application",
    "repro.runtime.energy",
    "repro.runtime.trace",
    "repro.server.batching",
    "repro.server.config",
    "repro.server.engine",
    "repro.server.loadgen",
    "repro.server.service",
    "repro.stats.cart",
    "repro.stats.kendall",
    "repro.stats.kmedoids",
    "repro.stats.ols",
    "repro.telemetry.logs",
    "repro.telemetry.registry",
    "repro.telemetry.report",
    "repro.telemetry.spans",
    "repro.workloads.comd",
    "repro.workloads.families",
    "repro.workloads.kernel",
    "repro.workloads.lu",
    "repro.workloads.lulesh",
    "repro.workloads.microbench",
    "repro.workloads.smc",
    "repro.workloads.suite",
]


class TestPublicAPI:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_all_exports_resolve(self, name):
        mod = importlib.import_module(name)
        assert hasattr(mod, "__all__"), f"{name} lacks __all__"
        for symbol in mod.__all__:
            assert hasattr(mod, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", MODULES)
    def test_module_importable_and_documented(self, name):
        mod = importlib.import_module(name)
        assert mod.__doc__, f"{name} lacks a module docstring"


#: Top-level markdown that describes the code as it stands. The other
#: top-level documents (change log, roadmap, plans) may name what no
#: longer, or does not yet, exist.
TOP_LEVEL_DOCS = ["DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md",
                  "README.md", "SNIPPETS.md"]
DOCS = sorted(
    TOP_LEVEL_DOCS
    + [
        str(p.relative_to(REPO))
        for p in REPO.glob("*/**/*.md")
        if not any(part.startswith(".") for part in p.relative_to(REPO).parts)
    ]
)


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute path inside
    the longest importable module prefix (a class's last step may be an
    annotated field, such as a dataclass field without a default)."""
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        *path, last = parts[i:] or [None]
        try:
            for attr in path:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return last is None or hasattr(obj, last) or (
            isinstance(obj, type) and last in getattr(obj, "__annotations__", {})
        )
    return False


class TestDocIntegrity:
    @pytest.mark.parametrize("doc", DOCS)
    def test_quoted_repro_names_resolve(self, doc):
        text = (REPO / doc).read_text(encoding="utf-8")
        names = {
            name
            for span in re.findall(r"`([^`\n]+)`", text)
            for name in re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", span)
        }
        missing = sorted(name for name in names if not _resolves(name))
        assert not missing, f"{doc} quotes names that do not resolve: {missing}"

    @pytest.mark.parametrize("doc", DOCS)
    def test_quoted_src_paths_resolve(self, doc):
        """Every quoted ``src/…`` path exists, and every ``src/…::name``
        names an attribute of that module."""
        text = (REPO / doc).read_text(encoding="utf-8")
        missing = []
        for path, name in re.findall(r"`(src/[\w./-]*)(?:::([\w.]+))?(?::\d+)?`", text):
            if not (REPO / path).exists():
                missing.append(path)
            elif name:
                module = path.removeprefix("src/").removesuffix(".py").replace("/", ".")
                if not _resolves(f"{module}.{name}"):
                    missing.append(f"{path}::{name}")
        assert not missing, f"{doc} quotes src/ paths that do not resolve: {missing}"

    def _referenced_paths(self, markdown: str) -> set[str]:
        """File paths mentioned in backticks or markdown links."""
        paths = set()
        for match in re.findall(r"`([\w./-]+\.(?:py|md|json|txt|toml))`", markdown):
            paths.add(match)
        for match in re.findall(r"\]\(([\w./-]+\.md)\)", markdown):
            paths.add(match)
        return paths

    @pytest.mark.parametrize("doc", DOCS)
    def test_referenced_files_exist(self, doc):
        doc_path = REPO / doc
        text = doc_path.read_text(encoding="utf-8")
        missing = []
        for ref in self._referenced_paths(text):
            if ref.startswith(("model.json", "m.json", "artifacts",
                               "telemetry.json", "monitor.json",
                               "slos.json", "before.json", "after.json")):
                continue  # illustrative output paths, not repo files
            if ref.startswith("/"):
                continue  # HTTP endpoint paths (e.g. `/monitor.json`)
            candidates = [
                REPO / ref,
                doc_path.parent / ref,
                REPO / "benchmarks" / ref,
                REPO / "src" / ref,
                REPO / "src" / "repro" / ref,
            ]
            # Bare module files referenced by stem (e.g. `suite.py`).
            if "/" not in ref:
                candidates.extend(REPO.rglob(ref))
            if not any(p.exists() for p in candidates):
                missing.append(ref)
        assert not missing, f"{doc} references missing files: {missing}"

    def test_design_experiment_index_benchmarks_exist(self):
        text = (REPO / "DESIGN.md").read_text(encoding="utf-8")
        for name in re.findall(r"benchmarks/(test_bench_\w+\.py)", text):
            assert (REPO / "benchmarks" / name).exists(), name

    def test_every_benchmark_is_indexed_somewhere(self):
        """Each benchmark file appears in DESIGN.md or EXPERIMENTS.md."""
        docs = (REPO / "DESIGN.md").read_text() + (
            REPO / "EXPERIMENTS.md"
        ).read_text()
        for path in (REPO / "benchmarks").glob("test_bench_*.py"):
            assert path.name in docs, f"{path.name} not documented"
