"""Packaging and public-API integrity checks.

These meta-tests catch the drift that code review misses: `__all__`
entries that do not exist, documented examples that were renamed, and
version mismatches between the package and its metadata.
"""

import importlib
import pathlib

import pytest

import repro

REPO_ROOT = pathlib.Path(repro.__file__).resolve().parents[2]

PACKAGES = [
    "repro",
    "repro.core",
    "repro.simulator",
    "repro.schedulers",
    "repro.workload",
    "repro.metrics",
    "repro.analysis",
    "repro.experiments",
    "repro.sites",
]


class TestPublicApi:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_entries_exist(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.__all__ lists missing {name}"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_has_no_duplicates(self, package_name):
        package = importlib.import_module(package_name)
        names = list(getattr(package, "__all__", []))
        assert len(names) == len(set(names))

    def test_version_consistent_with_pyproject(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in pyproject

    def test_paper_policy_names_resolve(self):
        for name in repro.PAPER_POLICY_NAMES:
            assert repro.policy_from_spec(name).name == name


class TestRepositoryLayout:
    def test_documented_examples_exist(self):
        readme = (REPO_ROOT / "README.md").read_text()
        examples_dir = REPO_ROOT / "examples"
        for script in examples_dir.glob("*.py"):
            assert script.name in readme, f"{script.name} missing from README"

    def test_required_documents_present(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "CONTRIBUTING.md"):
            assert (REPO_ROOT / name).exists(), name

    def test_every_bench_is_referenced_in_design_or_experiments(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        combined = design + experiments
        for bench in (REPO_ROOT / "benchmarks").glob("bench_*.py"):
            if bench.name in ("bench_engine_throughput.py",):
                continue  # engine microbenchmark, not a paper artifact
            assert (
                bench.name in combined or bench.stem in combined
                or "bench_ablation_" in bench.name
            ), f"{bench.name} not documented"

    def test_source_modules_have_docstrings(self):
        for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
            if path.name == "__main__.py":
                continue
            first = path.read_text().lstrip()
            assert first.startswith('"""') or first.startswith("'''"), (
                f"{path} lacks a module docstring"
            )

    def test_py_typed_marker_present(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
