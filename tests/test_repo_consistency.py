"""Repository-consistency meta-tests.

Keeps the documentation deliverables honest: every experiment id DESIGN.md
promises must have its benchmark file, every ``__all__`` export must
resolve, and the example scripts the README advertises must exist.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]


class TestPublicApi:
    def test_every_dunder_all_name_resolves(self):
        broken = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            for name in getattr(module, "__all__", []):
                if not hasattr(module, name):
                    broken.append(f"{info.name}.{name}")
        assert broken == [], f"__all__ names that do not resolve: {broken}"

    def test_top_level_exports(self):
        from repro import AIMS, AIMSConfig  # noqa: F401

        assert repro.__version__

    def test_subpackages_importable(self):
        for sub in (
            "core", "streams", "sensors", "wavelets", "acquisition",
            "storage", "query", "online", "analysis", "obs", "faults",
        ):
            importlib.import_module(f"repro.{sub}")


class TestDesignDocSync:
    def test_every_bench_target_exists(self):
        design = (ROOT / "DESIGN.md").read_text()
        targets = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        assert targets, "DESIGN.md lists no bench targets?"
        missing = [
            t for t in targets if not (ROOT / "benchmarks" / t).exists()
        ]
        assert missing == [], f"DESIGN.md references missing benches: {missing}"

    def test_every_bench_file_is_indexed(self):
        design = (ROOT / "DESIGN.md").read_text()
        on_disk = {
            p.name for p in (ROOT / "benchmarks").glob("bench_*.py")
        }
        indexed = set(re.findall(r"benchmarks/(bench_\w+\.py)", design))
        unindexed = sorted(on_disk - indexed)
        assert unindexed == [], (
            f"benches missing from DESIGN.md's index: {unindexed}"
        )

    def test_experiments_doc_covers_all_eids(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for eid in [f"E{k}" for k in range(1, 13)]:
            assert f"| {eid} " in experiments, (
                f"EXPERIMENTS.md has no row for {eid}"
            )

    def test_readme_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for script in re.findall(r"examples/(\w+\.py)", readme):
            assert (ROOT / "examples" / script).exists(), (
                f"README advertises missing example {script}"
            )

    def test_required_docs_present(self):
        for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                    "docs/ARCHITECTURE.md", "examples/README.md"):
            path = ROOT / doc
            assert path.exists() and path.stat().st_size > 500, (
                f"{doc} missing or suspiciously small"
            )

class TestDeviceStackDiscipline:
    """No module may hand-wire storage middleware around the validated
    builder: every stack in ``src/`` must come from ``DeviceStack`` /
    ``StorageSpec``.

    Since PR 5 these are thin wrappers over the ``repro.lint`` rule
    packs (which replaced the grep-based checks that lived here): the
    rules carry the allow-lists, these tests keep their historical names
    and pin the contracts into the tier-1 suite.
    """

    def _findings(self, rule_id):
        from repro.lint import get_rule, lint_repo

        return lint_repo(ROOT, rules=[get_rule(rule_id)])

    def test_no_middleware_constructed_outside_the_stack_builder(self):
        offenders = [
            f.format()
            for f in self._findings("layering-middleware-construction")
        ]
        assert offenders == [], (
            f"middleware hand-wired outside DeviceStack: {offenders}"
        )

    def test_no_codec_framing_outside_the_crc_layer(self):
        offenders = [
            f.format() for f in self._findings("layering-codec-containment")
        ]
        assert offenders == [], (
            f"codec framing leaked outside the device stack: {offenders}"
        )

    def test_import_boundaries_hold(self):
        offenders = [
            f.format() for f in self._findings("layering-import-boundary")
        ]
        assert offenders == [], f"layering arrows inverted: {offenders}"
