"""Unit tests for the ``repro.lint`` rule engine and rule packs.

Every rule gets a positive (violating) and negative (clean) fixture
compiled from source strings — never from repo files, so the tests pin
rule *semantics* independent of the repo's current state.  The fixture
path passed to ``lint_source`` decides the module a snippet pretends to
be, which is how the module-scoped rules are exercised.
"""

import json
import textwrap

import pytest

from repro.cli import main as cli_main
from repro.lint import LintEngine, LintError, all_rules, get_rule, lint_repo
from repro.lint.engine import PARSE_ERROR_RULE


def findings_for(source, path, rule_id=None):
    rules = [get_rule(rule_id)] if rule_id else None
    return LintEngine(rules).lint_source(textwrap.dedent(source), path)


def ids(findings):
    return [f.rule_id for f in findings]


class TestEngine:
    def test_registry_has_the_advertised_rule_pack(self):
        expected = {
            "layering-middleware-construction",
            "layering-import-boundary",
            "layering-codec-containment",
            "layering-cluster-boundary",
            "lock-no-blocking",
            "lock-with-only",
            "lock-naming",
            "determinism-seeded-rng",
            "obs-coverage",
        }
        assert {r.rule_id for r in all_rules()} == expected

    def test_unknown_rule_id_raises(self):
        with pytest.raises(LintError):
            get_rule("no-such-rule")

    def test_parse_error_becomes_a_finding(self):
        findings = findings_for("def broken(:\n", "src/repro/x.py")
        assert ids(findings) == [PARSE_ERROR_RULE]
        assert findings[0].severity == "error"

    def test_findings_carry_file_line_and_sort_stably(self):
        source = """
        import time

        class C:
            def f(self):
                with self._lock:
                    time.sleep(1)
        """
        (finding,) = findings_for(
            source, "src/repro/streams/x.py", "lock-no-blocking"
        )
        assert finding.file == "src/repro/streams/x.py"
        assert finding.line == 7
        assert "sleep" in finding.message

    def test_non_src_paths_are_out_of_scope_for_library_rules(self):
        source = "import time\nwith self._lock:\n    time.sleep(1)\n"
        assert findings_for(source, "benchmarks/bench_x.py") == []


class TestSuppression:
    SOURCE = """
    import time

    class C:
        def f(self):
            with self._lock:
                time.sleep(1)  # lint: ignore[lock-no-blocking] — fixture
    """

    def test_same_line_ignore_silences_the_rule(self):
        assert findings_for(self.SOURCE, "src/repro/x.py") == []

    def test_ignore_of_a_different_rule_does_not_silence(self):
        source = self.SOURCE.replace("lock-no-blocking", "lock-naming")
        assert ids(findings_for(source, "src/repro/x.py")) == [
            "lock-no-blocking"
        ]

    def test_file_level_ignore_silences_everywhere(self):
        source = (
            "# lint: ignore-file[lock-no-blocking]\n"
            + textwrap.dedent(self.SOURCE).replace(
                "  # lint: ignore[lock-no-blocking] — fixture", ""
            )
        )
        assert LintEngine().lint_source(source, "src/repro/x.py") == []

    def test_one_comment_silences_several_rules(self):
        # One line can violate several rules; a single comma-separated
        # ignore covers exactly the listed ids.
        source = """
        import random
        import time

        class C:
            def f(self):
                with self._lock:
                    time.sleep(random.random())  # lint: ignore[lock-no-blocking, determinism-seeded-rng] — fixture
        """
        assert findings_for(source, "src/repro/x.py") == []
        partial = source.replace(", determinism-seeded-rng", "")
        assert ids(findings_for(partial, "src/repro/x.py")) == [
            "determinism-seeded-rng"
        ]

    def test_parse_errors_are_not_suppressible(self):
        # The suppression table comes from the parsed file; a file that
        # does not parse cannot excuse itself.
        source = "# lint: ignore-file[parse-error]\ndef broken(:\n"
        findings = findings_for(source, "src/repro/x.py")
        assert ids(findings) == [PARSE_ERROR_RULE]

    def test_ignore_file_still_applies_alongside_other_findings(self):
        # A file-wide ignore for one rule must not swallow findings of
        # other rules elsewhere in the same file.
        source = """
        # lint: ignore-file[lock-naming]
        import threading
        import time

        class C:
            def __init__(self):
                self.mylock = threading.Lock()

            def f(self):
                with self._lock:
                    time.sleep(1)
        """
        assert ids(findings_for(source, "src/repro/x.py")) == [
            "lock-no-blocking"
        ]


class TestLayeringRules:
    def test_middleware_construction_outside_builder_flagged(self):
        source = """
        from repro.storage.device import CachingDevice

        def build(inner):
            return CachingDevice(inner, capacity=4)
        """
        (finding,) = findings_for(
            source, "src/repro/query/helper.py",
            "layering-middleware-construction",
        )
        assert "CachingDevice" in finding.message

    def test_every_wrapper_and_the_disk_are_guarded(self):
        wrappers = (
            "SimulatedDisk", "CachingDevice", "CrcFramedDevice",
            "MeteredDevice", "ResilientDevice", "FaultyDevice",
            "ShardedDevice",
        )
        for name in wrappers:
            source = f"x = {name}(inner)\n"
            found = findings_for(
                source, "src/repro/core/x.py",
                "layering-middleware-construction",
            )
            assert ids(found) == ["layering-middleware-construction"], name

    def test_only_the_plan_module_of_repro_faults_builds_layers(self):
        source = "x = FaultyDevice(inner)\n"
        assert findings_for(
            source, "src/repro/faults/plan.py",
            "layering-middleware-construction",
        ) == []
        found = findings_for(
            source, "src/repro/faults/__init__.py",
            "layering-middleware-construction",
        )
        assert ids(found) == ["layering-middleware-construction"]

    def test_builder_modules_may_construct(self):
        source = "x = CachingDevice(inner, capacity=4)\n"
        for path in (
            "src/repro/storage/device.py",
            "src/repro/storage/sharding.py",
            "src/repro/faults/plan.py",
        ):
            assert findings_for(
                source, path, "layering-middleware-construction"
            ) == [], path

    def test_acquisition_importing_storage_flagged(self):
        source = "from repro.storage.blockstore import BlockStore\n"
        (finding,) = findings_for(
            source, "src/repro/acquisition/x.py", "layering-import-boundary"
        )
        assert "repro.storage" in finding.message

    def test_sensors_importing_storage_flagged(self):
        source = "import repro.storage\n"
        assert ids(findings_for(
            source, "src/repro/sensors/x.py", "layering-import-boundary"
        )) == ["layering-import-boundary"]

    def test_query_importing_online_flagged(self):
        source = "from repro.online.recognizer import Recognizer\n"
        assert ids(findings_for(
            source, "src/repro/query/x.py", "layering-import-boundary"
        )) == ["layering-import-boundary"]

    def test_online_may_import_query(self):
        source = "from repro.query.propolyne import ProPolyneEngine\n"
        assert findings_for(
            source, "src/repro/online/x.py", "layering-import-boundary"
        ) == []

    def test_codec_import_outside_stack_flagged(self):
        source = "from repro.storage.codec import encode_block\n"
        assert ids(findings_for(
            source, "src/repro/query/x.py", "layering-codec-containment"
        )) == ["layering-codec-containment"]

    def test_codec_allowed_inside_the_crc_layer(self):
        source = "from repro.storage.codec import encode_block\n"
        assert findings_for(
            source, "src/repro/storage/device.py",
            "layering-codec-containment",
        ) == []


class TestClusterBoundaryRule:
    def test_backend_node_outside_builders_flagged(self):
        source = "node = BackendNode('backend-0')\n"
        (finding,) = findings_for(
            source, "src/repro/cli.py", "layering-cluster-boundary"
        )
        assert "BackendNode" in finding.message

    def test_backend_builders_may_construct(self):
        source = "node = BackendNode('backend-0')\n"
        for path in (
            "src/repro/cluster/backend.py",
            "src/repro/cluster/__init__.py",
            "src/repro/core/aims.py",
        ):
            assert findings_for(
                source, path, "layering-cluster-boundary"
            ) == [], path

    def test_stateful_constructors_in_frontend_flagged(self):
        for name in (
            "ProPolyneEngine", "QueryService", "IngestService",
            "BatchInserter", "TensorBlockStore",
        ):
            source = f"x = {name}(arg)\n"
            assert ids(findings_for(
                source, "src/repro/cluster/frontend.py",
                "layering-cluster-boundary",
            )) == ["layering-cluster-boundary"], name

    def test_backend_module_may_construct_services(self):
        source = "service = QueryService(engine, workers=2)\n"
        assert findings_for(
            source, "src/repro/cluster/backend.py",
            "layering-cluster-boundary",
        ) == []

    def test_replicated_device_is_middleware_guarded(self):
        source = "x = ReplicatedDevice([a, b])\n"
        assert ids(findings_for(
            source, "src/repro/core/x.py",
            "layering-middleware-construction",
        )) == ["layering-middleware-construction"]
        assert findings_for(
            source, "src/repro/storage/replication.py",
            "layering-middleware-construction",
        ) == []


class TestConcurrencyRules:
    def test_sleep_under_lock_flagged(self):
        source = """
        import time

        class C:
            def f(self):
                with self._lock:
                    time.sleep(0.1)
        """
        assert ids(findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        )) == ["lock-no-blocking"]

    def test_sleep_outside_lock_clean(self):
        source = """
        import time

        class C:
            def f(self):
                with self._lock:
                    n = self.n
                time.sleep(0.1)
        """
        assert findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        ) == []

    def test_inner_call_under_lock_flagged(self):
        source = """
        class Layer:
            def read_block(self, block_id):
                with self._lock:
                    return self.inner.read_block(block_id)
        """
        (finding,) = findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        )
        assert "self.inner" in finding.message

    def test_callback_under_lock_flagged(self):
        source = """
        class C:
            def f(self):
                with self._cache_lock:
                    self.on_evict(1)
        """
        assert ids(findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        )) == ["lock-no-blocking"]

    def test_wait_under_named_lock_flagged(self):
        source = """
        class C:
            def f(self):
                with self._graph_lock:
                    self.event.wait()
        """
        assert ids(findings_for(
            source, "src/repro/query/x.py", "lock-no-blocking"
        )) == ["lock-no-blocking"]

    def test_deferred_work_in_nested_def_is_not_under_the_lock(self):
        source = """
        import time

        class C:
            def f(self):
                with self._lock:
                    def later():
                        time.sleep(1)
                    self.deferred = later
        """
        assert findings_for(
            source, "src/repro/storage/x.py", "lock-no-blocking"
        ) == []

    def test_bare_acquire_flagged(self):
        source = """
        class C:
            def f(self):
                self._lock.acquire()
                try:
                    pass
                finally:
                    self._lock.release()
        """
        found = findings_for(
            source, "src/repro/storage/x.py", "lock-with-only"
        )
        assert ids(found) == ["lock-with-only", "lock-with-only"]

    def test_with_statement_clean(self):
        source = """
        class C:
            def f(self):
                with self._lock:
                    pass
        """
        assert findings_for(
            source, "src/repro/storage/x.py", "lock-with-only"
        ) == []

    def test_misnamed_lock_attribute_flagged(self):
        source = """
        import threading

        class C:
            def __init__(self):
                self.mutex = threading.Lock()
        """
        (finding,) = findings_for(
            source, "src/repro/streams/x.py", "lock-naming"
        )
        assert "mutex" in finding.message

    def test_conventional_lock_names_clean(self):
        source = """
        import threading
        from repro.lint.lockwatch import watched_lock

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self._cache_lock = threading.RLock()
                self._graph_lock = watched_lock("x")
        """
        assert findings_for(
            source, "src/repro/streams/x.py", "lock-naming"
        ) == []


class TestDeterminismRules:
    def test_global_numpy_rng_flagged(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        assert ids(findings_for(
            source, "src/repro/analysis/x.py", "determinism-seeded-rng"
        )) == ["determinism-seeded-rng"]

    def test_unseeded_default_rng_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert ids(findings_for(
            source, "src/repro/analysis/x.py", "determinism-seeded-rng"
        )) == ["determinism-seeded-rng"]

    def test_seeded_default_rng_clean(self):
        source = "import numpy as np\nrng = np.random.default_rng(2003)\n"
        assert findings_for(
            source, "src/repro/analysis/x.py", "determinism-seeded-rng"
        ) == []

    def test_random_module_draw_flagged(self):
        source = "import random\nx = random.random()\n"
        assert ids(findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        )) == ["determinism-seeded-rng"]

    def test_unseeded_random_instance_flagged(self):
        source = "import random\nrng = random.Random()\n"
        assert ids(findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        )) == ["determinism-seeded-rng"]

    def test_seeded_random_instance_clean(self):
        source = "import random\nrng = random.Random(17)\n"
        assert findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        ) == []

    def test_unrelated_name_random_not_confused_with_the_module(self):
        source = "x = roller.random()\n"
        assert findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        ) == []

    def test_bare_imported_shuffle_and_sample_flagged(self):
        source = (
            "from random import shuffle, sample as smp\n"
            "def f(xs):\n"
            "    shuffle(xs)\n"
            "    return smp(xs, 2)\n"
        )
        findings = findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        )
        assert ids(findings) == ["determinism-seeded-rng"] * 2
        assert "random.shuffle" in findings[0].message
        assert "random.sample" in findings[1].message

    def test_locally_defined_shuffle_not_confused(self):
        source = (
            "def shuffle(xs, rng):\n"
            "    return rng.sample(xs, len(xs))\n"
            "def f(xs, rng):\n"
            "    return shuffle(xs, rng)\n"
        )
        assert findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        ) == []

    def test_wall_clock_seed_flagged(self):
        source = (
            "import random\nimport time\n"
            "rng = random.Random(time.time())\n"
        )
        (finding,) = findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        )
        assert "wall clock" in finding.message

    def test_int_wrapped_wall_clock_seed_flagged(self):
        source = (
            "import numpy as np\nimport time\n"
            "rng = np.random.default_rng(seed=int(time.time()))\n"
        )
        (finding,) = findings_for(
            source, "src/repro/analysis/x.py", "determinism-seeded-rng"
        )
        assert "wall clock" in finding.message

    def test_bare_time_ns_seed_and_reseed_flagged(self):
        source = (
            "import random\nfrom time import time_ns\n"
            "rng = random.Random(7)\n"
            "rng.seed(time_ns())\n"
        )
        (finding,) = findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        )
        assert finding.line == 4

    def test_fixed_and_configured_seeds_clean(self):
        source = (
            "import random\nimport numpy as np\n"
            "from random import Random\n"
            "r1 = random.Random(17)\n"
            "r2 = Random(0)\n"
            "r3 = np.random.default_rng(seed=2003)\n"
            "def f(seed):\n"
            "    return random.Random(seed)\n"
        )
        assert findings_for(
            source, "src/repro/faults/x.py", "determinism-seeded-rng"
        ) == []


class TestObservabilityRule:
    DEVICE = """
    class PlainDevice:
        def read_block(self, block_id):
            return self.blocks[block_id]

        def write_block(self, block_id, items):
            self.blocks[block_id] = items
    """

    def test_unmetered_device_class_flagged(self):
        (finding,) = findings_for(
            self.DEVICE, "src/repro/storage/x.py", "obs-coverage"
        )
        assert "PlainDevice" in finding.message

    def test_device_touching_the_registry_clean(self):
        source = self.DEVICE.replace(
            "return self.blocks[block_id]",
            'obs_counter("x.reads").inc()\n'
            "            return self.blocks[block_id]",
        )
        assert findings_for(
            source, "src/repro/storage/x.py", "obs-coverage"
        ) == []

    def test_device_outside_storage_packages_not_covered(self):
        assert findings_for(
            self.DEVICE, "src/repro/analysis/x.py", "obs-coverage"
        ) == []

    def test_protocol_classes_exempt(self):
        source = """
        from typing import Protocol

        class BlockDevice(Protocol):
            def read_block(self, block_id): ...
            def write_block(self, block_id, items): ...
        """
        assert findings_for(
            source, "src/repro/storage/x.py", "obs-coverage"
        ) == []

    def test_query_service_must_touch_the_registry(self):
        source = """
        class QueryService:
            def submit(self, q):
                return self.pool.submit(q)
        """
        assert ids(findings_for(
            source, "src/repro/query/service.py", "obs-coverage"
        )) == ["obs-coverage"]

    def test_batch_evaluator_must_touch_the_registry(self):
        source = """
        class BatchEvaluator:
            def evaluate_exact(self, queries):
                return [self._engine.evaluate_exact(q) for q in queries]
        """
        assert ids(findings_for(
            source, "src/repro/query/batch.py", "obs-coverage"
        )) == ["obs-coverage"]

    def test_batch_evaluator_reporting_metrics_clean(self):
        source = """
        class BatchEvaluator:
            def evaluate_exact(self, queries):
                obs_counter("query.batch.batches").inc()
                return [self._engine.evaluate_exact(q) for q in queries]
        """
        assert findings_for(
            source, "src/repro/query/batch.py", "obs-coverage"
        ) == []

    def test_ingest_tier_classes_must_touch_the_registry(self):
        for name, path in (
            ("BatchInserter", "src/repro/query/ingest.py"),
            ("IngestService", "src/repro/streams/ingest.py"),
            ("BandwidthCoordinator", "src/repro/streams/ingest.py"),
        ):
            source = f"""
            class {name}:
                def run(self):
                    return None
            """
            assert ids(findings_for(source, path, "obs-coverage")) == [
                "obs-coverage"
            ], name

    def test_ingest_tier_reporting_metrics_clean(self):
        source = """
        class IngestService:
            def submit(self, point, weight):
                obs_gauge("ingest.queue_depth").set(self._queue.qsize())
                self._queue.put((point, weight))
        """
        assert findings_for(
            source, "src/repro/streams/ingest.py", "obs-coverage"
        ) == []


class TestRepoIsClean:
    def test_lint_repo_has_no_findings(self):
        assert lint_repo() == []


class TestCli:
    def _write_violation(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "storage"
        tree.mkdir(parents=True)
        bad = tree / "bad.py"
        bad.write_text(
            "import time\n\n\nclass C:\n    def f(self):\n"
            "        with self._lock:\n            time.sleep(1)\n"
        )
        return bad

    def test_lint_exits_nonzero_on_a_violation(self, tmp_path, capsys):
        bad = self._write_violation(tmp_path)
        assert cli_main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "lock-no-blocking" in out

    def test_lint_json_report_parses(self, tmp_path, capsys):
        bad = self._write_violation(tmp_path)
        assert cli_main(["lint", "--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/v1"
        assert payload["summary"]["errors"] == 1
        (finding,) = [
            f for f in payload["findings"]
            if f["rule_id"] == "lock-no-blocking"
        ]
        assert finding["severity"] == "error"

    def test_lint_exits_zero_on_the_repo(self, capsys):
        assert cli_main(["lint"]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_lint_rejects_missing_paths(self, capsys):
        assert cli_main(["lint", "does/not/exist.py"]) == 2

    def test_single_rule_selection(self, tmp_path, capsys):
        bad = self._write_violation(tmp_path)
        assert cli_main(["lint", "--rules", "lock-naming", str(bad)]) == 0
