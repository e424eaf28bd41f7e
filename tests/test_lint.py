"""Repo hygiene checks enforced as part of tier-1."""

import ast
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_block_paths  # noqa: E402
import check_clocks  # noqa: E402
import check_dataplane  # noqa: E402
import check_exceptions  # noqa: E402
import check_hot_loops  # noqa: E402
import check_reachable  # noqa: E402
import check_rng  # noqa: E402
import check_service_endpoints  # noqa: E402


def test_no_broad_exception_handlers_outside_sanctioned_sites():
    violations = check_exceptions.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def test_lint_flags_broad_handler(tmp_path):
    bad = tmp_path / "repro" / "bad.py"
    bad.parent.mkdir()
    bad.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
    violations = check_exceptions.check_tree(tmp_path)
    assert len(violations) == 1
    assert "bad.py:3" in violations[0]


def test_lint_flags_bare_except(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("try:\n    pass\nexcept:\n    pass\n")
    violations = check_exceptions.check_tree(tmp_path)
    assert len(violations) == 1
    assert "bare except" in violations[0]


def test_lint_honours_allowlist(tmp_path):
    site = tmp_path / "repro" / "resilience" / "guards.py"
    site.parent.mkdir(parents=True)
    site.write_text("try:\n    pass\nexcept Exception:\n    pass\n")
    assert check_exceptions.check_tree(tmp_path) == []


def test_lint_cli_exit_codes(tmp_path, capsys):
    assert check_exceptions.main(["prog", str(tmp_path)]) == 0
    (tmp_path / "bad.py").write_text(
        "try:\n    pass\nexcept Exception:\n    pass\n"
    )
    assert check_exceptions.main(["prog", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:3" in out


def test_lint_rejects_missing_directory(tmp_path):
    assert check_exceptions.main(["prog", str(tmp_path / "nope")]) == 2


def test_no_wall_clock_timing_in_src():
    violations = check_clocks.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def test_clock_lint_flags_call_reference_and_import(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import time\n"
        "from time import time as now\n"
        "started = time.time()\n"
        "clock = time.time\n"
    )
    violations = check_clocks.check_tree(tmp_path)
    lines = {v.split(": ", 1)[1].split(" is ")[0] for v in violations}
    assert len(violations) == 3, "\n".join(violations)
    assert lines == {
        "time.time() call", "time.time reference", "'from time import time'"
    }


def test_clock_lint_allows_monotonic_clocks(tmp_path):
    good = tmp_path / "good.py"
    good.write_text(
        "import time\n"
        "from datetime import datetime, timezone\n"
        "t0 = time.perf_counter()\n"
        "t1 = time.monotonic()\n"
        "wall = datetime.now(timezone.utc)\n"
    )
    assert check_clocks.check_tree(tmp_path) == []


def test_clock_lint_cli_exit_codes(tmp_path, capsys):
    assert check_clocks.main(["prog", str(tmp_path)]) == 0
    (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
    assert check_clocks.main(["prog", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2" in out
    assert check_clocks.main(["prog", str(tmp_path / "nope")]) == 2


def test_no_scalar_hot_loops_in_kernels():
    violations = check_hot_loops.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def test_hot_loop_scope_covers_cleaning_stages():
    assert set(check_hot_loops.SCOPE) == {
        "repro/ml",
        "repro/detectors",
        "repro/constraints",
        "repro/repair",
    }


def _ml_file(tmp_path, name, text):
    path = tmp_path / "repro" / "ml" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def _scoped_file(tmp_path, relative, text):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_hot_loop_lint_flags_argsort_in_best_split(tmp_path):
    _ml_file(
        tmp_path, "bad_tree.py",
        "import numpy as np\n"
        "def _best_split(features):\n"
        "    order = np.argsort(features[:, 0])\n"
        "    return order\n"
        "def elsewhere(features):\n"
        "    return np.argsort(features, axis=0)\n",
    )
    violations = check_hot_loops.check_tree(tmp_path)
    # argsort outside _best_split (the root presort) stays legal.
    assert len(violations) == 1, "\n".join(violations)
    assert "bad_tree.py:3" in violations[0]
    assert "_best_split" in violations[0]


def test_hot_loop_lint_flags_per_row_loops(tmp_path):
    _ml_file(
        tmp_path, "bad_predict.py",
        "def predict(features):\n"
        "    out = []\n"
        "    for row in features:\n"
        "        out.append(row.sum())\n"
        "    for i, row in enumerate(features):\n"
        "        out[i] += 1\n"
        "    for name in columns:\n"
        "        pass\n"
        "    return out\n",
    )
    violations = check_hot_loops.check_tree(tmp_path)
    assert len(violations) == 2, "\n".join(violations)
    assert "bad_predict.py:3" in violations[0]
    assert "bad_predict.py:5" in violations[1]


def test_hot_loop_lint_flags_cleaning_stage_dirs(tmp_path):
    # The cleaning-stage kernels are now in scope alongside repro/ml.
    loop = "def f(features):\n    for row in features:\n        pass\n"
    _scoped_file(tmp_path, "repro/detectors/loopy.py", loop)
    _scoped_file(tmp_path, "repro/constraints/loopy.py", loop)
    _scoped_file(tmp_path, "repro/repair/loopy.py", loop)
    violations = check_hot_loops.check_tree(tmp_path)
    assert len(violations) == 3, "\n".join(violations)
    assert any("detectors" in v for v in violations)
    assert any("constraints" in v for v in violations)
    assert any("repair" in v for v in violations)


def test_hot_loop_lint_flags_pair_enumeration_outside_blocking(tmp_path):
    _scoped_file(
        tmp_path, "repro/detectors/pairs.py",
        "def score_all(members):\n"
        "    out = []\n"
        "    for a in members:\n"
        "        for b in members:\n"
        "            out.append((a, b))\n"
        "    return out\n"
        "def _enumerate_block_pairs(members):\n"
        "    for a in members:\n"
        "        for b in members:\n"
        "            yield a, b\n"
        "def per_column(categorical):\n"
        "    for col_a in categorical:\n"
        "        for col_b in categorical:\n"
        "            pass\n",
    )
    violations = check_hot_loops.check_tree(tmp_path)
    # Only the unblocked all-pairs loop is flagged: blocking functions
    # cap the square, and column x column nesting is schema-bounded.
    assert len(violations) == 1, "\n".join(violations)
    assert "pairs.py:4" in violations[0]
    assert "blocking" in violations[0]


def test_hot_loop_lint_honours_allowlist_and_scope(tmp_path):
    loop = "def predict(features):\n    for row in features:\n        pass\n"
    # Birch's sequential CF-tree pass is allowlisted.
    _ml_file(tmp_path, "cluster.py", loop)
    # Outside the scoped kernel trees the same pattern is not the
    # lint's business.
    _scoped_file(tmp_path, "repro/service/loopy.py", loop)
    # Sparse iteration over detected cells is not a per-row table scan.
    _scoped_file(
        tmp_path, "repro/repair/sparse.py",
        "def apply(detections):\n"
        "    for row, column in detections:\n"
        "        pass\n",
    )
    assert check_hot_loops.check_tree(tmp_path) == []


def test_hot_loop_lint_cli_exit_codes(tmp_path, capsys):
    assert check_hot_loops.main(["prog", str(tmp_path)]) == 0
    _ml_file(
        tmp_path, "bad.py",
        "def f(features):\n    for row in features:\n        pass\n",
    )
    assert check_hot_loops.main(["prog", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2" in out
    assert check_hot_loops.main(["prog", str(tmp_path / "nope")]) == 2


def test_no_whole_table_access_in_block_paths():
    violations = check_block_paths.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def _block_path_tree(tmp_path, text, name="repro/detectors/simple.py"):
    """A fake src tree with every declared block-path module present."""
    for rel in check_block_paths.BLOCK_PATH_MODULES:
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    (tmp_path / name).write_text(text)
    return tmp_path


def test_block_path_lint_flags_whole_table_materializer(tmp_path):
    _block_path_tree(
        tmp_path,
        "def _detect_block(self, context, fitted, block, start):\n"
        "    values = context.dirty.as_float('n')\n"
        "    return set()\n",
    )
    violations = check_block_paths.check_tree(tmp_path)
    assert len(violations) == 1, "\n".join(violations)
    assert "simple.py:2" in violations[0]
    assert "context.dirty.as_float" in violations[0]


def test_block_path_lint_allows_block_receiver(tmp_path):
    _block_path_tree(
        tmp_path,
        "def _detect_block(self, context, fitted, block, start):\n"
        "    values = block.as_float('n')\n"
        "    cells = block.missing_cells()\n"
        "    return cells\n"
        # Outside *_block functions whole-table access is the norm.
        "def fit_profile(self, context):\n"
        "    return context.dirty.as_float('n')\n",
    )
    assert check_block_paths.check_tree(tmp_path) == []


def test_block_path_lint_flags_missing_declared_module(tmp_path):
    tree = _block_path_tree(tmp_path, "")
    (tree / "repro/ml/tree.py").unlink()
    violations = check_block_paths.check_tree(tmp_path)
    assert len(violations) == 1
    assert "missing" in violations[0]


def test_service_endpoints_declare_timeouts_and_map_failures():
    violations = check_service_endpoints.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def _api_module(tmp_path, text):
    path = tmp_path / "repro" / "service" / "api.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return tmp_path


#: A minimal API module that satisfies every endpoint-lint rule.
_API_OK = (
    "@route('GET', '/v1/health', timeout=5.0)\n"
    "def health(service, request):\n"
    "    return Response()\n"
    "def _dispatch(self):\n"
    "    try:\n"
    "        pass\n"
    "    except Exception as exc:\n"
    "        response = error_response(exc)\n"
    "def error_response(exc):\n"
    "    return classify_exception(exc)\n"
)


def test_endpoint_lint_accepts_well_formed_module(tmp_path):
    assert check_service_endpoints.check_tree(
        _api_module(tmp_path, _API_OK)
    ) == []


def test_endpoint_lint_flags_missing_timeout(tmp_path):
    tree = _api_module(
        tmp_path,
        _API_OK + "@route('GET', '/v1/naked')\ndef naked(s, r):\n    pass\n",
    )
    violations = check_service_endpoints.check_tree(tree)
    assert len(violations) == 1, "\n".join(violations)
    assert "'naked' declares no timeout" in violations[0]


def test_endpoint_lint_flags_computed_or_nonpositive_timeout(tmp_path):
    tree = _api_module(
        tmp_path,
        _API_OK
        + "@route('GET', '/a', timeout=LIMIT)\ndef a(s, r):\n    pass\n"
        + "@route('GET', '/b', timeout=0)\ndef b(s, r):\n    pass\n",
    )
    violations = check_service_endpoints.check_tree(tree)
    assert len(violations) == 2, "\n".join(violations)
    assert all("positive numeric literal" in v for v in violations)


def test_endpoint_lint_flags_swallowing_handler(tmp_path):
    tree = _api_module(
        tmp_path,
        _API_OK
        + "@route('GET', '/c', timeout=1)\n"
        "def c(s, r):\n"
        "    try:\n"
        "        pass\n"
        "    except Exception:\n"
        "        pass\n",
    )
    violations = check_service_endpoints.check_tree(tree)
    assert len(violations) == 1, "\n".join(violations)
    assert "propagate to the dispatch boundary" in violations[0]


def test_endpoint_lint_flags_missing_taxonomy_boundary(tmp_path):
    tree = _api_module(
        tmp_path,
        "@route('GET', '/v1/health', timeout=5.0)\n"
        "def health(service, request):\n"
        "    return Response()\n",
    )
    violations = check_service_endpoints.check_tree(tree)
    assert any("no dispatch boundary" in v for v in violations)
    assert any("classify_exception" in v for v in violations)


def test_endpoint_lint_flags_boundary_without_error_response(tmp_path):
    tree = _api_module(
        tmp_path,
        _API_OK
        + "def other():\n"
        "    try:\n"
        "        pass\n"
        "    except Exception:\n"
        "        return None\n",
    )
    violations = check_service_endpoints.check_tree(tree)
    assert len(violations) == 1, "\n".join(violations)
    assert "does not map the failure through error_response" in violations[0]


def test_endpoint_lint_flags_missing_module(tmp_path):
    violations = check_service_endpoints.check_tree(tmp_path)
    assert len(violations) == 1
    assert "missing" in violations[0]


def test_endpoint_lint_cli_exit_codes(tmp_path, capsys):
    _api_module(tmp_path, _API_OK)
    assert check_service_endpoints.main(["prog", str(tmp_path)]) == 0
    _api_module(tmp_path, "try:\n    pass\nexcept:\n    pass\n")
    assert check_service_endpoints.main(["prog", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "api.py:3" in out
    assert check_service_endpoints.main(["prog", str(tmp_path / "nope")]) == 2


def test_block_path_lint_cli_exit_codes(tmp_path, capsys):
    _block_path_tree(
        tmp_path,
        "def encode_block(table):\n"
        "    return table.numeric_matrix()\n",
        name="repro/dataset/encoding.py",
    )
    assert check_block_paths.main(["prog", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "encoding.py:2" in out
    (tmp_path / "repro/dataset/encoding.py").write_text("")
    assert check_block_paths.main(["prog", str(tmp_path)]) == 0
    assert check_block_paths.main(["prog", str(tmp_path / "nope")]) == 2


# ----------------------------------------------------------------------
# Data-plane lint (tools/check_dataplane.py)
# ----------------------------------------------------------------------
_SEGMENTS_OK = (
    "from multiprocessing import shared_memory\n"
    "def create(nbytes):\n"
    "    return shared_memory.SharedMemory(create=True, size=nbytes)\n"
    "def destroy(segment):\n"
    "    segment.close()\n"
    "    segment.unlink()\n"
)

_ENGINE_OK = (
    "def run(pool, shipment, specs):\n"
    "    pool.apply(init, initargs=(shipment,))\n"
    "    return pool.imap_unordered(work, specs, chunksize=1)\n"
)


def _dataplane_tree(tmp_path, engine_src=_ENGINE_OK, segments_src=_SEGMENTS_OK):
    engine = tmp_path / "repro" / "parallel" / "engine.py"
    engine.parent.mkdir(parents=True, exist_ok=True)
    engine.write_text(engine_src)
    segments = tmp_path / "repro" / "dataplane" / "segments.py"
    segments.parent.mkdir(parents=True, exist_ok=True)
    segments.write_text(segments_src)
    return tmp_path


def test_dataplane_tree_is_clean():
    violations = check_dataplane.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def test_dataplane_lint_accepts_conforming_tree(tmp_path):
    _dataplane_tree(tmp_path)
    assert check_dataplane.check_tree(tmp_path) == []


def test_dataplane_lint_flags_create_outside_lifecycle(tmp_path):
    _dataplane_tree(tmp_path)
    stray = tmp_path / "repro" / "stray.py"
    stray.write_text(
        "from multiprocessing.shared_memory import SharedMemory\n"
        "segment = SharedMemory(create=True, size=64)\n"
    )
    violations = check_dataplane.check_tree(tmp_path)
    assert len(violations) == 1, "\n".join(violations)
    assert "stray.py:2" in violations[0]
    assert "no unlink owner" in violations[0]


def test_dataplane_lint_requires_unlink_in_lifecycle(tmp_path):
    _dataplane_tree(
        tmp_path,
        segments_src=(
            "from multiprocessing import shared_memory\n"
            "def create(nbytes):\n"
            "    return shared_memory.SharedMemory(create=True,"
            " size=nbytes)\n"
        ),
    )
    violations = check_dataplane.check_tree(tmp_path)
    assert len(violations) == 1, "\n".join(violations)
    assert "never calls unlink()" in violations[0]


def test_dataplane_lint_ignores_attach_only_use(tmp_path):
    _dataplane_tree(tmp_path)
    reader = tmp_path / "repro" / "reader.py"
    reader.write_text(
        "from multiprocessing.shared_memory import SharedMemory\n"
        "segment = SharedMemory(name='x')\n"
        "other = SharedMemory(name='y', create=False)\n"
    )
    assert check_dataplane.check_tree(tmp_path) == []


def test_dataplane_lint_flags_shared_in_initargs(tmp_path):
    _dataplane_tree(
        tmp_path,
        engine_src=(
            "def run(pool, plan, specs):\n"
            "    pool.apply(init, initargs=(plan.adapter, plan.shared))\n"
            "    return pool.imap_unordered(work, specs, chunksize=1)\n"
        ),
    )
    violations = check_dataplane.check_tree(tmp_path)
    assert len(violations) == 1, "\n".join(violations)
    assert "initargs references the shared context" in violations[0]


def test_dataplane_lint_flags_shared_in_dispatch_iterable(tmp_path):
    _dataplane_tree(
        tmp_path,
        engine_src=(
            "def run(pool, shared, specs):\n"
            "    units = [(shared, spec) for spec in specs]\n"
            "    return pool.imap_unordered(work, units)\n"
        ),
    )
    violations = check_dataplane.check_tree(tmp_path)
    assert len(violations) == 1, "\n".join(violations)
    assert "iterable references the shared context" in violations[0]


def test_dataplane_lint_flags_missing_dispatch_module(tmp_path):
    segments = tmp_path / "repro" / "dataplane" / "segments.py"
    segments.parent.mkdir(parents=True)
    segments.write_text(_SEGMENTS_OK)
    violations = check_dataplane.check_tree(tmp_path)
    assert len(violations) == 1
    assert "dispatch module missing" in violations[0]


def test_dataplane_lint_cli_exit_codes(tmp_path, capsys):
    _dataplane_tree(tmp_path)
    assert check_dataplane.main(["prog", str(tmp_path)]) == 0
    stray = tmp_path / "repro" / "stray.py"
    stray.write_text(
        "from multiprocessing.shared_memory import SharedMemory\n"
        "segment = SharedMemory(create=True, size=64)\n"
    )
    assert check_dataplane.main(["prog", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "stray.py:2" in out
    assert check_dataplane.main(["prog", str(tmp_path / "nope")]) == 2


def test_no_process_global_randomness_in_fit_paths():
    violations = check_rng.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def test_rng_lint_scope_covers_memoized_fit_paths():
    assert set(check_rng.SCOPE) == {"repro/ml", "repro/repair", "repro/tuning"}


def test_rng_lint_flags_legacy_numpy_samplers(tmp_path):
    _scoped_file(
        tmp_path, "repro/ml/bad.py",
        "import numpy as np\n"
        "import numpy.random as npr\n"
        "from numpy import random as nr\n"
        "from numpy.random import shuffle\n"
        "def fit(x):\n"
        "    np.random.seed(0)\n"
        "    a = np.random.rand(3)\n"
        "    b = npr.choice(x)\n"
        "    c = nr.permutation(x)\n"
        "    return numpy_free(a, b, c)\n",
    )
    violations = check_rng.check_tree(tmp_path)
    lines = sorted(int(v.split(":")[1]) for v in violations)
    assert lines == [4, 6, 7, 8, 9], "\n".join(violations)


def test_rng_lint_flags_stdlib_random_and_unseeded_generators(tmp_path):
    _scoped_file(
        tmp_path, "repro/repair/bad.py",
        "import random\n"
        "from random import choice\n"
        "import numpy as np\n"
        "from numpy.random import default_rng as make\n"
        "def repair(values):\n"
        "    random.shuffle(values)\n"
        "    a = np.random.default_rng()\n"
        "    b = make(None)\n"
        "    return a, b\n",
    )
    violations = check_rng.check_tree(tmp_path)
    lines = sorted(int(v.split(":")[1]) for v in violations)
    assert lines == [2, 6, 7, 8], "\n".join(violations)


def test_rng_lint_allows_seeded_generators_and_out_of_scope_code(tmp_path):
    _scoped_file(
        tmp_path, "repro/tuning/good.py",
        "import random\n"
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "def sample(seed, generator: np.random.Generator):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    other = default_rng(seed=seed)\n"
        "    local = random.Random(seed)\n"
        "    return rng.random(), other.random(), local.random()\n",
    )
    _scoped_file(
        tmp_path, "repro/datagen/elsewhere.py",
        "import numpy as np\nnp.random.seed(0)\n",
    )
    assert check_rng.check_tree(tmp_path) == []


def test_rng_lint_cli_exit_codes(tmp_path, capsys):
    assert check_rng.main(["prog", str(tmp_path)]) == 0
    _scoped_file(
        tmp_path, "repro/ml/bad.py",
        "import numpy as np\nnp.random.shuffle([1, 2])\n",
    )
    assert check_rng.main(["prog", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "bad.py:2" in out
    assert check_rng.main(["prog", str(tmp_path / "nope")]) == 2


#: Test-only modules under ``tests/``: the frozen kernel oracles, the
#: executor doubles and the chaos fault wrappers.  Production code has
#: one path and never reaches them.
TEST_ONLY_MODULES = {
    "chaos_doubles", "oracles", "parallel_doubles", "service_doubles",
}


def test_src_ships_no_oracles_or_test_doubles():
    src = REPO_ROOT / "src" / "repro"
    offenders = [
        str(path.relative_to(src)) for path in src.rglob("_reference.py")
    ]
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            offenders.extend(
                f"{path.relative_to(src)}:{node.lineno}: imports {name}"
                for name in names
                if name.partition(".")[0] in TEST_ONLY_MODULES
            )
    assert offenders == [], "\n".join(offenders)


def _package(root, files):
    """Write a fixture ``repro`` tree: {relative path: source}."""
    for relative, source in files.items():
        path = root / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)


def test_every_src_module_reachable_from_the_cli():
    violations = check_reachable.check_tree(REPO_ROOT / "src")
    assert violations == [], "\n".join(violations)


def test_reachable_allowlist_has_a_reason_per_entry():
    assert set(check_reachable.ALLOWLIST) == {
        "repro.ml.automl", "repro.profiling", "repro.profiling.profiler",
    }
    assert all(reason.strip() for reason in check_reachable.ALLOWLIST.values())


def test_reachable_lint_flags_orphan_module(tmp_path):
    _package(tmp_path, {
        "__init__.py": "",
        "cli.py": "from repro.core import run\n",
        "core.py": "def run():\n    pass\n",
        "orphan.py": "import repro.core\n",
    })
    violations = check_reachable.check_tree(tmp_path)
    assert len(violations) == 1
    assert "orphan.py:1: module repro.orphan" in violations[0]


def test_reachable_lint_follows_function_local_and_package_imports(
    tmp_path,
):
    _package(tmp_path, {
        "__init__.py": "",
        "__main__.py": "from repro import cli\n",
        "cli.py": "def main():\n    from repro.stages import detect\n",
        "stages/__init__.py": "",
        "stages/detect.py": "from . import helpers\n",
        "stages/helpers.py": "",
    })
    assert check_reachable.check_tree(tmp_path) == []


def test_reachable_lint_skips_allowlisted_modules(tmp_path):
    _package(tmp_path, {
        "__init__.py": "",
        "cli.py": "",
        "ml/__init__.py": "",
        "ml/automl.py": "from repro.ml import search\n",
        "ml/search.py": "",
        "profiling/__init__.py": "from repro.profiling.profiler import x\n",
        "profiling/profiler.py": "x = 1\n",
    })
    # Allowlisted modules, and what they import, are not flagged.
    assert check_reachable.check_tree(tmp_path) == []


def test_reachable_lint_cli_exit_codes(tmp_path, capsys):
    _package(tmp_path, {"__init__.py": "", "cli.py": ""})
    assert check_reachable.main(["prog", str(tmp_path)]) == 0
    _package(tmp_path, {"dead.py": ""})
    assert check_reachable.main(["prog", str(tmp_path)]) == 1
    assert "dead.py:1" in capsys.readouterr().out
    assert check_reachable.main(["prog", str(tmp_path / "nope")]) == 2
