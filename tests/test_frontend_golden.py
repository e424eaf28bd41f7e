"""Golden digests of the three front ends: service jobs, CLI, experiments.

``tests/test_store_golden.py`` pins the bytes the suite functions store.
This module pins what each front end builds on top of them, so a change
to how a front end resolves names, sequences stages or shapes its output
fails here even when every suite call is unchanged:

- the canonical result text of :func:`repro.service.execute_job`;
- the ``--store`` checkpoint store, the stdout report and the ledger's
  per-event-type counts of the ``detect``/``repair``/``model`` commands
  (``detect`` prints wall-clock seconds, so its stdout is not pinned);
- the run payloads and evaluation scores of one
  :func:`repro.benchmark.run_experiment` report.

Wall-clock fields are dropped with :func:`repro.service.jobs.strip_timing`
before hashing.  When a change to these bytes is intended, recompute the
digests and say so in the change description.
"""

import collections
import hashlib
import json

import pytest

from repro.benchmark import ExperimentConfig, run_experiment
from repro.cli import main
from repro.service import JobSpec, canonical_result_text, execute_job
from repro.service.jobs import strip_timing

from test_store_golden import _store_digest


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


JOBS = {
    "detect": JobSpec(kind="detect", dataset="Nasa", rows=80, seed=1),
    "detect-blocked": JobSpec(
        kind="detect", dataset="Nasa", rows=80, seed=1,
        options={"block_rows": 25},
    ),
    "repair": JobSpec(kind="repair", dataset="Beers", rows=40, seed=1),
    "repair-explicit": JobSpec(
        kind="repair", dataset="Nasa", rows=60, seed=2,
        options={"detectors": ["MVD", "SD"], "repairs": ["GT", "Impute-Mean"]},
    ),
    "model": JobSpec(
        kind="model", dataset="Nasa", rows=80, seed=1,
        options={"model": "Ridge", "n_seeds": 2, "sample_rows": 50},
    ),
}

JOB_GOLDEN = {
    "detect": (
        "13639f4f5b4f500aa853c1c55dee74fba0e963f0486aece3bae8d0b28b885528"
    ),
    "detect-blocked": (
        "2c24a8e944ae3f0408d24a4bdc0e3afc7aa6e1d356a7f1b0f1e4afde2a382884"
    ),
    "repair": (
        "711f73ed6251892aefac29a89f3bfe3c325fd967dafd7c6b388118525c1b36c4"
    ),
    "repair-explicit": (
        "48df929a968718404bdc6002937b8cc1694c19b7bcea66b7a9743b66a95348f9"
    ),
    "model": (
        "7e32700aa47c4a1891077efd27705adee7fc9f5dd88cd1cc33238e4709d2801c"
    ),
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_job_result_matches_golden_digest(name):
    text = canonical_result_text(execute_job(JOBS[name]))
    assert _sha256(text) == JOB_GOLDEN[name]


CLI_ARGS = {
    "detect": ["detect", "Nasa", "--rows", "80", "--seed", "1"],
    "repair": ["repair", "Nasa", "--rows", "60", "--seed", "1"],
    "model": ["model", "Nasa", "--rows", "80", "--seed", "1"],
}

#: command -> (store digest, stdout digest or None, ledger event counts).
CLI_GOLDEN = {
    "detect": (
        "d0fc3465cfcc69fee22b7ef73ffd94417b42744e178cfb8537946e3f8bf89012",
        None,
        {"checkpoint_commit": 1, "metrics": 1, "run_finished": 1,
         "run_started": 1, "span": 32, "stage_finished": 1,
         "stage_started": 1, "unit_finalized": 13},
    ),
    "repair": (
        "07e36c2cd48361a5d9cc7dc0c05e2045ed859ed4d7e022831598fc918d9ca950",
        "a30657fcc3d3e047d8e37516cc53b8c08f6a1a5f4373835bbe81955e27db7b6c",
        {"checkpoint_commit": 2, "metrics": 1, "run_finished": 1,
         "run_started": 1, "span": 20, "stage_finished": 2,
         "stage_started": 2, "unit_finalized": 8},
    ),
    "model": (
        "83479dca9dae3ba7384694c557e1821fda61ce0ed7b9d45a376ee9b0ccd18384",
        "584404cc648e59a9f331bc781a7ccc983cca4312ea1b294fe512b900081b2f93",
        {"checkpoint_commit": 1, "metrics": 1, "run_finished": 1,
         "run_started": 1, "span": 18, "stage_finished": 1,
         "stage_started": 1, "unit_finalized": 8},
    ),
}


@pytest.mark.parametrize("command", sorted(CLI_ARGS))
def test_cli_command_matches_golden(tmp_path, capsys, command):
    store = str(tmp_path / "store.sqlite")
    events = tmp_path / "events.jsonl"
    argv = CLI_ARGS[command] + ["--store", store, "--events", str(events)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    counts = collections.Counter(
        json.loads(line)["event"]
        for line in events.read_text(encoding="utf-8").splitlines()
    )
    store_digest, stdout_digest, event_counts = CLI_GOLDEN[command]
    assert _store_digest(store) == store_digest
    if stdout_digest is not None:
        assert _sha256(stdout) == stdout_digest
    assert dict(counts) == event_counts


EXPERIMENT_GOLDEN = (
    "e8b7491e9fa91be7ceb95237eb223db62b69c736a3fd15a5ce5d044b2f183724"
)


def test_experiment_report_matches_golden_digest():
    report = run_experiment(ExperimentConfig(
        dataset="Nasa", n_rows=80, seed=2, detectors=["MVD", "SD"],
        models=["Ridge"], n_seeds=1,
    ))
    canonical = {
        "detection_runs": [
            strip_timing(r.to_payload()) for r in report.detection_runs
        ],
        "repair_runs": [
            strip_timing(r.to_payload()) for r in report.repair_runs
        ],
        "evaluations": [
            [e.variant, e.model, e.scores] for e in report.evaluations
        ],
    }
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    assert _sha256(text) == EXPERIMENT_GOLDEN
