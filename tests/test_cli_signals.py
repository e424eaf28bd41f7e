"""Tests for the CLI and the automatic signal generation helper."""

import numpy as np
import pytest

from repro.benchmark.signals import (
    AutoSignals,
    auto_signals,
    infer_column_pattern,
    infer_key_columns,
)
from repro.cli import main
from repro.context import CleaningContext
from repro.datagen import generate
from repro.dataset import CATEGORICAL, NUMERICAL, Schema, Table
from repro.detectors import NadeefDetector


class TestAutoSignals:
    def test_discovers_fds_on_beers(self):
        dataset = generate("Beers", n_rows=200, seed=0)
        signals = auto_signals(dataset.clean)
        fd_strings = {str(fd) for fd in signals.fds}
        assert any("city -> state" in s for s in fd_strings)

    def test_patterns_cover_clean_flag_dirty(self):
        dataset = generate("Beers", n_rows=200, seed=1)
        signals = auto_signals(dataset.clean)
        state_patterns = [p for p in signals.patterns if p.column == "state"]
        assert state_patterns
        # The inferred pattern accepts every clean value...
        assert state_patterns[0].violations(dataset.clean) == set()
        # ...and the dirty version has some violating cells (typos).
        dirty_violations = state_patterns[0].violations(dataset.dirty)
        true_errors = {
            c for c in dirty_violations if c in dataset.error_cells
        }
        assert len(true_errors) >= len(dirty_violations) * 0.5

    def test_key_columns(self):
        schema = Schema.from_pairs([("id", CATEGORICAL), ("grp", CATEGORICAL)])
        table = Table(
            schema,
            {
                "id": [f"k{i}" for i in range(50)],
                "grp": [f"g{i % 3}" for i in range(50)],
            },
        )
        assert infer_key_columns(table) == ["id"]

    def test_auto_signals_drive_nadeef(self):
        dataset = generate("Beers", n_rows=200, seed=2)
        signals = auto_signals(dataset.clean)
        context = CleaningContext(
            dirty=dataset.dirty,
            fds=signals.fds,
            patterns=signals.patterns,
        )
        detected = NadeefDetector().detect(context)
        assert detected.n_detected > 0
        # Auto-generated rules reach useful precision.
        hits = len(set(detected.cells) & dataset.error_cells)
        assert hits / detected.n_detected > 0.3

    def test_free_text_column_gets_no_pattern(self):
        rng = np.random.default_rng(0)
        alphabet = "abcdefghijklmnop .,-"
        schema = Schema.from_pairs([("txt", CATEGORICAL)])
        table = Table(
            schema,
            {
                "txt": [
                    "".join(
                        alphabet[int(rng.integers(len(alphabet)))]
                        for _ in range(int(rng.integers(3, 25)))
                    )
                    for _ in range(60)
                ]
            },
        )
        assert infer_column_pattern(table, "txt") is None

    def test_short_column_gets_no_pattern(self):
        schema = Schema.from_pairs([("c", CATEGORICAL)])
        table = Table(schema, {"c": ["x", "y"]})
        assert infer_column_pattern(table, "c") is None


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Beers" in out and "Soccer" in out

    def test_detect(self, capsys):
        assert main(["detect", "Nasa", "--rows", "120"]) == 0
        out = capsys.readouterr().out
        assert "detection" in out
        assert "IoU" in out

    def test_repair(self, capsys):
        assert main(["repair", "Nasa", "--rows", "120"]) == 0
        out = capsys.readouterr().out
        assert "repair grid" in out
        assert "MVD+GT" in out or "MaxEntropy+GT" in out

    def test_model(self, capsys):
        assert main(["model", "Nasa", "--rows", "150", "--model", "Ridge",
                     "--seeds", "3"]) == 0
        out = capsys.readouterr().out
        assert "Wilcoxon" in out
        assert "S1" in out and "S4" in out

    def test_model_no_task(self, capsys):
        assert main(["model", "Soccer", "--rows", "100"]) == 2

    def test_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["detect", "NotADataset"])

    def test_detect_prints_runtime_panel(self, capsys):
        assert main(["detect", "Nasa", "--rows", "120"]) == 0
        out = capsys.readouterr().out
        assert "runtime seconds per detector" in out
        assert "total" in out


class TestCliObservability:
    def test_quiet_suppresses_report_keeps_exit_code(self, capsys):
        assert main(["detect", "Nasa", "--rows", "120", "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["list", "-q"]) == 0
        assert capsys.readouterr().out == ""

    def test_quiet_does_not_mask_usage_errors(self, capsys):
        assert main(["model", "Soccer", "--rows", "100", "--quiet"]) == 2

    def test_verbose_and_quiet_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["detect", "Nasa", "-q", "-v"])

    def test_verbose_prints_telemetry_summary(self, capsys):
        assert main(["detect", "Nasa", "--rows", "120", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "telemetry: counters" in out
        assert "units.ok" in out

    def test_events_ledger_records_the_run(self, tmp_path, capsys):
        from repro.observability import read_ledger
        from repro.observability.ledger import (
            RUN_FINISHED,
            RUN_STARTED,
            UNIT_FINALIZED,
        )

        events = tmp_path / "events.jsonl"
        assert main(
            ["detect", "Nasa", "--rows", "120", "--workers", "2",
             "--events", str(events), "-q"]
        ) == 0
        capsys.readouterr()
        (started,) = read_ledger(events, event=RUN_STARTED)
        assert started["command"] == "detect"
        assert started["workers"] == 2
        (finished,) = read_ledger(events, event=RUN_FINISHED)
        assert finished["status"] == "ok"
        assert read_ledger(events, event=UNIT_FINALIZED)

    def test_trace_subcommand_round_trips_the_ledger(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        assert main(
            ["detect", "Nasa", "--rows", "120", "--events", str(events),
             "-q"]
        ) == 0
        capsys.readouterr()
        out_path = tmp_path / "trace.json"
        assert main(["trace", str(events), "--out", str(out_path)]) == 0
        trace = json.loads(out_path.read_text())
        categories = {
            e["cat"] for e in trace["traceEvents"] if e["ph"] == "X"
        }
        assert {"suite", "stage", "unit", "attempt"} <= categories

        # Without --out the JSON is the stdout deliverable.
        capsys.readouterr()
        assert main(["trace", str(events)]) == 0
        stdout_trace = json.loads(capsys.readouterr().out)
        assert stdout_trace == trace

    def test_pooled_cache_summary_books_every_process(self, tmp_path, capsys):
        """Workers' cache reads and writes reach the run's summary: a
        cold pooled run books one put per entry it wrote, a warm one
        reads them all back and writes nothing."""
        from repro.cache import ArtifactCache
        from repro.observability import read_ledger

        root = tmp_path / "cache"
        summaries = []
        for run in ("cold", "warm"):
            events = tmp_path / f"{run}.jsonl"
            assert main(
                ["repair", "Beers", "--rows", "80", "--workers", "2",
                 "--cache-dir", str(root), "--events", str(events), "-q"]
            ) == 0
            (summary,) = read_ledger(events, event="cache_summary")
            summaries.append(summary)
        capsys.readouterr()
        cold, warm = summaries
        entries = ArtifactCache(str(root)).entries()
        assert cold["puts"] == len(entries) > 8
        assert cold["misses"] == cold["puts"] and cold["hits"] == 0
        assert cold["bytes_written"] == sum(
            path.stat().st_size for path in root.glob("*/*.npz")
        )
        assert warm["puts"] == warm["misses"] == 0
        assert warm["hits"] > 0

    def test_trace_rejects_missing_or_corrupt_ledger(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 4
        assert "cannot read ledger" in capsys.readouterr().err
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("not json\n")
        assert main(["trace", str(corrupt)]) == 4
        assert "cannot read ledger" in capsys.readouterr().err


class TestCliExitCodes:
    """The documented exit-code taxonomy: 2 usage, 3 malformed config,
    4 missing/unopenable path, 5 service unreachable."""

    def test_submit_without_destination_is_usage_error(self, capsys):
        assert main(["submit", "Nasa", "--kind", "detect"]) == 2
        assert "--inline or --url" in capsys.readouterr().err

    def test_submit_malformed_options_json(self, capsys):
        assert main(
            ["submit", "Nasa", "--kind", "detect", "--inline",
             "--options", "{not json"]
        ) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_submit_non_object_options(self, capsys):
        assert main(
            ["submit", "Nasa", "--kind", "detect", "--inline",
             "--options", "[1, 2]"]
        ) == 3
        assert "JSON object" in capsys.readouterr().err

    def test_submit_invalid_spec_config(self, capsys):
        assert main(
            ["submit", "Nasa", "--kind", "detect", "--inline",
             "--options", '{"detectors": ["NoSuchDetector"]}']
        ) == 3
        assert "malformed job config" in capsys.readouterr().err

    def test_submit_unopenable_store_path(self, tmp_path, capsys):
        assert main(
            ["submit", "Nasa", "--kind", "detect", "--inline",
             "--store", str(tmp_path / "no" / "such" / "dir" / "s.sqlite")]
        ) == 4
        assert capsys.readouterr().err.startswith("repro submit:")

    def test_submit_unreachable_service(self, capsys):
        assert main(
            ["submit", "Nasa", "--kind", "detect",
             "--url", "http://127.0.0.1:9", "--timeout", "2"]
        ) == 5
        assert "unreachable" in capsys.readouterr().err

    def test_jobs_unreachable_service(self, capsys):
        assert main(["jobs", "--url", "http://127.0.0.1:9"]) == 5
        assert "unreachable" in capsys.readouterr().err

    def test_detect_unopenable_events_path(self, tmp_path, capsys):
        assert main(
            ["detect", "Nasa", "--rows", "60", "-q",
             "--events", str(tmp_path / "no" / "such" / "events.jsonl")]
        ) == 4

    def test_unknown_model_is_a_config_error(self, capsys):
        assert main(["model", "Nasa", "--rows", "60", "--model", "Ghost"]) == 3
        assert "malformed benchmark config" in capsys.readouterr().err
        assert main(
            ["submit", "Nasa", "--kind", "model", "--inline",
             "--options", '{"model": "Ghost"}']
        ) == 3
        assert "malformed job config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--events", "events.jsonl"),
        ("--cache-dir", "cache"),
    ])
    def test_failed_session_closes_checkpoint_store(
        self, tmp_path, monkeypatch, flag, value
    ):
        from repro.resilience import SuiteCheckpoint

        closed = []
        real_close = SuiteCheckpoint.close

        def counting_close(checkpoint):
            closed.append(checkpoint.run_id)
            real_close(checkpoint)

        monkeypatch.setattr(SuiteCheckpoint, "close", counting_close)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(
            ["detect", "Nasa", "--rows", "60", "-q",
             "--store", str(tmp_path / "store.sqlite"),
             flag, str(blocker / value)]
        ) == 4
        assert len(closed) == 1

    def test_inline_submit_is_byte_deterministic(self, tmp_path, capsys):
        argv = [
            "submit", "Nasa", "--kind", "detect", "--rows", "60",
            "--seed", "3", "--options", '{"detectors": ["MVD"]}',
            "--inline", "--quiet",
            "--store", str(tmp_path / "store.sqlite"),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        import json

        payload = json.loads(first)
        assert payload["spec"]["dataset"] == "Nasa"
