"""Tests of the command-line interface."""

import glob
import json
import os

import pytest

from repro.cli import build_parser, main


TINY_ARCH = "1,2,3,4"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_requires_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search"])

    def test_metric_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "--target", "24",
                                       "--metric", "watts"])


class TestLazyScipy:
    """scipy costs about a second of import time; the CLI and the search
    command never need it (only energy campaigns and rank metrics do)."""

    SCIPY_LOADED = ("import sys\n"
                    "loaded = sorted(m for m in sys.modules "
                    "if m.split('.')[0] == 'scipy')\n"
                    "assert not loaded, loaded\n")

    def _run(self, code):
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(src)]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        out = subprocess.run([sys.executable, "-c", code + self.SCIPY_LOADED],
                             env=env, capture_output=True, text=True,
                             timeout=300)
        assert out.returncode == 0, out.stderr

    def test_import_cli(self):
        self._run("import repro.cli\n")

    def test_search_command(self):
        self._run("from repro.cli import main\n"
                  "assert main(['search', '--target', '24', "
                  "'--epochs', '2']) == 0\n")


class TestInfo:
    def test_full_space(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "5.59e+17" in out
        assert "jetson-agx-xavier-maxn" in out

    def test_tiny_space(self, capsys):
        assert main(["info", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "4" in out


class TestPredict:
    def test_tiny_arch(self, capsys):
        assert main(["predict", "--tiny", "--arch", TINY_ARCH]) == 0
        out = capsys.readouterr().out
        assert "latency (model)" in out
        assert "multi-adds" in out

    def test_malformed_arch(self):
        with pytest.raises(SystemExit):
            main(["predict", "--tiny", "--arch", "1,banana"])

    def test_wrong_length_arch(self):
        with pytest.raises(SystemExit):
            main(["predict", "--tiny", "--arch", "1,2"])


class TestEvaluate:
    def test_emits_json_row(self, capsys):
        assert main(["evaluate", "--tiny", "--arch", TINY_ARCH,
                     "--name", "probe"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "probe"
        assert 0 < payload["top1"] <= 100


class TestSearch:
    def test_tiny_search_outputs_json(self, capsys, tmp_path):
        output = tmp_path / "result.json"
        assert main(["search", "--tiny", "--target", "2.3", "--seed", "0",
                     "--output", str(output)]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        assert "architecture" in stdout_payload
        assert abs(stdout_payload["true_latency_ms"] - 2.3) < 0.3
        with open(output) as handle:
            assert json.load(handle) == stdout_payload

    def test_tiny_honors_epochs(self, capsys):
        """Regression: --tiny used to silently ignore --epochs."""
        assert main(["search", "--tiny", "--target", "2.3", "--seed", "0",
                     "--epochs", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # tiny config: 4 α steps per epoch, 2 warmup epochs
        assert payload["num_search_steps"] == (3 - 2) * 4

    def test_tiny_rejects_unsupported_metric(self):
        """Regression: --tiny used to silently ignore --metric."""
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--tiny", "--target", "2.3", "--metric", "energy"])
        assert "--metric latency only" in str(excinfo.value)


class TestSweep:
    def test_resume_requires_checkpoint_dir(self):
        """Regression: sweep --resume without --checkpoint-dir used to be
        silently ignored (the flag was only read inside the checkpoint-dir
        branch) — it must abort loudly like search does."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--tiny", "--targets", "2.0,2.5", "--resume"])
        assert "--checkpoint-dir" in str(excinfo.value)

    def test_jobs_matches_sequential_and_delimits_journal(self, capsys,
                                                          tmp_path):
        base = ["sweep", "--tiny", "--targets", "2.0,2.5", "--seed", "0",
                "--epochs", "20"]
        assert main(base) == 0
        sequential = capsys.readouterr().out

        trace = str(tmp_path / "sweep.jsonl")
        assert main(base + ["--jobs", "2", "--trace", trace]) == 0
        captured = capsys.readouterr()
        assert captured.out == sequential  # bit-identical table
        assert "fleet:" in captured.err

        events = [json.loads(line) for line in open(trace)]
        headers = [e for e in events if e["event"] == "task_header"]
        assert [h["name"] for h in headers] == ["target_2", "target_2.5"]
        assert [h["target"] for h in headers] == [2.0, 2.5]

        assert main(["trace-summary", trace]) == 0
        summary = capsys.readouterr().out
        assert "run fleet" in summary
        assert "fleet task" in summary

    def test_sequential_journal_delimits_targets(self, capsys, tmp_path):
        """Regression: one shared sweep journal had no per-target
        delimiter, so trace-summary could not attribute epochs."""
        trace = str(tmp_path / "seq.jsonl")
        assert main(["sweep", "--tiny", "--targets", "2.0,2.5",
                     "--epochs", "20", "--trace", trace]) == 0
        capsys.readouterr()
        events = [json.loads(line) for line in open(trace)]
        headers = [e for e in events if e["event"] == "task_header"]
        assert [h["target"] for h in headers] == [2.0, 2.5]


class TestStability:
    def test_grid_runs_and_reports(self, capsys, tmp_path):
        output = tmp_path / "stability.json"
        assert main(["stability", "--tiny", "--targets", "2.0",
                     "--seeds", "0,1", "--epochs", "20", "--jobs", "2",
                     "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "multi-seed stability" in out
        with open(output) as handle:
            payload = json.load(handle)
        assert payload["seeds"] == [0, 1]
        assert len(payload["runs"]) == 2
        assert {run["seed"] for run in payload["runs"]} == {0, 1}

    def test_rejects_duplicate_seeds(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["stability", "--tiny", "--targets", "2.0",
                  "--seeds", "0,0"])
        assert "duplicate" in str(excinfo.value)


class TestFleetCalibrate:
    def test_writes_transfer_payload(self, capsys, tmp_path):
        output = tmp_path / "maps.json"
        assert main(["fleet", "calibrate", "--tiny",
                     "--fleet", "phone=2", "--calibration", "30",
                     "--jobs", "2", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "proxy transfer maps" in out
        with open(output) as handle:
            payload = json.load(handle)
        assert set(payload["maps"]) == {"phone-00", "phone-01"}


class TestRuntimeFlags:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["search", "--tiny", "--target", "2.3", "--resume"])
        assert "--checkpoint-dir" in str(excinfo.value)

    def test_checkpoint_resume_trace_round_trip(self, capsys, tmp_path):
        ckpt_dir = str(tmp_path / "ckpts")
        trace = str(tmp_path / "run.jsonl")
        args = ["search", "--tiny", "--target", "2.3", "--seed", "0",
                "--epochs", "3", "--checkpoint-dir", ckpt_dir,
                "--checkpoint-every", "1", "--trace", trace]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert len(glob.glob(os.path.join(ckpt_dir, "*.npz"))) == 3

        # drop the newest checkpoint so the resume really replays an epoch
        os.remove(sorted(glob.glob(os.path.join(ckpt_dir, "*.npz")))[-1])
        assert main(args + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "resuming from" in captured.err
        assert json.loads(captured.out) == first

        assert main(["trace-summary", trace]) == 0
        summary = capsys.readouterr().out
        assert "lightnas" in summary
        assert "resumed" in summary
        with open(trace) as handle:
            events = [json.loads(line) for line in handle]
        assert not any("plan_stats" in event for event in events)

    def test_trace_summary_reads_plan_stats_journal(self, capsys, tmp_path):
        """Journals from the plan-compiled search carry ``plan_stats`` in
        epoch and run_end events; trace-summary still digests them."""
        stats = {"plans_compiled": 1, "replays": 0, "eager_steps": 17,
                 "arena_bytes": 10004664, "kernels_fused": 93,
                 "fusion_rejected": 15, "epoch_plans_compiled": 0,
                 "epoch_plan_hits": 0, "epoch_plan_invalidations": 0}
        events = [
            {"event": "run_header", "elapsed_s": 0.0, "engine": "lightnas",
             "mode": "supernet", "metric_name": "latency_ms", "target": 2.3,
             "seed": 0, "epochs": 1, "start_epoch": 0},
            {"event": "epoch", "elapsed_s": 0.2, "epoch": 0,
             "predicted_metric": 2.17, "target": 2.3, "lambda": 0.0,
             "tau": 5.0, "valid_loss": 2.64, "architecture": [0, 0, 0, 0],
             "wall_time_s": 0.17, "plan_stats": stats},
            {"event": "run_end", "elapsed_s": 0.7,
             "final_predicted_metric": 2.28, "final_lambda": -0.003,
             "constraint_error": 0.007, "architecture": [4, 6, 5, 0],
             "num_search_steps": 4, "wall_time_s": 0.67,
             "phase_timers": {"derive": {"total_s": 0.1, "calls": 1}},
             "plan_stats": stats},
        ]
        trace = tmp_path / "legacy.jsonl"
        trace.write_text("".join(json.dumps(e) + "\n" for e in events))
        assert main(["trace-summary", str(trace)]) == 0
        summary = capsys.readouterr().out
        assert "4,6,5,0" in summary
        assert "1 compiled, 0 replays" in summary
