import json
import sys
import types

import numpy as np
import pytest

from ratapprox.cli import main
from ratapprox.serialize import load_model, save_model


def run(*argv):
    return main(list(argv))


class TestSample:
    def test_structured_csv(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run("sample", "--grid", "structured", "--nx", "11", "--ny", "5",
                   "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ratapprox v")
        assert lines[1] == "re_s,im_s,re_f,im_f"
        assert len(lines) == 2 + 55

    def test_uniform_deterministic_bytes(self, tmp_path, monkeypatch):
        # identical flags must give identical bytes, metadata line included
        dirs = []
        for name in ("run1", "run2"):
            d = tmp_path / name
            d.mkdir()
            monkeypatch.chdir(d)
            run("sample", "--grid", "uniform", "--pairs", "30", "--seed", "7",
                "--out", "s.csv")
            dirs.append(d)
        assert (dirs[0] / "s.csv").read_bytes() == (dirs[1] / "s.csv").read_bytes()


class TestFitEvalPolesProject:
    @pytest.fixture()
    def sample_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        run("sample", "--grid", "structured", "--nx", "21", "--ny", "5", "--out", str(path))
        return path

    def test_loewner_round_trip(self, sample_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        assert run("fit", "--method", "loewner", "--in", str(sample_csv),
                   "--order", "8", "--out", str(model_path)) == 0
        assert model_path.exists()
        assert (tmp_path / "m.singular_values.csv").exists()
        model = load_model(model_path)
        assert model.order == 8
        sv_lines = (tmp_path / "m.singular_values.csv").read_text().splitlines()
        # the 105 samples split into a 52 x 53 pencil; small enough for a full SVD
        assert sv_lines[1] == "# leading 52 of 52 singular values of [L, Ls]"
        assert sv_lines[2] == "index,sigma,sigma_normalized"
        assert len(sv_lines) == 3 + 52

        assert run("eval", "--model", str(model_path), "--nx", "50", "--ny", "21",
                   "--out-prefix", str(tmp_path / "m")) == 0
        summary = json.loads((tmp_path / "m.summary.json").read_text())
        assert summary["max_error"] < 1e-4
        assert (tmp_path / "m.errors.csv").exists()
        assert (tmp_path / "m.heatmap.svg").exists()

        assert run("poles", "--model", str(model_path), "--match-bessel") == 0
        captured = capsys.readouterr().out
        assert "poles (8):" in captured
        assert "2.40482555769577 ->" in captured

    def test_project_reports_compression(self, sample_csv, capsys):
        assert run("project", "--in", str(sample_csv), "--order", "8") == 0
        out = capsys.readouterr().out
        assert "compression: 105 -> 16" in out

    @pytest.mark.parametrize("method", ["rloewner", "aaa", "vf"])
    def test_other_methods_write_history(self, sample_csv, tmp_path, method):
        model_path = tmp_path / f"{method}.json"
        order = {"rloewner": "6", "aaa": "12", "vf": "6"}[method]
        args = ["fit", "--method", method, "--in", str(sample_csv),
                "--order", order, "--out", str(model_path)]
        if method == "aaa":
            args = args[:5] + ["--tol", "1e-10"] + args[5:]
        assert run(*args) == 0
        assert model_path.exists()
        assert (tmp_path / f"{method}.history.csv").exists()
        if method == "aaa":
            support = (tmp_path / "aaa.support.csv").read_text().splitlines()
            assert support[1] == "re_s,im_s"
            assert len(support) >= 4
        model = load_model(model_path)
        assert abs(model.eval(4.0 + 0.3j)) > 0

    def test_fit_deterministic_bytes(self, sample_csv, tmp_path, monkeypatch):
        dirs = []
        for name in ("run1", "run2"):
            d = tmp_path / name
            d.mkdir()
            monkeypatch.chdir(d)
            run("fit", "--method", "rloewner", "--in", str(sample_csv),
                "--order", "5", "--seed", "3", "--out", "m.json")
            dirs.append(d)
        assert (dirs[0] / "m.history.csv").read_bytes() == (dirs[1] / "m.history.csv").read_bytes()
        assert (dirs[0] / "m.json").read_bytes() == (dirs[1] / "m.json").read_bytes()


class TestTrajectories:
    def test_writes_per_step_points(self, tmp_path):
        prefix = tmp_path / "traj"
        assert run("trajectories", "--a", "4", "--steps", "2", "--order", "3",
                   "--out-prefix", str(prefix)) == 0
        lines = (tmp_path / "traj.trajectories.csv").read_text().splitlines()
        assert lines[1] == "step,nx,ny,n_points,side,re,im"
        # 2 steps x (3 right + 3 left) points
        assert len(lines) == 2 + 12
        assert lines[2].startswith("1,4,5,20,right,")


class TestCompare:
    def test_small_compare(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        run("sample", "--grid", "structured", "--nx", "21", "--ny", "5", "--out", str(sample))
        assert run("compare", "--in", str(sample), "--orders", "8,6,12,6",
                   "--tol", "1e-10", "--nx", "40", "--ny", "15",
                   "--out-prefix", str(tmp_path / "cmp")) == 0
        assert (tmp_path / "cmp.compare.csv").exists()
        assert (tmp_path / "cmp.compare.txt").exists()
        out = capsys.readouterr().out
        assert "loewner" in out and "rloewner" in out and "aaa" in out and "vf" in out


class TestThreadCap:
    def run_sample(self, tmp_path):
        return run("sample", "--grid", "structured", "--nx", "5", "--ny", "3",
                   "--out", str(tmp_path / "s.csv"))

    def test_warns_when_threadpoolctl_missing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RATAPPROX_THREADS", "1")
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import now fails
        assert self.run_sample(tmp_path) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("ratapprox: warning: RATAPPROX_THREADS=1 not applied")

    def test_applies_limit_through_threadpoolctl(self, tmp_path, monkeypatch, capsys):
        seen = []
        fake = types.ModuleType("threadpoolctl")
        fake.threadpool_limits = lambda limits=None: seen.append(limits)
        monkeypatch.setenv("RATAPPROX_THREADS", "2")
        monkeypatch.setitem(sys.modules, "threadpoolctl", fake)
        assert self.run_sample(tmp_path) == 0
        assert seen == [2]
        assert capsys.readouterr().err == ""


class TestErrors:
    def test_nan_sample_reports_sample_error(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        sample.write_text("re_s,im_s,re_f,im_f\n1,0,1,0\n2,0,nan,0\n3,0,1,0\n4,0,1,0\n")
        assert run("fit", "--method", "loewner", "--in", str(sample),
                   "--order", "1", "--out", str(tmp_path / "x.json")) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "SampleError"

    def test_missing_file_reports_json(self, capsys):
        assert run("fit", "--method", "loewner", "--in", "no_such.csv",
                   "--order", "3", "--out", "x.json") == 1
        err = capsys.readouterr().err
        payload = json.loads(err.strip())
        assert payload["error"] == "FileNotFoundError"

    def test_bad_flags_report_json(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        run("sample", "--grid", "structured", "--nx", "5", "--ny", "3", "--out", str(sample))
        assert run("fit", "--method", "loewner", "--in", str(sample),
                   "--order", "3", "--tol", "0.5", "--out", "x.json") == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ValueError"


class TestSerialize:
    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "mystery"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_state_space_round_trip_exact(self, tmp_path):
        from conftest import rational_samples
        from ratapprox import build_pencil, partition, truncate

        samples, *_ = rational_samples(3, 0, n_pairs=12)
        model = truncate(build_pencil(partition(samples)), order=3).model
        path = tmp_path / "m.json"
        save_model(model, path, meta={"note": "test"})
        loaded = load_model(path)
        assert np.array_equal(loaded.E, model.E)
        assert np.array_equal(loaded.A, model.A)
        assert np.array_equal(loaded.B, model.B)
        assert np.array_equal(loaded.C, model.C)
