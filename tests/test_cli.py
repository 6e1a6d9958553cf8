import dataclasses
import json
import shlex
import sys
import tempfile
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ratapprox import aaa, cli, linalg, loewner, vectorfit
from ratapprox.cli import main
from ratapprox.errors import PoleError, RatApproxError, SampleError
from ratapprox.serialize import load_model, save_model
from ratapprox.special import SERIES_RADIUS


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

    def test_seed_text_in_the_command_line_is_not_the_seed(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run("sample", "--grid", "uniform", "--pairs", "20", "--seed", "3", "--out", "seed=3.csv") == 0
        assert run("fit", "--method", "vf", "--order", "4", "--in", "seed=3.csv", "--out", "m.json") == 0

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

    @pytest.mark.parametrize("grid", ["structured", "uniform"])
    def test_domain_bounds_every_point(self, tmp_path, grid):
        out = tmp_path / "s.csv"
        assert run("sample", "--grid", grid, "--nx", "6", "--ny", "3", "--pairs", "20",
                   "--domain", "0,5,-1,1", "--out", str(out)) == 0
        re_s, im_s = np.loadtxt(out, delimiter=",", comments="#", skiprows=2, usecols=(0, 1)).T
        assert re_s.size == (18 if grid == "structured" else 40)
        assert np.all((re_s >= 0) & (re_s <= 5) & (im_s >= -1) & (im_s <= 1))


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

    def test_sketched_loewner_fit_writes_the_singular_values_of_the_shifted_pencil(self, tmp_path):
        samples_path, model_path = tmp_path / "s.csv", tmp_path / "m.json"
        run("sample", "--grid", "structured", "--nx", "101", "--ny", "21", "--out", str(samples_path))
        assert run("fit", "--method", "loewner", "--in", str(samples_path), "--order", "11",
                   "--out", str(model_path)) == 0
        sv_lines = (tmp_path / "m.singular_values.csv").read_text().splitlines()
        # the 1060 x 1061 pencil is sketched: 31 values of the one matrix x L - Ls
        assert sv_lines[1] == "# leading 31 of 1060 singular values of x L - Ls at x = 0"
        assert len(sv_lines) == 3 + 31

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
    def test_writes_per_step_points(self, tmp_path, capsys):
        prefix = tmp_path / "traj"
        assert run("trajectories", "--a", "4", "--steps", "2", "--order", "3",
                   "--out-prefix", str(prefix)) == 0
        lines = (tmp_path / "traj.trajectories.csv").read_text().splitlines()
        assert lines[1] == "step,nx,ny,n_points,side,re,im"
        # 2 steps x (3 right + 3 left) points
        assert len(lines) == 2 + 12
        assert lines[2].startswith("1,4,5,20,right,")
        # per step: the largest distance from a right point to its nearest left point
        out = capsys.readouterr().out.splitlines()
        for i, (nx, ny, n) in enumerate(((4, 5, 20), (8, 9, 72)), start=1):
            rows = [line.split(",") for line in lines[2:] if line.startswith(f"{i},")]
            right = [complex(float(r[5]), float(r[6])) for r in rows if r[4] == "right"]
            left = np.array([complex(float(r[5]), float(r[6])) for r in rows if r[4] == "left"])
            gap = max(np.min(np.abs(left - z)) for z in right)
            assert out[i - 1] == (f"step {i}: {nx}x{ny} grid ({n} points), "
                                  f"worst left/right pairing gap {gap:.3e}")


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

    def test_invalid_order_gives_an_error_row_in_a_full_table(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        run("sample", "--grid", "structured", "--nx", "21", "--ny", "5", "--out", str(sample))
        assert run("compare", "--in", str(sample), "--orders", "4,4,0,4", "--nx", "10", "--ny", "5",
                   "--out-prefix", str(tmp_path / "cmp")) == 0
        rows = [line.split(",", 6) for line in (tmp_path / "cmp.compare.csv").read_text().splitlines()[2:]]
        assert [row[0] for row in rows] == ["loewner", "rloewner", "aaa", "vf"]
        status = {row[0]: row[6] for row in rows}
        assert status["aaa"] == "error: order must be at least 1"
        assert all(status[m] == "ok" for m in ("loewner", "rloewner", "vf"))


class TestErrors:
    def test_nan_sample_reports_sample_error(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        sample.write_text("re_s,im_s,re_f,im_f\n1,0,1,0\n2,0,nan,0\n3,0,1,0\n4,0,1,0\n")
        assert run("fit", "--method", "loewner", "--in", str(sample),
                   "--order", "1", "--out", str(tmp_path / "x.json")) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "SampleError"

    def test_repeated_sample_row_reports_sample_error(self, tmp_path, capsys):
        sample = tmp_path / "s.csv"
        sample.write_text("re_s,im_s,re_f,im_f\n1,0,1,0\n2,0,0.5,0\n2,0,0.5,0\n3,0,1,0\n")
        assert run("fit", "--method", "loewner", "--in", str(sample),
                   "--order", "1", "--out", str(tmp_path / "x.json")) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "SampleError", "message": "duplicate sample points"}

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
        assert payload == {"error": "SettingError", "message": "specify exactly one of order= and tol="}

    @pytest.fixture()
    def small_csv(self, tmp_path):
        path = tmp_path / "s.csv"
        run("sample", "--grid", "structured", "--nx", "11", "--ny", "5", "--out", str(path))
        return path

    @pytest.mark.parametrize("method, flags", [
        ("vf", ["--order", "0"]),
        ("rloewner", ["--order", "0"]),
        ("aaa", ["--order", "0"]),
        ("aaa", ["--tol", "0"]),
        ("loewner", ["--order", "0"]),
        ("loewner", ["--tol", "0"]),
        ("aaa", ["--tol", "nan"]),
        ("vf", ["--iters", "-1"]),
        ("rloewner", ["--seed", "-1"]),
        ("aaa", ["--seed", "-1", "--seed-random"]),
    ])
    def test_zero_is_a_value_not_the_default(self, small_csv, tmp_path, capsys, method, flags):
        out = tmp_path / "m.json"
        assert run("fit", "--method", method, "--in", str(small_csv), *flags, "--out", str(out)) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "SettingError"
        assert flags[0].lstrip("-") in payload["message"]
        assert not out.exists()

    def test_eval_writes_an_infinite_max_error_as_null_in_strict_json(self, tmp_path):
        # the denominator w / (s - 4) + w / (s - 6) is exactly 0 at s = 5, a point of the 11 x 3 grid
        model = aaa.BarycentricModel(support_points=[4.0, 6.0], support_values=[1.0, 2.0],
                                     weights=np.array([1.0, 1.0]) / np.sqrt(2.0))
        save_model(model, tmp_path / "m.json")
        assert run("eval", "--model", str(tmp_path / "m.json"), "--nx", "11", "--ny", "3",
                   "--out-prefix", str(tmp_path / "m")) == 0

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        summary = json.loads((tmp_path / "m.summary.json").read_text(), parse_constant=refuse)
        assert summary["max_error"] is None
        assert summary["argmax"] == [5.0, 0.0]

    def test_eval_domain_beyond_the_oracle_radius(self, small_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        assert run("fit", "--method", "loewner", "--in", str(small_csv), "--order", "4", "--out", str(model)) == 0
        x_max = 1.5 * SERIES_RADIUS
        assert run("eval", "--model", str(model), "--nx", "5", "--ny", "3", "--domain", f"0,{x_max},-1,1",
                   "--out-prefix", str(tmp_path / "m")) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "EvaluationDomainError"

    @pytest.mark.parametrize("argv", [
        ["compare", "--in", "s.csv", "--nx", "1"],  # the oracle grid
        ["sample", "--nx", "1", "--out", "out.csv"],  # the structured grid
        ["sample", "--grid", "uniform", "--pairs", "0", "--out", "out.csv"],
        ["trajectories", "--a", "2", "--out-prefix", "t"],
        ["trajectories", "--steps", "0", "--out-prefix", "t"],
        ["compare", "--in", "s.csv", "--orders", "1,2"],
        ["compare", "--in", "s.csv", "--orders", "1,2,x,4"],
    ])
    def test_bad_sizes_are_setting_errors(self, small_csv, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(small_csv.parent)
        before = set(tmp_path.iterdir())
        assert run(*argv) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "SettingError"
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("cancel_tol", ["nan", "-1"])
    def test_bad_cancel_tol_is_a_setting_error(self, small_csv, tmp_path, capsys, cancel_tol):
        model = tmp_path / "vf.json"
        assert run("fit", "--method", "vf", "--in", str(small_csv), "--order", "6", "--out", str(model)) == 0
        capsys.readouterr()
        assert run("poles", "--model", str(model), "--cancel-tol", cancel_tol) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err.strip())["error"] == "SettingError"
        assert captured.out == ""

    @pytest.mark.parametrize("domain", ["0,inf,-1,1", "1,0,-1,1", "1,2,3"])
    @pytest.mark.parametrize("argv", [
        ["sample", "--out", "s.csv"],
        ["eval", "--model", "m.json", "--out-prefix", "m"],
        ["trajectories", "--out-prefix", "t"],
    ])
    def test_bad_domain_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, domain):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            run(*argv, "--domain", domain)
        assert info.value.code == 2
        assert "--domain" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("method, flags", [
        ("vf", ["--tol", "1e-3"]),
        ("aaa", ["--iters", "3"]),
        ("rloewner", ["--scheme", "half_split"]),
        ("loewner", ["--real-mode"]),
        ("vf", ["--cleanup"]),
        ("loewner", ["--seed-random"]),
    ])
    def test_flag_the_method_does_not_use_is_rejected(self, small_csv, tmp_path, capsys, method, flags):
        out = tmp_path / "m.json"
        assert run("fit", "--method", method, "--in", str(small_csv), *flags, "--out", str(out)) == 1
        assert json.loads(capsys.readouterr().err.strip())["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.parametrize("method, order", [("loewner", 4), ("rloewner", 4), ("aaa", 6), ("vf", 4)])
    def test_seed_labels_every_method(self, small_csv, tmp_path, method, order):
        out = tmp_path / "m.json"
        assert run("fit", "--method", method, "--in", str(small_csv), "--order", str(order),
                   "--seed", "5", "--out", str(out)) == 0
        assert json.loads(out.read_text())["meta"]["seed"] == 5


def test_readme_command_lines_parse():
    """Every ``ratapprox`` line of the README's command-line block is accepted by the parser."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("ratapprox ")]
    rejected = []
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv[1:])
        except SystemExit:
            rejected.append(" ".join(argv))
    assert rejected == []
    assert {argv[1] for argv in commands} == set(cli._COMMANDS)


class TestSerialize:
    def test_unknown_type_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"type": "mystery"}')
        with pytest.raises(ValueError):
            load_model(path)

    def test_missing_field_is_a_sample_error(self, tmp_path):
        path = tmp_path / "ss.json"
        save_model(loewner.StateSpaceModel(E=np.eye(2), A=np.eye(2), B=[1.0, 2.0], C=[1.0, 0.5]), path)
        doc = json.loads(path.read_text())
        del doc["A"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SampleError, match="lacks A"):
            load_model(path)

    @pytest.mark.parametrize("build, got", [
        (lambda: loewner.StateSpaceModel(E=np.eye(2), A=np.eye(3), B=[1.0, 2.0], C=[1.0, 0.5]),
         "got {'E': (2, 2), 'A': (3, 3), 'B': (2,), 'C': (2,)}"),
        (lambda: loewner.StateSpaceModel(E=np.eye(2), A=np.eye(2), B=[1.0, 2.0, 3.0], C=[1.0, 0.5]),
         "got {'E': (2, 2), 'A': (2, 2), 'B': (3,), 'C': (2,)}"),
        (lambda: loewner.StateSpaceModel(E=np.ones((2, 3)), A=np.ones((2, 3)), B=[1.0, 2.0], C=[1.0, 0.5]),
         "got {'E': (2, 3), 'A': (2, 3), 'B': (2,), 'C': (2,)}"),
        (lambda: aaa.BarycentricModel(support_points=[1.0, 2.0, 3.0], support_values=[1.0], weights=[1.0, 1.0, 1.0]),
         "got {'support_points': (3,), 'support_values': (1,), 'weights': (3,)}"),
        (lambda: aaa.BarycentricModel(support_points=[1.0, 2.0], support_values=[1.0, 2.0], weights=[1.0]),
         "got {'support_points': (2,), 'support_values': (2,), 'weights': (1,)}"),
        (lambda: vectorfit.PoleResidueModel(poles=[1j, -1j], residues=[1.0], d=0.0, h=0.0),
         "got {'poles': (2,), 'residues': (1,)}"),
    ])
    def test_fields_of_mismatched_shapes_are_a_sample_error(self, build, got):
        with pytest.raises(SampleError, match="fields need shapes") as info:
            build()
        assert str(info.value).endswith(got)

    @pytest.mark.parametrize("command", ["eval", "poles"])
    @pytest.mark.parametrize("key, value", [("values", [[1.0, 0.0]]),  # fewer values than support points
                                            ("support", [[1.0, 0.0], [1.0, 0.0]]),
                                            ("weights", [[0.0, 0.0], [0.0, 0.0]]),
                                            ("type", "mystery")])
    def test_a_malformed_model_file_exits_1_with_a_sample_error(self, tmp_path, capsys, command, key, value):
        path = tmp_path / "m.json"
        save_model(aaa.BarycentricModel(support_points=[1.0, 2.0], support_values=[1.0, 3.0],
                                        weights=[0.6, 0.8]), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        extra = ["--nx", "20", "--ny", "5", "--out-prefix", str(tmp_path / "m")] if command == "eval" else []
        assert run(command, "--model", str(path), *extra) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.err.strip())["error"] == "SampleError"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

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


_complexes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


def _vectors(n, unique=False):
    return hnp.arrays(complex, n, elements=_complexes, unique=unique)


@st.composite
def _state_space(draw):
    r = draw(st.integers(1, 5))
    square = hnp.arrays(complex, (r, r), elements=_complexes)
    return loewner.StateSpaceModel(E=draw(square), A=draw(square), B=draw(_vectors(r)), C=draw(_vectors(r)))


@st.composite
def _barycentric(draw):
    m = draw(st.integers(1, 6))
    return aaa.BarycentricModel(support_points=draw(_vectors(m, unique=True)),
                                support_values=draw(_vectors(m)),
                                weights=draw(_vectors(m).filter(np.any)))


@st.composite
def _pole_residue(draw):
    r = draw(st.integers(1, 6))
    reals = st.floats(-1e3, 1e3)
    return vectorfit.PoleResidueModel(poles=draw(_vectors(r)), residues=draw(_vectors(r)),
                                      d=draw(reals), h=draw(st.just(0.0) | reals))


# each type: strategy, JSON field keys in file order, module-level poles/zeros
_MODEL_CASES = {
    "state_space": (_state_space(), ["E", "A", "B", "C"],
                    lambda m: (loewner.poles(m), loewner.zeros(m))),
    "barycentric": (_barycentric(), ["support", "values", "weights"], aaa.barycentric_poles_zeros),
    "pole_residue": (_pole_residue(), ["poles", "residues", "d", "h"], vectorfit.pr_poles_zeros),
}


def _outcome(fn):
    try:
        return fn()
    except RatApproxError as exc:
        return exc


class TestModelProtocol:
    @pytest.mark.parametrize("kind", sorted(_MODEL_CASES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_round_trip_poles_zeros_and_eval(self, kind, data):
        strategy, keys, module_poles_zeros = _MODEL_CASES[kind]
        model = data.draw(strategy)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.json"
            save_model(model, path, meta={"note": "test"})
            doc = json.loads(path.read_text())
            loaded = load_model(path)

        assert list(doc) == ["type", "order", *keys, "meta"]
        assert doc["type"] == kind and doc["order"] == model.order == loaded.order
        for field in dataclasses.fields(model):
            before, after = getattr(model, field.name), getattr(loaded, field.name)
            assert type(after) is type(before)
            assert np.array_equal(after, before), field.name

        want, got = _outcome(lambda: module_poles_zeros(loaded)), _outcome(loaded.poles_zeros)
        if isinstance(want, Exception):
            assert type(got) is type(want)
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))

        # eval through the chunk helper: a scalar is a one-point chunk and a
        # batch is its chunks joined, also at a support point (stored value)
        # and at a stored pole (PoleError at the first offending point)
        points = data.draw(_vectors(st.integers(1, 7)))
        if kind == "barycentric":
            points = np.append(points, loaded.support_points[0])
            assert loaded.eval(loaded.support_points[0]) == loaded.support_values[0]
        if kind == "pole_residue":
            points = np.append(points, loaded.poles[0])
            with pytest.raises(PoleError):
                loaded.eval(loaded.poles[0])
        with mock.patch.object(linalg, "_EVAL_CHUNK", 3):
            batch = _outcome(lambda: loaded.eval(points.reshape(1, -1)))
            parts = [_outcome(lambda c=points[i : i + 3]: loaded.eval(c)) for i in range(0, points.size, 3)]
        singles = [_outcome(lambda p=p: loaded.eval(p)) for p in points]
        failed = [p for p, v in zip(points, singles) if isinstance(v, Exception)]
        if failed:
            assert isinstance(batch, PoleError) and batch.point == failed[0]
        else:
            assert batch.shape == (1, points.size)
            assert np.array_equal(batch[0], np.concatenate(parts), equal_nan=True)
            for p, value in zip(points, singles):
                assert type(value) is complex
                assert np.array_equal(loaded.eval(np.array([p])), [value], equal_nan=True)

    @pytest.mark.parametrize("kind", sorted(_MODEL_CASES) + ["state_space_modal"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_a_point_has_the_same_bits_alone_and_in_a_batch(self, kind, data):
        # state_space draws random pencils; state_space_modal draws realizations of
        # conjugate-symmetric rational functions with points both inside the LU
        # discs around the poles and outside them, where the modal sum serves
        if kind == "state_space_modal":
            from conftest import conjugate_state_space

            model, *_ = conjugate_state_space(data.draw(st.integers(2, 8)), data.draw(st.integers(0, 999)))
            modal = model.modal
            near = modal.poles + 0.5 * modal.radii * np.exp(2j * np.pi * data.draw(st.floats(0, 1)))
            points = np.concatenate([near, data.draw(_vectors(st.integers(1, 7)))])
            far = ~np.any(np.abs(points[:, None] - modal.poles) <= modal.radii, axis=1)
            assert not far[: near.size].any()
        else:
            model = data.draw(_MODEL_CASES[kind][0])
            points = data.draw(_vectors(st.integers(2, 12)))
        singles = [_outcome(lambda p=p: model.eval(p)) for p in points]
        if any(isinstance(v, Exception) for v in singles):
            return
        whole = model.eval(points)
        with mock.patch.object(linalg, "_EVAL_CHUNK", 3):
            chunked = model.eval(points)
        for i, value in enumerate(singles):
            assert np.array([value]).tobytes() == whole[i : i + 1].tobytes() == chunked[i : i + 1].tobytes()
