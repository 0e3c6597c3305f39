import csv
import json

import numpy as np
import pytest

from p2amg.bench_cli import (
    ExperimentConfig,
    SolverEntry,
    build_case,
    emit_tables,
    load_config,
    main,
    render_markdown,
    run_experiment,
)
from p2amg.errors import InvalidParameter

#: Columns that vary from run to run.
TIMINGS = {"wall_ms", "smoother_setup_ms"}


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def tiny_config(**overrides):
    raw = {
        "problem": "vector_laplace",
        "levels": [2],
        "solvers": [{"method": "amg", "cycle": "V", "smoother": "GS-2-2"}],
    }
    raw.update(overrides)
    return load_config(raw)


@pytest.mark.parametrize(
    "smoother",
    ["JA-1-1-0.5", "GS-2-2", "sGS-2-2", "Braess-Sarazin-1-1", "Vanka"],
)
def test_all_paper_smoother_strings_parse(smoother):
    cfg = tiny_config(solvers=[{"method": "amg", "smoother": smoother}])
    assert len(cfg.solvers) == 1


@pytest.mark.parametrize("precond,cycles", [("1 V-cycle", 1), ("2 V-cycles", 2), (3, 3)])
def test_precond_cycle_strings_parse(precond, cycles):
    cfg = tiny_config(
        solvers=[
            {
                "method": "gmres",
                "smoother": "Braess-Sarazin-1-1",
                "precond": precond,
            }
        ]
    )
    assert cfg.solvers[0].precond_cycles == cycles


def test_config_defaults():
    cfg = tiny_config()
    assert cfg.levels == (2,)
    assert cfg.default_tolerance == 1e-11
    saddle = tiny_config(problem="stokes")
    assert saddle.default_tolerance == 1e-9
    assert not cfg.is_ablation
    assert tiny_config(coarsening="monolithic").is_ablation


def test_config_errors():
    with pytest.raises(InvalidParameter):
        load_config({"solvers": []})
    with pytest.raises(InvalidParameter):
        load_config({"problem": "heat", "solvers": []})
    with pytest.raises(InvalidParameter):
        tiny_config(solvers=[{"method": "qmr", "smoother": "GS-1-1"}])
    with pytest.raises(InvalidParameter) as err:
        tiny_config(solvers=[{"method": "amg", "smoother": "NOPE-1"}])
    assert "solvers[0]" in str(err.value)
    with pytest.raises(InvalidParameter):
        tiny_config(coarsening="fancy")


def test_config_json_syntax_diagnostics(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"problem": "stokes",\n  "solvers": [}\n')
    with pytest.raises(InvalidParameter) as err:
        load_config(str(path))
    assert "line 2" in str(err.value)


def test_build_case_shapes():
    mesh, spec = build_case("vector_laplace", 2)
    assert mesh.n_vertices == 27
    mesh, spec = build_case("stokes", 2, mu=0.5)
    assert np.allclose(mesh.vertices.max(axis=0), [2.0, 1.0, 1.0])
    assert spec.mu == 0.5


def test_run_experiment_rows():
    cfg = tiny_config(
        levels=[2, 4],
        solvers=[
            {"method": "amg", "cycle": "V", "smoother": "GS-2-2"},
            {"method": "pcg", "cycle": "V", "smoother": "GS-2-2"},
        ],
    )
    rows = run_experiment(cfg)
    assert len(rows) == 4
    assert all(row["converged"] for row in rows)
    # reference values only attach to the canonical refinement family
    by_n = {(r["n"], r["solver"]): r for r in rows}
    assert by_n[(2, "AMG-V")]["paper_ref_value"] == ""
    assert by_n[(4, "AMG-V")]["paper_ref_value"] == 23
    assert by_n[(4, "PCG (1 V-cycle)")]["paper_ref_value"] == 17


def test_standalone_row_reports_the_formed_residual(monkeypatch):
    # a stand-alone GS row's final residual is ||b - A x|| / ||b|| of the
    # returned iterate, not the residual the cycles carried
    from p2amg import bench_cli

    solves = []
    solve = bench_cli.solve_amg

    def recording_solve(hierarchy, rhs, *args):
        x, report = solve(hierarchy, rhs, *args)
        solves.append((hierarchy.levels[0].operator, rhs, x))
        return x, report

    monkeypatch.setattr(bench_cli, "solve_amg", recording_solve)
    (row,) = run_experiment(tiny_config(levels=[4]))
    (a, b, x), = solves
    assert row["converged"]
    assert row["final_rel_residual"] == np.linalg.norm(b - a @ x) / np.linalg.norm(b)


def test_solver_entries_share_smoothers(monkeypatch):
    # GS-1-1 and GS-2-2 build the same smoother state (kind and omega), so
    # each level builds it once; every row equals that of its entry run alone
    from p2amg import multigrid

    calls = []
    build = multigrid.make_smoother
    monkeypatch.setattr(
        multigrid, "make_smoother", lambda op, *args: calls.append(op) or build(op, *args)
    )
    solvers = [
        {"method": "amg", "cycle": "V", "smoother": "GS-1-1"},
        {"method": "pcg", "cycle": "V", "smoother": "GS-2-2"},
    ]
    shared = run_experiment(tiny_config(levels=[2, 4], solvers=solvers))
    shared_calls = len(calls)
    alone = [
        row
        for entry in solvers
        for row in run_experiment(tiny_config(levels=[2, 4], solvers=[entry]))
    ]
    assert shared_calls > 0
    assert len({id(op) for op in calls[:shared_calls]}) == shared_calls
    assert len(calls) == 3 * shared_calls

    def cells(rows):
        rows = [{k: v for k, v in row.items() if k not in TIMINGS} for row in rows]
        return sorted(rows, key=lambda row: (row["n"], row["solver"]))

    assert cells(shared) == cells(alone)
    # the two entries of a level share one set, so they show one build time
    for a, b in zip(shared[0::2], shared[1::2]):
        assert a["n"] == b["n"]
        assert a["smoother_setup_ms"] == b["smoother_setup_ms"]
        assert type(a["smoother_setup_ms"]) is float and a["smoother_setup_ms"] > 0.0


def test_cell_out_of_memory_fails_alone(monkeypatch):
    # a MemoryError in one cell's smoother setup gives that cell a failed
    # row; the other rows are those of a run without the failure
    from p2amg import bench_cli

    solvers = [
        {"method": "amg", "cycle": "V", "smoother": "GS-2-2"},
        {"method": "pcg", "cycle": "V", "smoother": "JA-2-2-0.5"},
    ]
    config = tiny_config(levels=[2, 4], solvers=solvers)
    clean = run_experiment(config)
    build = bench_cli.build_level_smoothers

    def build_or_fail(hierarchy, cycle_cfg):
        n_dof = hierarchy.levels[0].n_dof
        if cycle_cfg.smoother.kind.value == "jacobi" and n_dof == clean[3]["dof"]:
            raise MemoryError("Not enough memory to perform factorization.")
        return build(hierarchy, cycle_cfg)

    monkeypatch.setattr(bench_cli, "build_level_smoothers", build_or_fail)
    rows = run_experiment(config)
    assert len(rows) == len(clean) == 4
    failed = rows[3]
    assert (failed["n"], failed["solver"]) == (4, "PCG (1 V-cycle)")
    assert (failed["iterations"], failed["converged"]) == ("MemoryError", False)

    def cells(rows):
        return [{k: v for k, v in row.items() if k not in TIMINGS} for row in rows]

    assert cells(rows[:3]) == cells(clean[:3])
    assert failed["smoother_setup_ms"] == ""
    assert all(type(row["smoother_setup_ms"]) is float for row in rows[:3])


def test_empty_solver_list_is_success(tmp_path):
    cfg = tiny_config(solvers=[])
    rows = run_experiment(cfg)
    assert rows == []
    paths = emit_tables(rows, "both", str(tmp_path))
    assert len(paths) == 2
    assert read_csv(paths[0]) == []
    with open(paths[1]) as fh:
        assert "(no results)" in fh.read()


def test_csv_roundtrip(tmp_path):
    cfg = tiny_config(levels=[2])
    rows = run_experiment(cfg)
    (path,) = emit_tables(rows, "csv", str(tmp_path))
    parsed = read_csv(path)
    assert len(parsed) == len(rows)
    for row, back in zip(rows, parsed):
        for key, value in row.items():
            if isinstance(value, bool):
                assert back[key] == ("true" if value else "false")
            elif isinstance(value, float):
                assert back[key] == f"{value:.6g}"
            else:
                assert back[key] == str(value)


def test_markdown_one_column_per_level():
    cfg = tiny_config(levels=[2, 3])
    rows = run_experiment(cfg)
    md = render_markdown(rows)
    header = md.splitlines()[2]
    assert "L1 (n=2)" in header and "L2 (n=3)" in header


def test_rerun_is_deterministic(tmp_path):
    cfg = tiny_config(levels=[2])
    rows = run_experiment(cfg)
    a = tmp_path / "a"
    b = tmp_path / "b"
    a.mkdir()
    b.mkdir()
    emit_tables(rows, "csv", str(a))

    rows2 = run_experiment(load_config({
        "problem": "vector_laplace",
        "levels": [2],
        "solvers": [{"method": "amg", "cycle": "V", "smoother": "GS-2-2"}],
    }))
    emit_tables(rows2, "csv", str(b))
    csv_a = read_csv(a / "results.csv")
    csv_b = read_csv(b / "results.csv")
    # identical apart from wall-clock timings
    strip = lambda rows: [{k: v for k, v in row.items() if k not in TIMINGS} for row in rows]
    assert strip(csv_a) == strip(csv_b)
    assert all(row[k] for row in csv_a + csv_b for k in TIMINGS)


def test_emit_tables_unwritable_path(tmp_path):
    cfg = tiny_config(levels=[2])
    rows = run_experiment(cfg)
    with pytest.raises(OSError):
        emit_tables(rows, "csv", str(tmp_path / "missing" / "dir"))


def test_main_end_to_end(tmp_path, capsys):
    config = {
        "problem": "vector_laplace",
        "levels": [2],
        "solvers": [{"method": "amg", "cycle": "V", "smoother": "GS-1-1"}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code = main(["run", str(path), "--format", "both", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "results.csv" in out and "results.md" in out
    assert (tmp_path / "results.csv").exists()


def test_main_gmres_entry_exits_zero(tmp_path):
    # GMRES must report converged as a Python bool, or the exit-code
    # check and the CSV both go wrong
    config = {
        "problem": "stokes",
        "levels": [2],
        "solvers": [{"method": "gmres", "smoother": "Braess-Sarazin-1-1"}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 0
    (row,) = read_csv(str(tmp_path / "results.csv"))
    assert row["converged"] == "true"


def test_main_keeps_rows_after_a_cell_error(tmp_path):
    # pointwise JA makes the elasticity PCG preconditioner indefinite
    config = {
        "problem": "elasticity_displacement",
        "levels": [4],
        "mu": 1.15e6,
        "lambda": 1.73e6,
        "solvers": [
            {"method": "pcg", "smoother": "JA-1-1-0.5"},
            {"method": "pcg", "smoother": "GS-2-2"},
        ],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    ja, gs = read_csv(str(tmp_path / "results.csv"))
    assert (ja["iterations"], ja["converged"]) == ("IndefiniteBreakdown", "false")
    assert gs["converged"] == "true"


def test_main_creates_output_directory(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "problem": "vector_laplace",
        "levels": [2],
        "solvers": [{"method": "amg", "smoother": "GS-1-1"}],
    }))
    out = tmp_path / "new" / "dir"
    assert main(["run", str(path), "--format", "both", "--out", str(out)]) == 0
    assert (out / "results.csv").exists() and (out / "results.md").exists()


def test_main_uncreatable_output_directory(tmp_path, capsys, monkeypatch):
    import p2amg.bench_cli as cli

    def no_cells(config):
        raise AssertionError("a cell ran before the output directory check")

    monkeypatch.setattr(cli, "run_experiment", no_cells)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"problem": "vector_laplace", "solvers": []}))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", str(path), "--out", str(blocker / "dir")]) == 2
    assert "output directory" in capsys.readouterr().err


def test_main_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert main(["run", str(tmp_path / "does_not_exist.json")]) == 2


GOOD_CONFIG = {
    "problem": "vector_laplace",
    "levels": [2],
    "solvers": [{"method": "amg", "cycle": "V", "smoother": "GS-2-2"}],
}


def _with_solver(**fields):
    return dict(GOOD_CONFIG, solvers=[dict(GOOD_CONFIG["solvers"][0], **fields)])


@pytest.mark.parametrize(
    "config",
    [
        _with_solver(smoother="JA-1-1-e"),
        dict(GOOD_CONFIG, mu="abc"),
        dict(GOOD_CONFIG, coarse_size_cap="x"),
        dict(GOOD_CONFIG, tolerance="1e-9"),
        [GOOD_CONFIG],
        _with_solver(cycle="F"),
        _with_solver(maxit=0),
        _with_solver(tolerance=2),
        _with_solver(precond=True),
        dict(GOOD_CONFIG, coarse_size_cap=-3),
        dict(GOOD_CONFIG, mu=-1),
        dict(GOOD_CONFIG, problem="elasticity_displacement", **{"lambda": 0}),
        dict(GOOD_CONFIG, mu=None),
        _with_solver(precond=""),
        _with_solver(precond="   "),
    ],
    ids=["damping", "mu", "cap", "tolerance-string", "list", "cycle", "maxit",
         "solver-tolerance", "precond-bool", "cap-negative", "mu-negative",
         "lambda-zero", "mu-null", "precond-empty", "precond-blank"],
)
def test_main_rejects_bad_config_before_any_cell(config, tmp_path, capsys, monkeypatch):
    import p2amg.bench_cli as cli

    def no_cells(config):
        raise AssertionError("a cell ran for a bad config")

    monkeypatch.setattr(cli, "run_experiment", no_cells)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_ablation_run_counts_increase():
    cfg = load_config(
        {
            "problem": "vector_laplace",
            "levels": [4, 8],
            "coarsening": "monolithic",
            "tolerance": 1e-8,
            "solvers": [{"method": "amg", "cycle": "V", "smoother": "GS-2-2"}],
        }
    )
    rows = run_experiment(cfg)
    its = [row["iterations"] for row in rows]
    assert all(isinstance(i, int) for i in its)
    assert its[0] < its[1]  # non-separating coarsening degrades with refinement


def test_solver_entry_labels():
    assert SolverEntry(method="amg", smoother="GS-2-2").label == "AMG-V"
    assert (
        SolverEntry(method="gmres", smoother="Braess-Sarazin-1-1", precond_cycles=2).label
        == "GMRES (2 V-cycles)"
    )
