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
from p2amg.coarsening import MONOLITHIC, SEPARATED
from p2amg.errors import InvalidParameter, SingularCoarseMatrix
from p2amg.multigrid import CycleConfig
from p2amg.smoothers import parse_smoother

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


@pytest.mark.parametrize("precond,cycles", [("1 V-cycle", 1), ("2 V-cycles", 2), ("3 W-cycles", 3)])
def test_precond_cycle_strings_parse(precond, cycles):
    cfg = tiny_config(
        solvers=[
            {
                "method": "gmres",
                "smoother": "Braess-Sarazin-1-1",
                "cycle": "W" if "W" in precond else "V",
                "precond": precond,
            }
        ]
    )
    assert cfg.solvers[0].cycle.cycles_per_application == cycles


def test_config_defaults():
    cfg = tiny_config()
    assert cfg.levels == (2,)
    assert cfg.solvers[0].tolerance == 1e-11
    saddle = tiny_config(problem="stokes")
    assert saddle.solvers[0].tolerance == 1e-9
    assert cfg.coarsening == SEPARATED
    assert tiny_config(coarsening="monolithic").coarsening == MONOLITHIC


@pytest.mark.parametrize(
    "problem,top,solver,expected",
    [
        ("vector_laplace", {"tolerance": 1e-6}, {"tolerance": 1e-4}, (1e-4, 200, 1, 1)),
        ("stokes", {"tolerance": 1e-6}, {}, (1e-6, 200, 1, 1)),
        ("stokes", {}, {}, (1e-9, 200, 1, 1)),
        ("vector_laplace", {}, {}, (1e-11, 200, 1, 1)),
        ("vector_laplace", {}, {"maxit": None}, (1e-11, 200, 1, 1)),
        ("vector_laplace", {}, {"method": "pcg", "maxit": None}, (1e-11, 500, 1, 1)),
        ("stokes", {}, {"method": "gmres", "maxit": None}, (1e-9, 500, 1, 1)),
        ("stokes", {}, {"method": "gmres", "maxit": 7}, (1e-9, 7, 1, 1)),
        ("stokes", {}, {"method": "gmres", "cycle": "W", "precond": "3 W-cycles"},
         (1e-9, 500, 2, 3)),
    ],
    ids=["solver-tolerance", "experiment-tolerance", "stokes-default", "laplace-default",
         "amg-maxit-null", "pcg-maxit-null", "gmres-maxit-null", "maxit-given",
         "precond-3W"],
)
def test_load_config_resolves_each_entry(problem, top, solver, expected):
    item = dict({"method": "amg", "smoother": "GS-2-1"}, **solver)
    raw = dict(top, problem=problem, solvers=[item])
    (entry,) = load_config(raw).solvers
    cycle = entry.cycle
    assert (entry.tolerance, entry.maxit, cycle.nu, cycle.cycles_per_application) == expected
    assert cycle.smoother == parse_smoother("GS-2-1")


def test_load_config_rejects_maxit_zero():
    with pytest.raises(InvalidParameter, match="maxit"):
        tiny_config(solvers=[{"method": "amg", "smoother": "GS-2-2", "maxit": 0}])


def test_run_experiment_parses_no_smoother_string(monkeypatch):
    # each entry holds its parsed smoother; the cells never parse it again
    from p2amg import bench_cli, smoothers

    config = tiny_config(solvers=[
        {"method": "amg", "smoother": "GS-2-2"},
        {"method": "pcg", "cycle": "W", "smoother": "JA-1-1-0.5"},
    ])
    calls = []

    def counted(name):
        calls.append(name)
        return parse_smoother(name)

    monkeypatch.setattr(bench_cli, "parse_smoother", counted)
    monkeypatch.setattr(smoothers, "parse_smoother", counted)
    rows = run_experiment(config)
    assert [row["converged"] for row in rows] == [True, True]
    assert calls == []


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


@pytest.mark.parametrize("stage,error", [
    ("build_case", MemoryError), ("assemble", MemoryError),
    ("build_hierarchy", MemoryError), ("build_hierarchy", SingularCoarseMatrix),
])
def test_level_that_cannot_be_built_fails_alone(monkeypatch, tmp_path, stage, error):
    # a level whose mesh, assembly or hierarchy raises gives each of its
    # cells a failed row; the other levels' rows are those of a clean run,
    # and the table is still written
    from p2amg import bench_cli

    solvers = [
        {"method": "amg", "cycle": "V", "smoother": "GS-2-2"},
        {"method": "pcg", "cycle": "V", "smoother": "JA-2-2-0.5"},
    ]
    raw = {"problem": "vector_laplace", "levels": [2, 4, 3], "solvers": solvers}
    clean = run_experiment(load_config(raw))
    calls = []
    step = getattr(bench_cli, stage)

    def fail_second_level(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise error("cannot build this level")
        return step(*args, **kwargs)

    monkeypatch.setattr(bench_cli, stage, fail_second_level)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    calls.clear()
    rows = run_experiment(load_config(raw))
    assert len(rows) == len(clean) == 6

    def cells(rows):
        return [{k: v for k, v in row.items() if k not in TIMINGS} for row in rows]

    assert cells(rows[:2] + rows[4:]) == cells(clean[:2] + clean[4:])
    for row, ref in zip(rows[2:4], clean[2:4]):
        assert (row["n"], row["solver"]) == (ref["n"], ref["solver"])
        assert (row["iterations"], row["converged"]) == (error.__name__, False)
        assert row["final_rel_residual"] == row["op_complexity"] == ""
        assert row["wall_ms"] == row["smoother_setup_ms"] == ""
        assert row["dof"] == (ref["dof"] if stage == "build_hierarchy" else "")
    written = read_csv(tmp_path / "results.csv")
    assert [row["iterations"] for row in written[2:4]] == [error.__name__] * 2
    assert [row["dof"] for row in written] == [str(row["dof"]) for row in rows]


def test_a_level_is_freed_before_the_next_is_built(monkeypatch):
    # the n = 32 level of a --large run must not be built while the
    # n = 16 level's hierarchy and smoothers are still held
    import weakref

    from p2amg import bench_cli

    built, alive_at_build = [], []
    build = bench_cli.build_hierarchy

    def tracked(*args, **kwargs):
        alive_at_build.append([ref() is not None for ref in built])
        hierarchy = build(*args, **kwargs)
        built.append(weakref.ref(hierarchy))
        return hierarchy

    monkeypatch.setattr(bench_cli, "build_hierarchy", tracked)
    solvers = [{"method": "pcg", "cycle": "V", "smoother": "GS-1-1"}]
    rows = run_experiment(tiny_config(levels=[2, 3, 4], solvers=solvers))
    assert [row["converged"] for row in rows] == [True] * 3
    assert alive_at_build == [[], [False], [False, False]]


def test_op_complexity_is_the_level_hierarchy(monkeypatch):
    # each row's op_complexity is its level's Hierarchy.operator_complexity;
    # a failed cell (PCG rejects the unsymmetric multilevel GS-2-1
    # preconditioner) leaves it and wall_ms empty
    from p2amg import bench_cli

    hierarchies = []
    build = bench_cli.build_hierarchy

    def recording_build(*args, **kwargs):
        hierarchies.append(build(*args, **kwargs))
        return hierarchies[-1]

    monkeypatch.setattr(bench_cli, "build_hierarchy", recording_build)
    solvers = [
        {"method": "amg", "cycle": "V", "smoother": "GS-2-2"},
        {"method": "pcg", "cycle": "V", "smoother": "GS-2-1"},
    ]
    rows = run_experiment(tiny_config(levels=[2, 4], solvers=solvers))
    assert len(hierarchies) == 2 and hierarchies[-1].n_levels > 1
    failed = 0
    for row, hier in zip(rows, [h for h in hierarchies for _ in solvers]):
        if row["converged"]:
            assert row["op_complexity"] == hier.operator_complexity
            assert type(row["wall_ms"]) is float and row["wall_ms"] > 0.0
        else:
            failed += 1
            assert row["iterations"] == "IndefiniteBreakdown"
            assert row["op_complexity"] == row["wall_ms"] == ""
    assert failed == 1


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
        _with_solver(method="gmres", precond=True),
        dict(GOOD_CONFIG, coarse_size_cap=-3),
        dict(GOOD_CONFIG, mu=-1),
        dict(GOOD_CONFIG, problem="elasticity_displacement", **{"lambda": 0}),
        dict(GOOD_CONFIG, mu=None),
        _with_solver(method="gmres", precond=""),
        _with_solver(method="gmres", precond="   "),
        dict(GOOD_CONFIG, coarse_size_cap=30_000),
        {"problem": "vector_laplace", "solver": GOOD_CONFIG["solvers"]},
        dict(GOOD_CONFIG, level=[4]),
        _with_solver(cylce="W"),
        dict(GOOD_CONFIG, problem="elasticity_displacement", lam=5.0, **{"lambda": 2.0}),
        _with_solver(method="gmres", precond="2 W-cycles"),
        _with_solver(method="gmres", precond="2 bananas"),
        _with_solver(method="gmres", precond="0 V-cycles"),
        _with_solver(method="gmres", precond=2),
        _with_solver(precond="1 V-cycle"),
        _with_solver(smoother="Vanka-2"),
        _with_solver(smoother="Vanka-0.8"),
    ],
    ids=["damping", "mu", "cap", "tolerance-string", "list", "cycle", "maxit",
         "solver-tolerance", "precond-bool", "cap-negative", "mu-negative",
         "lambda-zero", "mu-null", "precond-empty", "precond-blank", "cap-dense",
         "unknown-key", "unknown-key-level", "unknown-solver-key", "lambda-and-lam",
         "precond-other-cycle", "precond-words", "precond-zero", "precond-integer",
         "precond-on-amg", "vanka-sweeps-alone", "vanka-damping-alone"],
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


def test_lambda_is_given_once():
    base = {"problem": "elasticity_displacement", "solvers": []}
    assert load_config(dict(base, **{"lambda": 2.0})).lam == 2.0


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
    gs = CycleConfig(parse_smoother("GS-2-2"))
    assert SolverEntry("amg", gs, 1e-11, 200).label == "AMG-V"
    bs = CycleConfig(parse_smoother("Braess-Sarazin-1-1"), cycles_per_application=2)
    assert SolverEntry("gmres", bs, 1e-9, 500).label == "GMRES (2 V-cycles)"
