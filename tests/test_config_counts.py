"""Pinned iteration counts of every config cell at n = 4.

The counts are the program's published output.  A change that moves one
edits this table and states why, with every moved cell (n = 4, 8 and
16), in CHANGES.md.
"""
from dataclasses import replace
from pathlib import Path

import pytest

from p2amg.bench_cli import REFERENCE_ITERATIONS, _reference_key, load_config, run_experiment
from p2amg.coarsening import SEPARATED

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (config file, solver label, smoother) -> iterations at n = 4
PINNED_N4 = {
    ("elasticity_displacement.json", "AMG-V", "JA-1-1-0.5"): "DIVERGED",
    ("elasticity_displacement.json", "AMG-V", "JA-2-2-0.5"): "DIVERGED",
    ("elasticity_displacement.json", "AMG-V", "GS-1-1"): 66,
    ("elasticity_displacement.json", "AMG-V", "GS-2-2"): 34,
    ("elasticity_displacement.json", "AMG-W", "GS-1-1"): 66,
    ("elasticity_displacement.json", "AMG-W", "GS-2-2"): 34,
    ("elasticity_displacement.json", "PCG (1 V-cycle)", "JA-1-1-0.5"): "IndefiniteBreakdown",
    ("elasticity_displacement.json", "PCG (1 V-cycle)", "JA-2-2-0.5"): "IndefiniteBreakdown",
    ("elasticity_displacement.json", "PCG (1 V-cycle)", "GS-1-1"): 37,
    ("elasticity_displacement.json", "PCG (1 V-cycle)", "GS-2-2"): 19,
    ("elasticity_displacement.json", "PCG (1 W-cycle)", "JA-1-1-0.5"): "IndefiniteBreakdown",
    ("elasticity_displacement.json", "PCG (1 W-cycle)", "JA-2-2-0.5"): "IndefiniteBreakdown",
    ("elasticity_displacement.json", "PCG (1 W-cycle)", "GS-1-1"): 37,
    ("elasticity_displacement.json", "PCG (1 W-cycle)", "GS-2-2"): 19,
    ("elasticity_mixed.json", "AMG-V", "Braess-Sarazin-1-1"): 109,
    ("elasticity_mixed.json", "AMG-V", "Braess-Sarazin-2-2"): 57,
    ("elasticity_mixed.json", "AMG-V", "sGS-1-1"): 110,
    ("elasticity_mixed.json", "AMG-V", "sGS-2-2"): 58,
    ("elasticity_mixed.json", "GMRES (1 V-cycle)", "Braess-Sarazin-1-1"): 29,
    ("elasticity_mixed.json", "GMRES (2 V-cycles)", "Braess-Sarazin-1-1"): 18,
    ("elasticity_mixed.json", "GMRES (1 V-cycle)", "sGS-1-1"): 29,
    ("elasticity_mixed.json", "GMRES (2 V-cycles)", "sGS-1-1"): 20,
    ("stokes_channel.json", "GMRES (1 V-cycle)", "Braess-Sarazin-1-1"): 30,
    ("stokes_channel.json", "GMRES (2 V-cycles)", "Braess-Sarazin-1-1"): 18,
    ("vector_laplace.json", "AMG-V", "JA-1-1-0.5"): 134,
    ("vector_laplace.json", "AMG-V", "JA-2-2-0.5"): 68,
    ("vector_laplace.json", "AMG-V", "GS-1-1"): 40,
    ("vector_laplace.json", "AMG-V", "GS-2-2"): 21,
    ("vector_laplace.json", "AMG-W", "JA-1-1-0.5"): 134,
    ("vector_laplace.json", "AMG-W", "JA-2-2-0.5"): 68,
    ("vector_laplace.json", "AMG-W", "GS-1-1"): 40,
    ("vector_laplace.json", "AMG-W", "GS-2-2"): 21,
    ("vector_laplace.json", "PCG (1 V-cycle)", "JA-1-1-0.5"): 29,
    ("vector_laplace.json", "PCG (1 V-cycle)", "JA-2-2-0.5"): 21,
    ("vector_laplace.json", "PCG (1 V-cycle)", "GS-1-1"): 27,
    ("vector_laplace.json", "PCG (1 V-cycle)", "GS-2-2"): 15,
    ("vector_laplace.json", "PCG (1 W-cycle)", "JA-1-1-0.5"): 29,
    ("vector_laplace.json", "PCG (1 W-cycle)", "JA-2-2-0.5"): 21,
    ("vector_laplace.json", "PCG (1 W-cycle)", "GS-1-1"): 27,
    ("vector_laplace.json", "PCG (1 W-cycle)", "GS-2-2"): 15,
    ("vector_laplace_ablation.json", "AMG-W", "GS-1-1"): 75,
    ("vector_laplace_ablation.json", "PCG (1 W-cycle)", "GS-1-1"): 28,
}


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_config_counts_at_n4_are_pinned(path):
    config = replace(load_config(str(path)), levels=(4,))
    counts = {
        (path.name, row["solver"], row["smoother"]): row["iterations"]
        for row in run_experiment(config)
    }
    assert counts == {k: v for k, v in PINNED_N4.items() if k[0] == path.name}


# (problem, mu, lambda) -> Vanka-1-1 iterations at n = 4 of GMRES with 1
# and 2 V-cycles and of AMG-V; no config has a Vanka row
PINNED_VANKA_N4 = {
    ("stokes", 0.5, 1.0): (11, 7, 19),
    ("elasticity_mixed", 1.15e6, 1.73e6): (9, 5, 10),
}


@pytest.mark.parametrize("case", sorted(PINNED_VANKA_N4), ids=lambda case: case[0])
def test_vanka_counts_at_n4_are_pinned(case):
    problem, mu, lam = case
    solvers = [
        {"method": "gmres", "smoother": "Vanka-1-1", "precond": "1 V-cycle"},
        {"method": "gmres", "smoother": "Vanka-1-1", "precond": "2 V-cycles"},
        {"method": "amg", "smoother": "Vanka-1-1"},
    ]
    config = load_config({"problem": problem, "levels": [4], "mu": mu, "lambda": lam,
                          "tolerance": 1e-9, "solvers": solvers})
    counts = tuple(row["iterations"] for row in run_experiment(config))
    assert counts == PINNED_VANKA_N4[case]


# the mixed-elasticity Vanka rows stay out of the configs (see ROADMAP.md)
NOT_IN_CONFIGS = {
    ("elasticity_mixed", "gmres", "V", "Vanka-1-1", cycles, SEPARATED) for cycles in (1, 2)
}


def test_every_reference_row_has_a_config_cell():
    cells = set()
    for path in CONFIGS.glob("*.json"):
        config = load_config(str(path))
        cells.update(_reference_key(config, entry) for entry in config.solvers)
    assert NOT_IN_CONFIGS <= set(REFERENCE_ITERATIONS)
    assert set(REFERENCE_ITERATIONS) - NOT_IN_CONFIGS <= cells


def test_shipped_configs_keep_their_preconditioner_cycles():
    cycles = {
        path.name: [
            entry.cycle.cycles_per_application for entry in load_config(str(path)).solvers
        ]
        for path in CONFIGS.glob("*.json")
    }
    assert len(cycles) == 5
    assert cycles.pop("stokes_channel.json") == [1, 2]
    assert cycles.pop("elasticity_mixed.json") == [1, 1, 1, 1, 1, 2, 1, 2]
    assert all(set(counts) == {1} for counts in cycles.values())
