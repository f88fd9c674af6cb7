"""The three benchmark workloads: inputs from a seed, a pipeline config, and output checks.

Each workload runs one `eqcausal.cli.run_experiment` pipeline. Its inputs
derive from the workload seed alone, its outputs are checked against
properties that hold at any step budget, and `quality` reads the accuracy
figure that guards against a speed-up bought with lost accuracy.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from eqcausal import dataio, modelzoo


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    quality_name = ""  # what `quality` returns, printed beside quality_loss

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def config(self) -> dict:
        raise NotImplementedError

    def check(self, out: Path) -> list[str]:
        """Problems found in one run's outputs; empty when they are correct."""
        raise NotImplementedError

    def quality(self, out: Path) -> float:
        raise NotImplementedError


class ReboundInvariant(Workload):
    """Invariant-policy training on the 9-node rebound twin: the per-node graph
    interpreter, the dense adjoint and hundreds of small Anderson solves."""

    name = "rebound-invariant"
    quality_name = "held_out_max_dev"

    # three training phases of 4 + 2 + 1 Adam steps at 4 samples each, then the
    # pipeline's fixed evaluation sweeps (50 held-out pairs, 6 + 13 curve points)
    ADAM_ITERATIONS = 4
    SAMPLES_PER_STEP = 4

    def config(self) -> dict:
        return {
            "command": "invariant",
            "model": "rebound-3sector",
            "adam": {"iterations": self.ADAM_ITERATIONS},
            "sampling": {"samples_per_step": self.SAMPLES_PER_STEP},
        }

    def _report(self, out: Path) -> dict:
        return json.loads((out / "invariant_report.json").read_text(encoding="utf-8"))

    def check(self, out: Path) -> list[str]:
        report = self._report(out)
        problems = []
        for flag in ("lie_backfire_everywhere", "invariant_reduction_everywhere"):
            if report[flag] is not True:
                problems.append(f"{flag} is {report[flag]!r}")
        return problems

    def quality(self, out: Path) -> float:
        return float(self._report(out)["held_out_max_relative_deviation"])


class LeontiefPareto(Workload):
    """GHG/employment Pareto sweep on a 100-sector table read from CSV: the
    iterative adjoint through reverse VJPs, with no MLP policy and no twin."""

    name = "leontief-pareto"
    quality_name = "pareto_loss_sum"

    SECTORS = 100
    LAMBDAS = (0.0, 0.1, 1.0)
    ADAM_ITERATIONS = 3
    LEARNING_RATE = 0.05
    ORACLE_RTOL = 1e-6

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        # one fixed economy; the seed permutes the sector order and jitters final
        # demand by up to 3 %, so every seed gives different input files while
        # the frontier, and with it the work per run, stays comparable
        base = modelzoo.leontief_synthetic(self.SECTORS)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.SECTORS)
        self.table = modelzoo.IoTable(
            A=base.A[np.ix_(perm, perm)],
            R=base.R[:, perm],
            y=base.y[perm] * rng.uniform(0.97, 1.03, size=self.SECTORS),
            sectors=tuple(base.sectors[k] for k in perm),
            impacts=base.impacts,
        )
        self.paths = {key: work / f"{stem}.csv" for key, stem in
                      (("a_csv", "A"), ("y_csv", "y"), ("r_csv", "R"))}
        work.mkdir(parents=True, exist_ok=True)
        dataio.write_iotable_csv(self.table, self.paths["a_csv"], self.paths["y_csv"],
                                 self.paths["r_csv"])

    def config(self) -> dict:
        return {
            "command": "pareto",
            "model": {key: str(path) for key, path in self.paths.items()},
            "adam": {"iterations": self.ADAM_ITERATIONS, "learning_rate": self.LEARNING_RATE},
            "loss": {"lambdas": list(self.LAMBDAS)},
        }

    def check(self, out: Path) -> list[str]:
        points = _read_csv(out / "tradeoff.csv")
        alphas = _read_csv(out / "interventions.csv")
        if len(points) != len(self.LAMBDAS) or len(alphas) != len(self.LAMBDAS):
            return [f"expected {len(self.LAMBDAS)} Pareto points, found {len(points)}"]
        A, y = self.table.A, self.table.y
        c = self.table.impact_row("ghg")
        problems = []
        for point, row in zip(points, alphas):
            if point["converged"] != "True":
                problems.append(f"lambda {point['lambda']}: not converged")
            alpha = np.array([float(row[f"u_{k}"]) for k in range(self.SECTORS)])
            # x = diag(alpha) (A x + y)  =>  x = (I - diag(alpha) A)^-1 diag(alpha) y
            x = np.linalg.solve(np.eye(self.SECTORS) - alpha[:, None] * A, alpha * y)
            oracle = float(c @ x)
            got = float(point["ghg_total"])
            if abs(got - oracle) > self.ORACLE_RTOL * abs(oracle):
                problems.append(f"lambda {point['lambda']}: ghg_total {got!r} != oracle {oracle!r}")
        return problems

    def quality(self, out: Path) -> float:
        return sum(float(p["ghg_total"]) + float(p["lambda"]) * float(p["employment_l1_deviation"])
                   for p in _read_csv(out / "tradeoff.csv"))


class SolverSweep(Workload):
    """The bench pipeline on random affine contractions: fixedpoint and cli
    only, the control that bypasses diffcore, sscm, deq and optimize."""

    name = "solver-sweep"
    quality_name = "solver_iters"

    DIMS = (2, 10, 50, 100, 200)
    SEEDS = 6
    TOL = 1e-4  # the solver default the config leaves in place

    def config(self) -> dict:
        return {
            "command": "bench",
            "model": "motivating-example",
            "bench": {"dims": list(self.DIMS), "seeds": self.SEEDS},
        }

    def check(self, out: Path) -> list[str]:
        rows = _read_csv(out / "bench.csv")
        expected = len(self.DIMS) * self.SEEDS * 3
        if len(rows) != expected:
            return [f"expected {expected} bench rows, found {len(rows)}"]
        return [f"dim {r['dim']} {r['method']} seed {r['seed']}: not converged to tol"
                for r in rows
                if r["converged"] != "True" or float(r["relative_error"]) > self.TOL]

    def quality(self, out: Path) -> float:
        return float(sum(int(r["iterations"]) for r in _read_csv(out / "bench.csv")))


WORKLOADS = {cls.name: cls for cls in (ReboundInvariant, LeontiefPareto, SolverSweep)}
