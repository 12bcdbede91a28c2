"""The benchmark's workloads: fixed reference problems and their recorded results.

This module imports neither numpy nor hbflow, so the parent process that
schedules runs stays light; only the child process loads the solver.
"""

from __future__ import annotations

from dataclasses import dataclass

# Relative tolerance on the final objective and on ||u||. It is the oracle
# tolerance the project uses for iterates at the benchmark's iteration caps:
# loose enough for a change that reorders floating-point sums (a different
# assembly or factorization), tight enough that any change to the iterates
# themselves shows. On the machine that recorded the references, both values
# repeat bit for bit between runs.
REL_TOL = 1e-12


@dataclass(frozen=True)
class Reference:
    """What a correct run ends with, recorded on the unoptimized solver."""

    iterations: int     # descent iterations over all stages, cap x stages
    stages: int
    objective: float    # final J
    u_norm: float       # Euclidean norm of the final interior iterate


@dataclass(frozen=True)
class Workload:
    name: str
    domain: str         # "disk" (size = refinement level) or "square" (size = n)
    size: int
    p: float
    g: float
    gamma: float
    f: float
    linear_method: str  # "pcg" or "direct"
    max_iters: int      # the fixed cap, per stage
    reference: Reference
    epsilon: float = 1e-6
    continuation: bool = False
    gamma_start: float = 10.0
    gamma_end: float = 1e6

    def mismatch(self, iterations: int, stages: int, objective: float,
                 u_norm: float) -> str | None:
        """Why a run's result differs from the reference, or None if it agrees."""
        ref = self.reference
        if stages != ref.stages:
            return f"{stages} stages, expected {ref.stages}"
        if iterations != ref.iterations:
            return f"{iterations} iterations, expected {ref.iterations}"
        for label, got, want in (("final J", objective, ref.objective),
                                 ("||u||", u_norm, ref.u_norm)):
            if not abs(got - want) <= REL_TOL * abs(want):
                return f"{label} {got!r} differs from {want!r} by more than {REL_TOL:g} relative"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        # exp1-thinning / c1, the CLI's default PCG solver. Level 6 has 12,097
        # unknowns and 24,576 triangles. The preconditioner is reassembled
        # every iteration; largest mesh build and VTK file.
        Workload(
            name="disk-thinning",
            domain="disk", size=6, p=1.75, g=0.2, gamma=1e3, f=1.0,
            linear_method="pcg", max_iters=30,
            reference=Reference(iterations=30, stages=1,
                                objective=-0.0251824606519193,
                                u_norm=4.5813059531643),
        ),
        # exp1-thickening / c3, direct solver. n=101 has 10,000 unknowns. The
        # constant Laplacian is refactored every iteration; no preconditioner
        # is reassembled.
        Workload(
            name="square-thickening",
            domain="square", size=101, p=4.0, g=0.2, gamma=1e3, f=3.0,
            linear_method="direct", max_iters=30,
            reference=Reference(iterations=30, stages=1,
                                objective=-0.18235415617085682,
                                u_norm=14.745155843610371),
        ),
        # exp3-continuation / c4, direct solver. n=50 has 2,401 unknowns. Six
        # short gamma stages (1e1..1e6), each with its own set-up, and a line
        # search that often overflows at p=100.
        Workload(
            name="continuation-p100",
            domain="square", size=50, p=100.0, g=0.3, gamma=1e3, f=3.0,
            linear_method="direct", max_iters=20, continuation=True,
            reference=Reference(iterations=120, stages=6,
                                objective=-0.21670563680651644,
                                u_norm=8.753637693986807),
        ),
    )
}
