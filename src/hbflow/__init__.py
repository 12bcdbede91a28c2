"""Finite element solver for Herschel-Bulkley pipe flow.

Minimizes the Huber-regularized p-Laplacian functional with an L1 gradient
plasticity term over P1 elements, using preconditioned descent with a
polynomial-model backtracking line search and optional regularization
continuation.

Each name is imported from its own module (``hbflow.mesh``,
``hbflow.solver``, ...); the package re-exports nothing.
"""
