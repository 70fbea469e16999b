"""Experiments reproducing every figure of the paper's evaluation.

Every figure grid runs one way: its spec builder (``fattree_fct_specs``,
``failure_recovery_specs``, ``overhead_specs``, … in the figure's module)
makes the grid, :func:`~repro.experiments.runner.run_grid` executes it, and
the module's projection (``to_*_points`` / ``analyse_*``) turns the results
into report rows.  :func:`repro.experiments.registry.run_scenario` does the
same by scenario name.

Each name is imported from its module, so importing one module of the
package — :mod:`repro.experiments.scalability`, which needs nothing but the
compiler and the topologies — does not import the others, the workload
generator among them.
"""
