"""Workload substrate: flow-size distributions, the random generator and
load-targeted workload generators."""
