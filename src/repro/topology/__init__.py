"""Topology substrate: the graph model and generators used by the evaluation."""
