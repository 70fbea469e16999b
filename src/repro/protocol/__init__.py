"""Contra protocol runtime: the behaviour of the synthesized per-switch programs."""
