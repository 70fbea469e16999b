"""Discrete-event network simulator substrate (the reproduction's ns-3 stand-in)."""
