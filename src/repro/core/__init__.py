"""Contra's core contribution: the policy language, analyses and compiler."""
