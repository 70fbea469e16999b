"""Baseline routing systems the paper compares against."""
