"""Empty: kept only because benchmarks/perf/perf_layers.py lists it; delete it
when ROADMAP item 1 unpins that file set (ARCHITECTURE.md §2)."""
