"""The tests build a benchmark model the way the library does: from its case."""

from bezmortar.benchmarks import BenchmarkCase, build_case


def case_model(case_id: str, level: int, **settings):
    """``build_case`` of the case with these settings at a refinement level."""
    return build_case(BenchmarkCase(case_id, **settings), level)
