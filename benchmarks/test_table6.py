"""Table 6: the security case study — 17 scenarios covering the paper's 32
referenced exploits, each validated to work undefended, then checked per
context.  The verdict matrix must match the paper row for row.
"""

import pytest

from repro.attacks.runner import table6_matrix


@pytest.fixture(scope="module")
def matrix():
    return table6_matrix()


def test_every_attack_valid(matrix):
    for evaluation in matrix:
        assert evaluation.valid, evaluation.spec.name


def test_every_row_matches_paper(matrix):
    mismatches = [
        evaluation.spec.name
        for evaluation in matrix
        if not evaluation.matches_paper()
    ]
    assert mismatches == []


def test_full_bastion_blocks_all(matrix):
    for evaluation in matrix:
        assert evaluation.blocked_by_full, evaluation.spec.name


def test_categories_covered(matrix):
    categories = {evaluation.spec.category for evaluation in matrix}
    assert categories == {
        "Return-oriented programming (ROP)",
        "Direct system call manipulation",
        "Indirect system call manipulation",
    }


def test_ai_blocks_everything(matrix):
    """In the paper's Table 6 the AI column is ✓ on every row."""
    for evaluation in matrix:
        assert evaluation.blocks("AI"), evaluation.spec.name
