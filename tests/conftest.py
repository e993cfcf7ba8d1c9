"""Shared test inputs."""

import pytest


def block_nnf(k: int) -> str:
    """AND of k blocks (x and y) or (not x and z): 7k + 1 nodes.

    Block j uses variables x = 3j + 1, y = 3j + 2 and z = 3j + 3.
    """
    lines = [f"nnf {7 * k + 1} {8 * k} {3 * k}"]
    for j in range(k):
        b, x = 7 * j, 3 * j + 1
        lines += [f"L {x}", f"L {x + 1}", f"L {-x}", f"L {x + 2}",
                  f"A 2 {b} {b + 1}", f"A 2 {b + 2} {b + 3}",
                  f"O {x} 2 {b + 4} {b + 5}"]
    lines.append(f"A {k} " + " ".join(str(7 * j + 6) for j in range(k)))
    return "\n".join(lines) + "\n"


@pytest.fixture()
def make_block_nnf():
    """``block_nnf`` itself, for tests that need a large circuit."""
    return block_nnf
