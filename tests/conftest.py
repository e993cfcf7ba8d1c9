"""Shared test inputs and checks."""

import multiprocessing

import pytest

from betacircuits.circuit import NodeKind


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process running."""
    yield
    stray = multiprocessing.active_children()
    for proc in stray:
        proc.terminate()
        proc.join()
    if stray:
        pytest.fail(f"child processes left running: {stray}")


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


def truth_value(c, assignment, nid=None):
    """Boolean value of node ``nid`` (default: the root) under ``assignment``.

    An oracle independent of the library's pass: it recurses from the node,
    evaluating each node once and every child of a gate.  A literal leaf
    reads its variable from ``assignment`` (KeyError if missing), whether
    or not the literal is zeroed.
    """
    memo = {}

    def value(i):
        if i not in memo:
            n = c.nodes[i]
            if n.kind is NodeKind.LITERAL:
                memo[i] = assignment[n.var] == (n.literal > 0)
            else:
                kids = [value(ch) for ch in n.children]
                memo[i] = (all(kids) if n.kind in (NodeKind.AND, NodeKind.TRUE)
                           else any(kids))
        return memo[i]

    return value(c.root if nid is None else nid)


def scopes(c):
    """Every node's variable scope, in node order."""
    out = []
    for n in c.nodes:
        if n.kind is NodeKind.LITERAL:
            out.append(frozenset((n.var,)))
        else:
            out.append(frozenset().union(*(out[ch] for ch in n.children)))
    return out
