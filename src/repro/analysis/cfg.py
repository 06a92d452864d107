"""Control-flow-graph construction and traversals."""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

from repro.llvmir.block import BasicBlock
from repro.llvmir.function import Function

if TYPE_CHECKING:
    import networkx as nx


def cfg_graph(fn: Function) -> "nx.DiGraph":
    """Build a networkx digraph over the function's basic blocks."""
    import networkx as nx

    graph = nx.DiGraph()
    for block in fn.blocks:
        graph.add_node(block)
    for block in fn.blocks:
        for succ in block.successors():
            graph.add_edge(block, succ)
    return graph


def reachable_blocks(fn: Function) -> Set[BasicBlock]:
    """Blocks reachable from the entry block."""
    if not fn.blocks:
        return set()
    seen: Set[BasicBlock] = set()
    stack = [fn.entry_block]
    while stack:
        block = stack.pop()
        if block in seen:
            continue
        seen.add(block)
        stack.extend(block.successors())
    return seen


def postorder(fn: Function) -> List[BasicBlock]:
    """Postorder DFS from the entry block (unreachable blocks excluded)."""
    if not fn.blocks:
        return []
    out: List[BasicBlock] = []
    seen: Set[BasicBlock] = set()

    def visit(block: BasicBlock) -> None:
        if block in seen:
            return
        seen.add(block)
        for succ in block.successors():
            visit(succ)
        out.append(block)

    # Iterative to survive deep CFGs from unrolled loops.
    stack: List[tuple] = [(fn.entry_block, iter(fn.entry_block.successors()))]
    seen.add(fn.entry_block)
    while stack:
        block, it = stack[-1]
        advanced = False
        for succ in it:
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, iter(succ.successors())))
                advanced = True
                break
        if not advanced:
            out.append(block)
            stack.pop()
    return out


def reverse_postorder(fn: Function) -> List[BasicBlock]:
    """Reverse postorder: the canonical forward-dataflow iteration order."""
    return list(reversed(postorder(fn)))
