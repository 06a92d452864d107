"""Dominator tree and dominance frontiers (via networkx's Cooper-Harvey-
Kennedy implementation), used by mem2reg for phi placement."""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.analysis.cfg import cfg_graph
from repro.llvmir.block import BasicBlock
from repro.llvmir.function import Function
from repro.llvmir.instructions import Instruction


class DominatorTree:
    def __init__(self, fn: Function):
        import networkx as nx

        self.function = fn
        self.graph = cfg_graph(fn)
        entry = fn.entry_block
        self.idom: Dict[BasicBlock, BasicBlock] = dict(
            nx.immediate_dominators(self.graph, entry)
        )
        # Some networkx versions omit the reflexive entry mapping.
        self.idom[entry] = entry
        self.frontiers: Dict[BasicBlock, Set[BasicBlock]] = {
            b: set(f) for b, f in nx.dominance_frontiers(self.graph, entry).items()
        }
        self._children: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.idom}
        for block, parent in self.idom.items():
            if block is not parent:
                self._children[parent].append(block)
        self._reachable = set(self.idom)

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        parent = self.idom.get(block)
        if parent is None or parent is block:
            return None
        return parent

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return list(self._children.get(block, []))

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Does block ``a`` dominate block ``b``? (reflexive)"""
        if b not in self._reachable or a not in self._reachable:
            return False
        node: Optional[BasicBlock] = b
        while node is not None:
            if node is a:
                return True
            parent = self.idom.get(node)
            node = parent if parent is not node else None
        return False

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def dominates_instruction(self, value: Instruction, user: Instruction) -> bool:
        """SSA dominance between two instructions (same or different blocks)."""
        vb, ub = value.parent, user.parent
        assert vb is not None and ub is not None
        if vb is ub:
            return vb.instructions.index(value) < vb.instructions.index(user)
        return self.strictly_dominates(vb, ub)

    def dominance_frontier(self, block: BasicBlock) -> Set[BasicBlock]:
        return set(self.frontiers.get(block, set()))

    def dfs_preorder(self) -> List[BasicBlock]:
        out: List[BasicBlock] = []
        stack = [self.function.entry_block]
        while stack:
            block = stack.pop()
            out.append(block)
            stack.extend(reversed(self._children.get(block, [])))
        return out
