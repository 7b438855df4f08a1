"""Trajectory-tree preference mining: build prefix-merged trees from agent
trajectories, score nodes by subtree success rate, extract critical action
pairs, and emit masked-SFT / DPO datasets.

Importing the package loads none of its modules; each public name is
imported from the module that defines it (`from trajtree.tree import
build_tree`).
"""

__version__ = "0.1.0"
