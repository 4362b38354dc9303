"""Walks over a recorded tape, for tests that check what it keeps alive."""

import numpy as np


def graph_nodes(root):
    """Every tensor reachable from ``root`` through recorded parents, root first."""
    seen, stack, out = set(), [root], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(parent for parent, _ in node.pairs)
    return out


def held_arrays(fns):
    """Every distinct array reachable from vjp closures, through nested closures and containers."""
    seen, stack, out = set(), list(fns), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
    return out


def tape_arrays(root):
    """What a tape rooted at ``root`` keeps alive: every node's value, and
    every array its vjp closures hold."""
    nodes = graph_nodes(root)
    return [node.array for node in nodes] + held_arrays(fn for node in nodes for _, fn in node.pairs)
