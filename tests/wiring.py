"""The fabric a packet topology actually wired, read off its ports.

Each :class:`~repro.netsim.link.OutputPort` joins its owner to its
``peer``; walking every host NIC and switch port gives the graph the
simulator forwards over, not one rebuilt from the config.
"""

from collections import deque
from typing import Dict, Set


def wired_neighbours(topo) -> Dict[str, Set[str]]:
    """Node name -> the names its egress ports lead to."""
    adj: Dict[str, Set[str]] = {}
    for h in topo.hosts:
        adj.setdefault(h.name, set()).add(h.nic.peer.name)
    for sw in topo.switches():
        adj.setdefault(sw.name, set()).update(p.peer.name for p in sw.ports)
    return adj


def hops(adj: Dict[str, Set[str]], src: str) -> Dict[str, int]:
    """Breadth-first hop counts from ``src`` to every reachable node."""
    dist = {src: 0}
    todo = deque([src])
    while todo:
        node = todo.popleft()
        for nxt in adj.get(node, ()):
            if nxt not in dist:
                dist[nxt] = dist[node] + 1
                todo.append(nxt)
    return dist
