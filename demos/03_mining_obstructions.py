"""Mine every minimal (s,k)-polar obstruction up to a given order.

A graph is a minimal obstruction when it is not (s,k)-polar but every
single-vertex deletion is (deletion suffices: polarity is hereditary), and
that depends on its (s,k)-type alone: its profile and its least polar
deleted profiles, capped.  Mining counts the classes of each order by type,
without building them, and expands only the types that are minimal
obstructions into cotrees, each re-checked by its deletions.  Enumerating
one cotree per unlabeled cograph class serves as the cross-check: up to
order 8, the enumerated minimal obstructions must be the mined ones.

Run:  python3 demos/03_mining_obstructions.py
"""

import time
from collections import Counter

from polarcographs import obstructions
from polarcographs.obstructions import mine_obstructions
from polarcographs.polarity import INF

print("unlabeled cograph classes per order:", obstructions.cograph_counts(10))

start = time.monotonic()
records = mine_obstructions(INF, 2, 9)
print(f"\nminimal (inf,2)-polar obstructions of order <= 9: "
      f"{len(records)} ({time.monotonic() - start:.2f}s)")
for r in records[:6]:
    print(f"  n={r.order} type=({r.c},{r.i})  {r.expression}")
print("  ...")
print("orders:", dict(sorted(Counter(r.order for r in records).items())))

# Each record is self-describing JSON: graph6, canonical code, expression,
# type (components, trivial components), and the mining bound.
print("\nfirst record as JSON:")
print(records[0].to_json())

# The split obstructions, for comparison: (1,1)-polar = split graphs.
split = mine_obstructions(1, 1, 6)
print("\ncograph minimal split obstructions:", [r.expression for r in split])
