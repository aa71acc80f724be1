"""Mechanically verify the published obstruction lists and recursions.

Each claim expands to concrete expressions for a given k; the verifier
mines every minimal obstruction up to a bound and compares canonical-code
sets, checks the recursive constructions in both directions, and probes
the conjectures one order beyond their stated bound.

Run:  python3 demos/04_verifying_the_catalog.py  (under a second)
"""

from polarcographs import catalog
from polarcographs.catalog import MiningCache

cache = MiningCache()

for k in (2, 3):
    print(f"\n== k = {k} ==")
    for report in catalog.verify_all(k, cache=cache):
        print(f"{report.status:4s} {report.claim:16s} "
              f"{report.actual}/{report.expected}  {report.notes}")

# A single claim, instantiated: the complete k=2 list (23 graphs).
print("\nthe k=2 catalog:")
for e in catalog.instantiate("thm21"):
    from polarcographs import expressions
    print(" ", expressions.unparse(e))
