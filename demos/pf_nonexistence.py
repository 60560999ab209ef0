"""A six-point instance where no outcome passes the coalition check.

Two interleaved equilateral triangles around a hexagon: every choice of
3 centers leaves some quota-sized coalition (here ceil(6/3) = 2 agents)
that would rather share one unselected location.  Enumerating all
C(6,3) = 20 outcomes shows the check can be unsatisfiable, which is why
the selection engine targets the group-representation property instead.
"""

from itertools import combinations

from propclust import Outcome, check_pf, check_prf_unconstrained, select_prf_centers
from propclust.data_io import generate

inst = generate("hexagon")

print("outcome      coalition that deviates  -> candidate")
for sel in combinations(range(6), 3):
    report = check_pf(inst, Outcome(sel))
    assert not report.satisfied
    w = report.witness
    print(f"{sel}    agents {w.agents}         -> {w.candidate}")

print()
outcome, _ = select_prf_centers(inst)
report = check_prf_unconstrained(inst, outcome)
print(f"engine output {outcome.selected}: group representation "
      f"{'satisfied' if report.satisfied else 'violated'}")
