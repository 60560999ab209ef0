"""Exact reference for the radius sweep, written directly from the rule.

Every agent starts with weight 1 and the quota is n/k.  The radius visits
every distinct agent-candidate distance in ascending order.  At each
radius the supports of all remaining candidates are recomputed; while the
largest of them (ties to the lowest index) reaches the quota, that
candidate is selected and its supporters pay exactly n/k, zeroed in
ascending (distance, agent index) order with the last one paying a
fraction.  All arithmetic is in `fractions.Fraction`.

This is slow on purpose: it is the oracle the fast engine is compared
against, so it shares none of the engine's bookkeeping.
"""

from fractions import Fraction

from propclust import InputError, SweepRound, SweepTrace


def weighted_support(weights, D, candidate, radius):
    """Total weight of agents within ``radius`` of ``candidate``."""
    return sum((weights[i] for i in range(len(weights)) if D[i, candidate] <= radius), Fraction(0))


def reduce_weights(weights, supporters, distances, amount):
    """Weights after ``supporters`` give up exactly ``amount``.

    Supporters are zeroed in ascending (distance, agent index) order; the
    last one touched pays only what is left.  Raises if the supporters do
    not hold ``amount``.
    """
    supporters = [int(i) for i in supporters]
    if len(supporters) != len(distances):
        raise InputError("supporters and distances must align")
    held = sum((weights[i] for i in supporters), Fraction(0))
    if held < amount:
        raise InputError(f"supporter weight {held} is below the payment {amount}")
    weights = list(weights)
    left = Fraction(amount)
    for _, i in sorted(zip(distances, supporters)):
        take = min(weights[i], left)
        weights[i] -= take
        left -= take
    return tuple(weights)


def reference_sweep(inst):
    """The full `SweepTrace` of the sweep on ``inst``."""
    n, m, k = inst.n, inst.m, inst.k
    D = inst.distance_matrix
    quota = Fraction(n, k)
    weights = (Fraction(1),) * n
    remaining = list(range(m))
    rounds = []
    for radius in sorted(set(D.ravel().tolist())):
        while len(rounds) < k:
            supports = [weighted_support(weights, D, c, radius) for c in remaining]
            best = max(range(len(remaining)), key=lambda j: (supports[j], -remaining[j]))
            if supports[best] < quota:
                break
            winner = remaining.pop(best)
            members = [i for i in range(n) if D[i, winner] <= radius]
            after = reduce_weights(weights, members, [float(D[i, winner]) for i in members], quota)
            rounds.append(
                SweepRound(
                    radius=radius,
                    winner=winner,
                    supporters=tuple(members),
                    weights_before=tuple(weights[i] for i in members),
                    weights_after=tuple(after[i] for i in members),
                    support=supports[best],
                )
            )
            weights = after
    return SweepTrace(tuple(rounds))
