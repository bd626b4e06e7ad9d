"""What "locally true" means, state by state.

Small systems fit in an explicit bitmap, so instead of trusting the
solver we can walk every state. Projecting the transition relation on a
property set means frames violating one of those properties stop going
anywhere (they self-loop); whatever survives the walk is exactly the
set of states reachable without ever breaking an assumption. Local
verdicts are plain reachability questions over that projected relation.
"""

from japdr.aiger import gen_counter
from japdr.oracle import CheckMode, ExplicitModel


def vals(reach_set):
    out = set()
    for s in reach_set.states():
        out.add(sum(b << i for i, b in enumerate(s)))
    return sorted(out)


circuit, props = gen_counter(3)
m = ExplicitModel(circuit)
print(f"3-bit counter: {m.n_states} latch states x {m.n_inputs} input vectors")
print()

print("reachable counter values under three relations:")
print("  raw transition relation       ", vals(m.reachable()))
print("  projected on P0 and P1        ", vals(m.reachable(props)))
print("  projected on P1 alone         ", vals(m.reachable([props[1]])))
print()
print("projecting on P0 pins req high, the reset fires at 4 and the walk")
print("never sees 5..7; projecting on P1 alone still admits req=0 frames,")
print("so the counter reaches 5 once and then self-loops there")
print()

print("verdict matrix (local assumes the other property on earlier frames):")
for i in range(2):
    loc = m.brute_check(props, i, CheckMode.LOCAL)
    glo = m.brute_check(props, i, CheckMode.GLOBAL)

    def word(res):
        if res.holds:
            return "holds"
        return f"fails (shortest trace {len(res.cex.frames)} frames)"

    print(f"  P{i}: local {word(loc)}; global {word(glo)}")
print()
print("debugging set:", m.brute_debug_set(props))
print("P1 is not broken on its own; fixing the req environment (P0) is")
print("the only repair this system actually needs")
