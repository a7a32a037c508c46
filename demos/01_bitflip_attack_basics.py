"""Tour of the fault laboratory on a two-bit toy system.

A system with one public bit and one secret bit emits its public bit and
halts.  We watch how a uniform bit-flip environment perturbs it, compute
exact trace probabilities, and then aim a scripted attacker at one bit.
"""

from fractions import Fraction

from ftnilab.faultlab import (
    Composition,
    TableSystem,
    augmented_step,
    compose_step,
    output,
    scripted_environment,
    uniform_environment,
)

# Bits: p (public, faulty) and s (secret, faulty).  From any state the
# system outputs the value of p on the low channel, then halts by moving to
# a state with s = 1, p = 1 (arbitrarily chosen stuck sink).
system = TableSystem(
    ["p", "s"],
    ["p", "s"],
    {
        0b00: (output("low", 0), 0b11),
        0b01: (output("low", 1), 0b11),
        0b10: (output("low", 0), 0b11),
    },
)

print("== fault-labelled transitions from p=0, s=0 ==")
for subset, action, succ in augmented_step(system, 0b00):
    flips = ",".join(sorted(subset)) or "-"
    print(f"  flips={flips:<5} action={action} next={system.bits_of(succ)}")

print("\n== composed with a uniform environment, flip odds 1/4 per bit ==")
env = uniform_environment(Fraction(1, 4), {"p", "s"})
for action, prob, succ, env_state in compose_step(system, 0b00, env.initial, env):
    print(f"  {str(action):<8} prob={prob}  next={system.bits_of(succ)}")

print("\n== exact trace distribution at depth 2 ==")
comp = Composition(system, env)
dist = comp.trace_distribution(0b00, env.initial, 2)
for trace, prob in sorted(dist.items(), key=lambda kv: str(kv[0])):
    print(f"  {' '.join(map(str, trace)):<16} {prob}")
print("  total:", sum(dist.values(), Fraction(0)))

print("\n== a scripted attacker striking bit s right after the first output ==")
strike = scripted_environment(
    [
        ({frozenset(): Fraction(1)}, "low"),
        ({frozenset({"s"}): Fraction(1)}, "step"),
    ]
)
comp = Composition(system, strike)
for trace, prob in sorted(comp.trace_distribution(0b00, strike.initial, 2).items(), key=str):
    print(f"  {' '.join(map(str, trace)):<16} {prob}")
