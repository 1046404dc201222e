"""The benchmark's workloads as `.flt` text, built in-process.

Each workload is a list of (name, text) pairs. The analyzer only ever sees
the `SystemDef` parsed from the text. The systems do not depend on the
workload seed; the seed reaches the analyzer through `Budgets(seed=...)`.
"""

import os

FIXTURES = ("chained", "driftless", "clm", "pendulum", "threeinput")
CHAINS = ((3, 3), (4, 3), (5, 3))
WIDE = (("driftless", 1), ("threeinput", 1), ("driftless", 2))


def fixture_text(root, name):
    with open(os.path.join(root, "fixtures", name + ".flt"), encoding="utf-8") as fh:
        return fh.read()


def _signed_sum(states, inp, order):
    """sum_i (-1)^(order-i+1) * states[i] * inp^(order-i), i = 1..order."""
    out = ""
    for i in range(1, order + 1):
        d = order - i
        term = "%s*%s" % (states[i - 1], inp if d == 0 else "%s_%d" % (inp, d))
        out += (" + " if (order - i) % 2 else " - ") + term
    return out


def chained_text(a, b):
    """x1^(a) = u1, x2^(b) = u2, x3' = u1*u2 as a first-order chain.

    The declared flat output prolongs the channel with the shorter chain
    only when a > b; for a = b the roles of the two channels swap so that
    the prolonged channel is the lexicographically smaller choice (u2).
    """
    x1 = ["x1_%d" % i for i in range(1, a + 1)]
    x2 = ["x2_%d" % i for i in range(1, b + 1)]
    lines = ["system chained_%d_%d" % (a, b),
             "state %s" % " ".join(x1 + x2 + ["x3"]),
             "input u1 u2"]
    for chain, inp in ((x1, "u1"), (x2, "u2")):
        for lo, hi in zip(chain, chain[1:]):
            lines.append("dot %s = %s" % (lo, hi))
        lines.append("dot %s = %s" % (chain[-1], inp))
    lines.append("dot x3 = u1*u2")
    if a > b:
        lines.append("flatoutput x1_1, x3" + _signed_sum(x2, "u1", b))
    else:
        lines.append("flatoutput x2_1, x3" + _signed_sum(x1, "u2", a))
    return "\n".join(lines) + "\n"


def widened_text(text, extra):
    """Append `extra` decoupled integrator channels z_i' = v_i to a system,
    with z_i added to its declared flat outputs."""
    zs = ["z%d" % i for i in range(1, extra + 1)]
    vs = ["v%d" % i for i in range(1, extra + 1)]
    lines = []
    for line in text.splitlines():
        head = line.split("#", 1)[0].split()
        if head[:1] == ["system"]:
            line = "system %s_plus%d" % (head[1], extra)
        elif head[:1] == ["state"]:
            line = " ".join(head + zs)
        elif head[:1] == ["input"]:
            line = " ".join(head + vs)
        elif head[:1] == ["flatoutput"]:
            line = line.split("#", 1)[0].rstrip() + ", " + ", ".join(zs)
        lines.append(line)
    lines.extend("dot %s = %s" % (z, v) for z, v in zip(zs, vs))
    return "\n".join(lines) + "\n"


def workload(name, root):
    """[(system name, .flt text)] for one workload."""
    if name == "paper_fixtures":
        return [(f, fixture_text(root, f)) for f in FIXTURES]
    if name == "deep_chains":
        return [("chained_%d_%d" % ab, chained_text(*ab)) for ab in CHAINS]
    if name == "wide_inputs":
        return [("%s_plus%d" % (f, extra), widened_text(fixture_text(root, f), extra))
                for f, extra in WIDE]
    raise KeyError(name)


NAMES = ("paper_fixtures", "deep_chains", "wide_inputs")
