import numpy as np
import pytest

from edgedel import Cpt, Evidence, Network, Variable


@pytest.fixture(autouse=True)
def cold_programs():
    """Empty ``engine.record``'s kept programs and ``divergence.source_pass``'s
    kept pass before each test, so every count of orders, recordings and
    passes starts cold whatever ran before."""
    from edgedel import divergence, engine

    engine._structures.clear()
    divergence._kept_pass = None


def random_cpt(var, parents, rng):
    rows = 1
    for p in parents:
        rows *= p.card
    table = rng.dirichlet(np.ones(var.card), size=rows).reshape(-1)
    return Cpt(var, tuple(parents), table)


def random_network(rng, n_vars=8, max_card=3, max_parents=3, prefix="V"):
    """Random DAG with Dirichlet CPT rows; parents drawn from predecessors."""
    variables = []
    for i in range(n_vars):
        card = int(rng.integers(2, max_card + 1))
        variables.append(Variable(f"{prefix}{i}", tuple(f"s{j}" for j in range(card))))
    cpts = []
    for i, v in enumerate(variables):
        n_par = int(rng.integers(0, min(i, max_parents) + 1))
        chosen = sorted(rng.choice(i, size=n_par, replace=False)) if n_par else []
        parents = tuple(variables[int(j)] for j in chosen)
        cpts.append(random_cpt(v, parents, rng))
    return Network(variables, cpts)


def count_engine_calls(monkeypatch, names):
    """Count calls to the named ``edgedel.engine`` functions; returns the
    live {name: count} dict."""
    import edgedel.engine as engine_module

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(engine_module, name)

        def counting(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine_module, name, counting)
    return calls


def record_refits(monkeypatch):
    """Record each ``engine.derived_derivatives`` call, ``score_edges``' tie
    refit; returns the live list of (labels, Pr(e), tables), one per call."""
    import edgedel.engine as engine_module

    refits = []
    real = engine_module.derived_derivatives

    def recording(net, ev, derive, wrt, *args, **kwargs):
        pr_e, tables = real(net, ev, derive, wrt, *args, **kwargs)
        refits.append((tuple(wrt), pr_e, tables))
        return pr_e, tables

    monkeypatch.setattr(engine_module, "derived_derivatives", recording)
    return refits


def tree_input(tree, name, table):
    """``table``, a CPT table of ``name``, as the jointree ``tree`` reads
    it (``Jointree.set_input``): sliced by the evidence, as ``engine._bind``
    reads a CPT off a network."""
    inp = tree.inputs[tree.cpt_inputs[name]]
    if inp.take is None:
        return table
    sliced = table[inp.take]
    return np.ascontiguousarray(sliced).reshape(sliced.shape)


def tied_edges(scores):
    """Number of edges in runs of two or more adjacent ``EdgeScore``s whose
    scores tie within ``divergence.TIE_TOL``."""
    from edgedel.divergence import TIE_TOL

    tied = set()
    for i in range(len(scores) - 1):
        a, b = scores[i].score, scores[i + 1].score
        if abs(a - b) <= TIE_TOL * max(1.0, abs(a), abs(b)):
            tied.update((i, i + 1))
    return len(tied)


def random_evidence(net, rng, max_obs=2):
    names = [v.name for v in net.variables]
    k = int(rng.integers(0, max_obs + 1))
    chosen = rng.choice(len(names), size=k, replace=False) if k else []
    assignments = {}
    for i in chosen:
        var = net.var(names[int(i)])
        assignments[var.name] = var.states[int(rng.integers(var.card))]
    return Evidence(assignments)


def positive_evidence(net, rng, max_obs=2, cap=1 << 20):
    """Random evidence rejected until Pr(e) > 0."""
    from edgedel import enumerate_joint

    for _ in range(50):
        ev = random_evidence(net, rng, max_obs)
        if enumerate_joint(net, ev, cap).total() > 0:
            return ev
    return Evidence({})


def loopy_polytree_net(rng, n_vars=6, extra_edges=1, max_card=2):
    """A tree DAG plus ``extra_edges`` loop-closing edges.

    Deleting the returned extra edges restores a polytree.
    """
    variables = [
        Variable(f"V{i}", tuple(f"s{j}" for j in range(int(rng.integers(2, max_card + 1)))))
        for i in range(n_vars)
    ]
    parents = {0: ()}
    for i in range(1, n_vars):
        parents[i] = (int(rng.integers(0, i)),)
    extras = []
    tries = 0
    while len(extras) < extra_edges and tries < 100:
        tries += 1
        a, b = sorted(rng.choice(n_vars, size=2, replace=False))
        a, b = int(a), int(b)
        if a not in parents[b] and len(parents[b]) < 3:
            parents[b] = tuple(sorted(parents[b] + (a,)))
            extras.append((f"V{a}", f"V{b}"))
    cpts = [
        random_cpt(variables[i], tuple(variables[j] for j in parents[i]), rng)
        for i in range(n_vars)
    ]
    return Network(variables, cpts), extras


def bridged_net(rng, left=3, right=3):
    """Two random chains joined by a single bridge edge.

    Deleting the bridge disconnects the network.  Returns (net, bridge).
    """
    a_vars = [Variable(f"A{i}", ("0", "1")) for i in range(left)]
    b_vars = [Variable(f"B{i}", ("0", "1")) for i in range(right)]
    cpts = []
    for i, v in enumerate(a_vars):
        cpts.append(random_cpt(v, (a_vars[i - 1],) if i else (), rng))
    for i, v in enumerate(b_vars):
        parents = (b_vars[i - 1],) if i else (a_vars[-1],)
        cpts.append(random_cpt(v, parents, rng))
    net = Network(a_vars + b_vars, cpts)
    return net, (a_vars[-1].name, b_vars[0].name)


def equality_witness_net():
    """Two fair coins whose equality is asserted by two observed children.

    Conditioned on both witnesses firing, each coin is 50/50; deleting a
    coin-to-witness edge admits an exact approximation, and the match
    conditions alone do not pin the parameters down.
    """
    u1 = Variable("U1", ("h", "t"))
    u2 = Variable("U2", ("h", "t"))
    x1 = Variable("X1", ("on", "off"))
    x2 = Variable("X2", ("on", "off"))
    agree = [1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0]
    net = Network(
        [u1, u2, x1, x2],
        [
            Cpt(u1, (), [0.5, 0.5]),
            Cpt(u2, (), [0.5, 0.5]),
            Cpt(x1, (u1, u2), agree),
            Cpt(x2, (u1, u2), agree),
        ],
    )
    ev = Evidence({"X1": "on", "X2": "on"})
    return net, ev


@pytest.fixture
def coins_fixture():
    return equality_witness_net()


def brute_posterior(net, ev, name, cap=1 << 22):
    """Posterior over one variable straight from the enumeration oracle."""
    from edgedel import enumerate_joint

    joint = enumerate_joint(net, ev, cap)
    total = joint.total()
    if name in ev:
        var = net.var(name)
        out = np.zeros(var.card)
        out[var.index_of(ev[name])] = 1.0
        return out
    return joint.marginalize_to({name}).values / total
