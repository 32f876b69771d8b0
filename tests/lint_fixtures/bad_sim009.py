"""SIM009 fixture: impure fast-path hooks and guard bypasses."""


def pure_observer(pkt, now):
    return (pkt, now)


def scheduling_hook(pkt, now):
    pkt.sim.schedule(0.001, pkt)


def drawing_hook(pkt, now, rng):
    return rng.normal()


def mutating_hook(link, pkt):
    link.capacity_bps = 0.0


def setup(link, sink):
    link.deliver = pure_observer  # pure observer: clean
    link.deliver = scheduling_hook  # reschedules from inside the data path
    link.drop_hook = drawing_hook  # draws RNG per drop
    link.qdisc = mutating_hook  # mutates link state
    link._drop_hook = pure_observer  # bypasses the property setter guard
    link.deliver = sink.append  # unresolvable bound method: clean


def construct(Link, net):
    good = Link(deliver=pure_observer)
    bad = Link(drop_hook=drawing_hook)  # keyword install of an impure hook
    return good, bad


def suppressed(link):
    link.deliver = scheduling_hook  # simlint: disable=SIM009 -- test harness


def folding_hook(pkt, now):
    pkt.link._advance(now)


def install_folding(link):
    link.deliver = folding_hook  # folds link state from inside the data path
