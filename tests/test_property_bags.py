"""Property-based tests on bag semantics and storage invariants."""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rand import SplitMix, cyclic_permutations, derive_seed
from repro.storage.bags import SimBag
from repro.storage.local import LocalBag
from repro.workloads.zipf import imbalance, zipf_weights


@given(
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=64, max_value=4096),
)
def test_simbag_conserves_bytes(writes, nodes, take_size):
    """take() hands out every written byte exactly once, never more."""
    bag = SimBag("b", range(nodes), chunk_size=4096)
    gen = SplitMix(derive_seed("prop", len(writes)))
    for nbytes in writes:
        bag.write(gen.randrange(nodes), nbytes)
    bag.seal()
    total = bag.written_total()
    grabbed = 0
    for _ in range(10_000):
        node = gen.randrange(nodes)
        got = bag.take(node, take_size)
        grabbed += got
        if bag.remaining_total() == 0:
            break
    # Drain stragglers deterministically.
    for node in range(nodes):
        while True:
            got = bag.take(node, take_size)
            if not got:
                break
            grabbed += got
    assert grabbed == total
    assert bag.remaining_total() == 0


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_localbag_exactly_once_concurrent(n_chunks, n_threads):
    bag = LocalBag("b")
    for i in range(n_chunks):
        bag.insert(i.to_bytes(4, "big"))
    bag.seal()
    outputs = [[] for _ in range(n_threads)]

    def consume(out):
        while True:
            chunk = bag.remove()
            if chunk is None:
                return
            out.append(chunk)

    threads = [
        threading.Thread(target=consume, args=(outputs[i],))
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    combined = [c for out in outputs for c in out]
    assert sorted(combined) == sorted(i.to_bytes(4, "big") for i in range(n_chunks))


@given(st.integers(min_value=1, max_value=64), st.integers())
def test_cyclic_permutations_cover_all_nodes(n, seed):
    perms = cyclic_permutations(n, seed & (2**64 - 1))
    for _ in range(3):
        cycle = next(perms)
        assert sorted(cycle) == list(range(n))


@given(st.integers(min_value=0, max_value=64), st.integers(min_value=0, max_value=2**64 - 1))
def test_permutation_matches_randrange_fisher_yates(n, seed):
    """The inlined shuffle draws the same stream as the loop over randrange."""
    fast, reference = SplitMix(seed), SplitMix(seed)
    items = list(range(n))
    for i in range(n - 1, 0, -1):
        j = reference.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    assert fast.permutation(n) == items
    # Both generators end in the same state.
    assert fast.next_u64() == reference.next_u64()


@given(
    st.integers(min_value=2, max_value=512),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_zipf_imbalance_formula(n, s):
    """Largest/smallest weight ratio is exactly n**s for rank weights."""
    weights = zipf_weights(n, s)
    assert abs(imbalance(weights) - n**s) / n**s < 1e-9
    assert abs(sum(weights) - 1.0) < 1e-9
    assert all(weights[i] >= weights[i + 1] for i in range(n - 1))
