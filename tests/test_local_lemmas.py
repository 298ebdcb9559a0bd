import pytest

from stabtree import protocol
from stabtree.protocol import ProcessState, Rule, Status

from conftest import NEIGHBOURHOOD_MUTANTS, use_mutant
from local_lemmas import CENTRE, check_readers


def forgets_old_parent(config, g, u, move, moves):
    """A broken ``protocol.readers`` that takes ``u``'s old parent to be
    ``u`` itself, so an EB parent that ``u`` leaves is not named."""
    su, _, du = config[u]
    shown = list(config)
    shown[u] = ProcessState(su, u, du)
    return protocol.readers(shown, g, u, move, moves)


def strict_improvement(config, g, u, move, moves):
    """A broken ``protocol.readers`` that names a neighbour for ``u``'s
    offer only on a strict improvement in ``(d_v + w, v)``: a tie with a
    larger id than the recorded parent is left out, which assumes the
    smallest-id tie-break."""
    sn, _, dn = move.state

    def lost_tie(v):
        recorded = moves.get(v)
        return (
            config[v].par != u
            and recorded is not None
            and recorded.rule in (Rule.R_C, Rule.R_R)
            and sn is Status.C
            and dn + g.adjacency[u][v] == recorded.state.d
            and u > recorded.state.par
        )

    return [v for v in protocol.readers(config, g, u, move, moves) if not lost_tie(v)]


class TestReadersOnStars:
    @pytest.mark.parametrize("mutant", NEIGHBOURHOOD_MUTANTS)
    def test_left_out_centre_keeps_its_answer(self, monkeypatch, mutant):
        # Every star of degree 1 and 2, weights 1 and 2, distances 0..3,
        # every set of leaves firing every move: about a million pairs.
        use_mutant(monkeypatch, mutant)
        result = check_readers(k=2, max_weight=2, max_d=3)
        assert result.wrong == 0, result.first
        assert result.checked > 500_000

    def test_catches_readers_that_forgets_the_old_parent(self):
        # An EB centre waits on a child that leaves it: the centre may now
        # acknowledge, yet the child's move does not name it.
        result = check_readers(forgets_old_parent, k=2, max_weight=1, max_d=2)
        assert result.wrong > 0
        first = result.first
        assert first.config[CENTRE].status is Status.EB
        assert first.before is None and first.after.rule is Rule.R_EF
        assert any(first.config[u].par == CENTRE for u in first.fired)

    def test_strict_improvement_holds_only_under_the_smallest_id_tie_break(self, monkeypatch):
        assert check_readers(strict_improvement, k=2, max_weight=2, max_d=3).wrong == 0
        use_mutant(monkeypatch, "reversed_tie_break")
        result = check_readers(strict_improvement, k=2, max_weight=2, max_d=3)
        assert result.wrong > 0
        first = result.first
        ((u, move),) = first.fired.items()
        assert first.before.state.par < u and first.after.state == ProcessState(Status.C, u, first.before.state.d)
        assert move.state.d + first.weights[u - 2] == first.before.state.d

    @pytest.mark.slow
    @pytest.mark.parametrize("mutant", NEIGHBOURHOOD_MUTANTS)
    def test_degree_3(self, monkeypatch, mutant):
        # Three leaves firing together, unit weights, distances 0..3:
        # about 49 million pairs, some 20 s for each protocol.
        use_mutant(monkeypatch, mutant)
        result = check_readers(k=3, max_weight=1, max_d=3)
        assert result.wrong == 0, result.first
        assert result.checked > 10_000_000
