"""Card model: the weight of each card value and what follows from it."""

from __future__ import annotations

from chemin import CARD_VALUES, HAND_TOTALS
from chemin.banker import MARGINS, win_tie_loss
from chemin.cards import DENOMINATIONS, DENOMINATIONS_PER_VALUE
from tests import oracles


def two_card_weights() -> list[int]:
    """Weight of each two-card total out of DENOMINATIONS**2, from the
    package's card weights."""
    card = DENOMINATIONS_PER_VALUE
    return [sum(card[a] * card[(total - a) % 10] for a in CARD_VALUES) for total in HAND_TOTALS]


class TestThirdCardPdf:
    """A dealt card has value v with probability
    ``DENOMINATIONS_PER_VALUE[v] / DENOMINATIONS``."""

    def test_zero_covers_four_denominations(self):
        assert DENOMINATIONS_PER_VALUE[0] == 4

    def test_other_values(self):
        assert DENOMINATIONS_PER_VALUE[7] == 1

    def test_normalizes(self):
        assert sum(DENOMINATIONS_PER_VALUE[value] for value in CARD_VALUES) == DENOMINATIONS

    def test_everywhere_positive(self):
        assert all(DENOMINATIONS_PER_VALUE[value] > 0 for value in CARD_VALUES)


class TestTwoCardPdf:
    def test_zero_total(self):
        assert two_card_weights()[0] == 25

    def test_nonzero_total(self):
        assert two_card_weights()[5] == 16

    def test_normalizes(self):
        assert sum(two_card_weights()) == DENOMINATIONS**2

    def test_matches_convolution_of_two_cards(self):
        # The oracle convolves its own weights, which share no code with
        # the package's.
        assert two_card_weights() == oracles.two_card_weights()


def outcomes(margin: int) -> tuple[int, int, int]:
    """(win, tie, loss) weights of a histogram holding one coup at ``margin``."""
    return win_tie_loss(tuple(int(m == margin) for m in MARGINS))


class TestOutcomeFunctionals:
    """``banker.win_tie_loss`` classifies Player's margin."""

    def test_win_indicator(self):
        assert [outcomes(m)[0] for m in (-2, 0, 3)] == [0, 0, 1]

    def test_tie_indicator(self):
        assert [outcomes(m)[1] for m in (-2, 0, 3)] == [0, 1, 0]

    def test_sign(self):
        assert [outcomes(m)[0] - outcomes(m)[2] for m in (-2, 0, 3)] == [-1, 0, 1]

    def test_sign_is_win_minus_loss(self):
        for margin in MARGINS:
            win, tie, loss = outcomes(margin)
            assert win + tie + loss == 1
            assert win - loss == oracles.sign(margin)
