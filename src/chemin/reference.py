"""Published reference values from the early baccarat literature.

Checked-in comparison fixture for the ``compare`` command and the
historical-replication tests.  Scenario keys are (action_at_five,
assumed_rule) index pairs with 0 = stand / non-tireur and 1 = draw /
tireur; value tuples are (win probability, tie probability, expected
profit) for Player, conditional on Banker not holding a natural.
"""

from __future__ import annotations

from fractions import Fraction

Scenario = tuple[int, int]
Triple = tuple[Fraction, Fraction, Fraction]

#: Bertrand (1888), "Calcul des probabilites", pp. 39-42: six-decimal
#: values.  He tabulated the probability of a Player loss rather than the
#: expectation; E here is the equivalent 2W + T - 1.  The (draw, tireur)
#: row reproduces Badoureau's erroneous fractions, not the correct values.
BERTRAND_DECIMALS: dict[Scenario, Triple] = {
    (0, 0): (Fraction("0.444694"), Fraction("0.085907"), Fraction("-0.024706")),
    (0, 1): (Fraction("0.489612"), Fraction("0.094890"), Fraction("0.074115")),
    (1, 0): (Fraction("0.447113"), Fraction("0.126463"), Fraction("0.020689")),
    (1, 1): (Fraction("0.444348"), Fraction("0.120935"), Fraction("0.009631")),
}

#: Badoureau (1881), "Etude sur le jeu de baccarat": exact fractions.  He
#: reported Player's chances C = W + T/2, equivalent to E = 2C - 1.  The
#: first three rows are exactly right; (draw, tireur) reflects his three
#: table errors at (4,1), (4,9), (6,6).
BADOUREAU_FRACTIONS: dict[Scenario, Triple] = {
    (0, 0): (Fraction(792, 1781), Fraction(153, 1781), Fraction(-44, 1781)),
    (0, 1): (Fraction(872, 1781), Fraction(169, 1781), Fraction(132, 1781)),
    (1, 0): (Fraction(10352, 23153), Fraction(2928, 23153), Fraction(479, 23153)),
    (1, 1): (Fraction(10288, 23153), Fraction(2800, 23153), Fraction(223, 23153)),
}

#: Dormoy (1872), "Theorie mathematique des jeux de hasard", Section 79:
#: expectations rounded to two or three decimals, paired with what a
#: correct rounding would have shown.  He did not treat (stand, tireur).
DORMOY_DECIMALS: dict[Scenario, tuple[str, str]] = {
    (0, 0): ("-0.024", "-0.025"),
    (1, 0): ("0.012", "0.021"),
    (1, 1): ("0.02", "0.01"),
}
