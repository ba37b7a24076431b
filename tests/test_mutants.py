"""Mutant scoreboard: which 1% errors in the spectral data the commands catch.

Each mutant scales one quantity by 1.01 or by 0.99, in-process, by
patching the name that the module using it imported (for gamma_source,
spectrum's private kernel, which every spectral sequence reads; for
slope and gamma_ratio, the names spectrum itself calls).
Then the README commands run through cli.main, and a mutant counts as
caught when one of them exits 1.  The caught set is asserted as a floor: a change may catch
more mutants, never fewer.  The survivors are printed, not asserted.
"""

import dataclasses
import time

import numpy as np

from fracsphere import cli, euclid, flow, inequality, spectrum
from fracsphere.euclid import euclid_eigenvalue, thm16_coefficients
from fracsphere.specfun import gamma_ratio
from fracsphere.spectrum import (_kernel, derive_params, gamma_sequence, operator_eigenvalue,
                                 slope_sequence)

# flow runs to t = 1, not the README's 6: RK4 steps dominate its cost (a
# t = 6 run per mutant would take the test far past its budget), and the
# mutants it catches fail the bound before t = 1
COMMANDS = (
    ["constants", "--n", "3", "--s", "2", "--kmax", "10"],
    ["constants", "--n", "1", "--s", "-0.5", "--q", "1.2"],
    ["verify", "--count", "200", "--seed", "0", "--out", "reports.csv"],
    ["scan", "--out", "scan.json"],
    ["scan", "--mode", "s_grid", "--n", "3", "--out", "landscape.csv"],
    ["flow", "--s", "0.5", "--q", "4.0", "--t-max", "1.0", "--out", "flow.csv"],
    ["euclid", "--s", "0.5", "--mode", "all", "--out", "euclid.json"],
)

# the mutants caught today; a change that catches another one adds it here.
# euclid's eigen-residual reads lam_k from gamma_sequence, so it catches the
# shared-source row and its own gamma_sequence name (exit 1) as well; its
# two-sided optimizer gate catches either weight of the line deficit,
# verify's sobolev identity <F,KF> = ||F||^2 + (q*-2) C <F,LF> catches K and
# L, and the constants gate C L_k = slope_k(q*) catches a moved slope or a
# moved gamma ratio (C and 1/kappa both move, so the gap is 2%)
CAUGHT_FLOOR = {"C+", "C-", "K+", "K-", "L+", "L-", "delta_1-",
                "line_lambda+", "line_lambda-",
                "gamma_source+", "gamma_source-", "line_gamma+", "line_gamma-",
                "line_a+", "line_a-", "line_b+", "line_b-",
                "slope+", "slope-", "gamma_ratio+", "gamma_ratio-"}
BUDGET_S = 10.0


def _scaled(values, index, factor):
    out = np.array(values, dtype=float)
    out[index] *= factor
    return out


def _patches(factor):
    """Mutant name (without its sign) -> the (module, name, stand-in)
    patches that scale its quantity by factor."""
    def params(*args, **kwargs):
        ps = derive_params(*args, **kwargs)
        return dataclasses.replace(ps, constant=ps.constant * factor)

    def eigenvalues(operator, index=slice(2, None)):     # one operator of the table
        def scaled(ps, kind, kmax):
            eigs = operator_eigenvalue(ps, kind, kmax)
            return _scaled(eigs, index, factor) if kind == operator else eigs
        return scaled

    def line_lambda(s, k):
        return euclid_eigenvalue(s, k) * (factor if k >= 2 else 1.0)

    def gammas(n, x, kmax):
        return _scaled(gamma_sequence(n, x, kmax), slice(2, None), factor)

    def slopes(n, q, kmax):
        return _scaled(slope_sequence(n, q, kmax), slice(2, None), factor)

    def kernel(n, x, kmax):         # gamma_k and e_k both, at k >= 2
        return tuple(_scaled(seq, slice(2, None), factor) for seq in _kernel(n, x, kmax))

    def line_weights(index):       # a or b of the line deficit
        return lambda ps: tuple(_scaled(thm16_coefficients(ps), index, factor))

    return {
        "C": [(module, "derive_params", params) for module in (inequality, cli, flow)],
        "K": [(inequality, "operator_eigenvalue", eigenvalues("K"))],
        "L": [(inequality, "operator_eigenvalue", eigenvalues("L"))],
        "delta_1": [(flow, "operator_eigenvalue", eigenvalues("L", 1))],
        "delta_k": [(flow, "operator_eigenvalue", eigenvalues("L"))],
        "line_lambda": [(euclid, "euclid_eigenvalue", line_lambda)],
        "line_gamma": [(euclid, "gamma_sequence", gammas)],
        "line_a": [(euclid, "thm16_coefficients", line_weights(0))],
        "line_b": [(euclid, "thm16_coefficients", line_weights(1))],
        # a wrong formula at the source, which every spectrum shares: K, L,
        # the slopes, the flow's delta and the line's gamma all move together
        "gamma_source": [(spectrum, "_kernel", kernel)],
        # the slopes of R and of the constants gate; the Gamma ratio behind
        # kappa, C and the 1/kappa of delta
        "slope": [(module, "slope_sequence", slopes) for module in (spectrum, cli)],
        "gamma_ratio": [(spectrum, "gamma_ratio",
                         lambda a, b, d: factor * gamma_ratio(a, b, d))],
    }


def _caught(tmp_path, monkeypatch):
    """Whether some command exits 1; the first one that does ends the run."""
    monkeypatch.chdir(tmp_path)
    for argv in COMMANDS:
        rc = cli.main(argv)
        assert rc in (0, 1), (argv, rc)
        if rc == 1:
            return True
    return False


def test_mutant_scoreboard_keeps_its_caught_floor(tmp_path, monkeypatch, capsys):
    t0 = time.perf_counter()
    with monkeypatch.context() as m:
        assert not _caught(tmp_path, m), "a command fails without a mutant"
    caught = set()
    for sign, factor in (("+", 1.01), ("-", 0.99)):
        for name, patches in _patches(factor).items():
            with monkeypatch.context() as m:
                for module, attr, stand_in in patches:
                    m.setattr(module, attr, stand_in)
                if _caught(tmp_path, m):
                    caught.add(name + sign)
    elapsed = time.perf_counter() - t0
    capsys.readouterr()         # the commands' own output
    survivors = sorted({n + s for n in _patches(1.0) for s in "+-"} - caught)
    print(f"caught {len(caught)} of {len(caught) + len(survivors)} in {elapsed:.1f} s "
          f"({BUDGET_S:g} s budget): {', '.join(sorted(caught))}")
    print(f"survivors: {', '.join(survivors)}")
    assert caught >= CAUGHT_FLOOR, sorted(CAUGHT_FLOOR - caught)
    assert elapsed < BUDGET_S, elapsed


def test_gamma_source_moves_every_spectrum(monkeypatch):
    # the row patches the one kernel, so every sequence read from it moves
    # at k >= 2 (R as a difference of two slopes): K, K_inv, L, K0prime, R,
    # the slopes, the flow's delta (read through the table) and the line's gamma
    ps, ps0 = derive_params(2, 1.0, 3.0), derive_params(2, 0.0, 2.0)

    def spectra():
        return ([operator_eigenvalue(ps, kind, 8) for kind in ("K", "K_inv", "L", "R")]
                + [operator_eigenvalue(ps0, "K0prime", 8), spectrum.slope_sequence(2, 3.0, 8),
                   flow.FlowOps(flow.FlowConfig()).delta[:9], euclid.gamma_sequence(1, 0.25, 8)])
    clean = spectra()
    (module, name, stand_in), = _patches(1.01)["gamma_source"]
    monkeypatch.setattr(module, name, stand_in)
    for before, after in zip(clean, spectra()):
        np.testing.assert_array_equal(after[:2], before[:2])
        np.testing.assert_allclose(after[2:], 1.01 * before[2:], rtol=1e-13)
