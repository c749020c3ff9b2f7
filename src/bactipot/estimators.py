"""Estimation chain: from Ct values to dose-response parameters and the MIC.

The chain runs in three stages, each consuming the previous one's output:

1. Per concentration, the mean Ct of the replicates gives the log2 of the
   estimated expected total count, ``a - log2(x0) - mean(cts)``, which is
   clamped into its feasible range and inverted through the death-or-divide
   growth curve to an offspring-mean estimate (``estimate_offspring_mean``).
2. Across concentrations, the identity
   ``log(2/m(c) - 1) = log(alpha) + beta * log(c)`` turns the dose-response
   law into a straight line, fit by ordinary least squares
   (``fit_dose_response``; ``fit_dose_response_rows`` fits many repetitions
   at once, adding lanes in order for any memory layout). The minimal
   inhibitory concentration is ``alpha ** (-1/beta)``, the concentration
   where the offspring mean crosses 1.
3. ``asymptotic_covariance`` evaluates the exact large-replicate covariance
   of the scaled estimation errors for any concentration design, which is
   what makes designs comparable before running an experiment.

Nuisance quantities (calibration constant, generation count, noise level)
have their own estimators taken from growth-suppressing and free-growth
lanes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .branching import (
    GrowthParams,
    _check_generations,
    _check_x0,
    _growth_curve,
    _growth_slope,
    mean_from_concentration,
)
from .errors import InsufficientDataError, InvalidParameterError, SingularDesignError
from .measurement import check_grid, check_sigma_eps, same_concentration

if TYPE_CHECKING:
    import numpy as np

_LOG2 = math.log(2.0)

#: Keep-band of the default lane selection of ``fit_dose_response``.
#: Estimates near 0 or 2 carry almost no dose-response information and blow
#: up the log transform, so they are excluded unless the caller explicitly
#: selects their concentrations.
DEFAULT_M_BAND = (0.05, 1.95)

# Halvings of [0, 2] that leave a bracket of 2**-40 < 1e-12 around the mean,
# and the half-widths of the brackets they halve, down to 2**-40.
_BISECTION_STEPS = 41
_HALF_WIDTHS = tuple(2.0**-k for k in range(_BISECTION_STEPS))
_LATTICE = _HALF_WIDTHS[-1]

_CT_OVERFLOW = "Ct values are too large: their sums overflow the floating-point range"


class MeanEstimate(NamedTuple):
    """Per-concentration estimate of the expected total and offspring mean.

    Attributes:
        concentration: Lane concentration (NaN when estimated standalone).
        mu_hat: Estimated expected total count per initial cell, already
            clamped into [1, 2**n].
        m_hat: Offspring-mean estimate, the growth-curve inverse of
            ``mu_hat``.
        clamped: True when the raw estimate fell outside [1, 2**n] and was
            moved to the boundary; such estimates carry no interior
            information and are excluded from regression.
    """

    concentration: float
    mu_hat: float
    m_hat: float
    clamped: bool


class FitResult(NamedTuple):
    """Least-squares dose-response fit and the implied MIC.

    ``mic_hat`` is exactly ``alpha_hat ** (-1/beta_hat)``. ``excluded`` lists
    ``(concentration, reason)`` pairs for lanes left out of the regression.
    """

    alpha_hat: float
    beta_hat: float
    mic_hat: float
    used_concentrations: tuple[float, ...]
    excluded: tuple[tuple[float, str], ...] = ()


class AsymptoticCovariance(NamedTuple):
    """Asymptotic covariance of the scaled estimation errors for one design.

    Entries are the limiting variances/covariance of
    ``sqrt(N) * (alpha_hat - alpha, beta_hat - beta)`` and the limiting
    variance of ``sqrt(N) * (mic_hat - mic)`` as the per-concentration
    replicate count N grows. ``k_factors`` holds the per-concentration noise
    gains the sums are built from.
    """

    sigma2_alpha: float
    sigma_alphabeta: float
    sigma2_beta: float
    sigma2_theta: float
    k_factors: tuple[float, ...]


def mic(alpha: float, beta: float) -> float:
    """Minimal inhibitory concentration implied by the dose-response law.

    The smallest concentration with offspring mean <= 1, which under
    ``m(c) = 2/(1 + alpha * c**beta)`` is ``alpha ** (-1/beta)``. Inherits
    whatever unit the input concentrations carry.

    Raises:
        InvalidParameterError: if alpha or beta is not positive, or the MIC
            overflows the floating-point range or underflows to 0.
    """
    if not (alpha > 0.0) or not (beta > 0.0):
        raise InvalidParameterError(f"alpha and beta must be positive, got ({alpha!r}, {beta!r})")
    try:
        theta = alpha ** (-1.0 / beta)
    except OverflowError:
        theta = math.inf
    # a subnormal beta makes the exponent -inf, and then alpha < 1 gives inf unraised
    if not 0.0 < theta < math.inf:
        way = "overflows" if theta else "underflows"
        raise InvalidParameterError(
            f"the MIC of alpha {alpha!r} and beta {beta!r} {way} the floating-point range"
        )
    return theta


def invert_mean_total(mu: float, n_generations: int) -> float:
    """Offspring mean whose death-or-divide growth curve reaches ``mu``.

    Inverts ``mean_total_from_mean(., n)``, which maps [0, 2] strictly
    increasingly onto [1, 2**n], to what 41 halvings of [0, 2] give: the
    midpoint of the final bracket, two neighbouring multiples of 2**-40
    (under 1e-12 apart). Newton steps guess the root, and the halvings run
    only if the multiples of 2**-40 either side of the guess fail to bracket
    ``mu``. The growth curve, a Horner sum with positive coefficients, is
    non-decreasing in floating point too, so one bracket alone passes: the
    halvings' own, and the result is theirs bit for bit. Exact at both
    endpoints.

    Raises:
        InvalidParameterError: if ``mu`` lies outside [1, 2**n]. Callers are
            expected to clamp noisy estimates first (see
            ``estimate_offspring_mean``).
    """
    _check_generations(n_generations, minimum=1)
    upper = 2.0**n_generations
    if math.isnan(mu) or mu < 1.0 or mu > upper:
        raise InvalidParameterError(
            f"mu must lie in [1, 2**{n_generations}] = [1, {upper}], got {mu!r}"
        )
    if mu == 1.0:
        return 0.0
    if mu == upper:
        return 2.0
    m_hat, hit = _check_guess(_guess(mu, n_generations, math), mu, n_generations)
    return m_hat if hit else _bisect(mu, n_generations)


def _bisect(mu, n_generations: int):
    # 41 halvings of [0, 2] toward mu, float or array. Every bracket end is a
    # multiple of 2**-40 in [0, 2], so the midpoint 0.5*(lo + hi) is exactly
    # lo + step, and the result is the last bracket's midpoint.
    lo = 0.0
    for step in _HALF_WIDTHS:
        lo = lo + step * (_growth_curve(lo + step, n_generations) < mu)
    return lo + 2.0**-_BISECTION_STEPS


def _guess(mu, n: int, xp):
    # Newton steps from above, float or array mu, xp math or numpy; 9 reach
    # the root for every n tried. In u = log m, phi(u) = log(2 (G(e**u) - 1))
    # = u + log(expm1(n u) / expm1(u)) is convex and increasing, and e**u starts
    # at min(2 (mu - 1), mu**(1/n)), above the root as G(m) >= 1 + m/2 and
    # G(m) >= m**n. Phi is 0/0 at u = 0, so near it phi is extended linearly.
    t = xp.log(mu - 1.0) + _LOG2  # 2 (mu - 1) overflows for mu = 2**1023
    u = xp.log(mu) / n
    u = min(t, u) if xp is math else xp.minimum(t, u)
    d = 1e-9 / n
    for _ in range(10):
        shift = (abs(u) < d) * (d - u)
        v = u + shift
        a, b = xp.expm1(n * v), xp.expm1(v)
        step = (v + xp.log(a / b) - t) / (n + n / a - 1 / b) - shift
        u = u - step
        if xp is math and abs(step) < 1e-9:  # an array takes every step
            break
    return xp.exp(u)


def _check_guess(guess, mu, n: int):
    # (_bisect's result, True) if the multiples of 2**-40 either side of the
    # guess bracket mu; float or array guess >= 0, and a NaN one or one above 2 fails
    x = (guess / _LATTICE + 0.5) // 1.0 * _LATTICE
    below = _growth_curve(x, n) < mu
    hit = below ^ (_growth_curve(x + _LATTICE * (2 * below - 1), n) < mu)
    return x + _LATTICE * (below - 0.5), hit


def estimate_offspring_means(
    mean_cts: np.ndarray, a: float, x0: int, n_generations: int
) -> np.ndarray:
    """Offspring-mean estimates for an array of lane mean Ct values.

    The array form of ``estimate_offspring_mean``: each element's
    ``a - log2(x0) - mean_ct`` is clamped into [0, n] in log space, and the
    total-count estimate ``2 ** (...)`` is inverted as ``invert_mean_total``
    inverts it, by a guess, the bracket check as a mask, and the halvings
    for the elements that miss. Each element gets the scalar result's bits.

    Raises:
        InvalidParameterError: if that log-total is NaN for some element.
    """
    import numpy as np
    _check_generations(n_generations, minimum=1)
    # overflow gives +-inf, clamped as the scalar estimate clamps it; inf - inf is NaN
    with np.errstate(over="ignore", invalid="ignore"):
        log2_mu = _log2_mean_total(np.asarray(mean_cts, dtype=float), a, x0)
    if np.isnan(log2_mu).any():
        raise InvalidParameterError("a - log2(x0) - mean_ct is NaN for some lane")
    upper = 2.0**n_generations
    mu = np.clip(np.power(2.0, np.clip(log2_mu, 0.0, n_generations)), 1.0, upper)
    return np.where(mu == 1.0, 0.0, np.where(mu == upper, 2.0, _invert_totals(mu, n_generations)))


def _invert_totals(mu: np.ndarray, n_generations: int) -> np.ndarray:
    # invert_mean_total's guess, check and halvings over an array of totals,
    # bit for bit inside (1, 2**n); a total of 1 has a NaN guess
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore"):
        m_hat, hit = _check_guess(_guess(mu, n_generations, np), mu, n_generations)
    if not hit.all():
        m_hat = np.asarray(m_hat)  # writable, also for a 0-d total
        m_hat[~hit] = _bisect(mu[~hit], n_generations)
    return m_hat


def estimate_offspring_mean(
    cts: Sequence[float],
    a: float,
    x0: int,
    n_generations: int,
    concentration: float = math.nan,
) -> MeanEstimate:
    """Offspring-mean estimate for one lane of replicate Ct values.

    The raw total-count estimate ``2 ** (a - log2(x0) - mean(cts))`` is
    clamped into its feasible range [1, 2**n] (measurement noise can push it
    outside) and inverted through the growth curve.

    Args:
        cts: Replicate Ct values at one concentration.
        a: Calibration constant (known or previously estimated).
        x0: Initial live cells per well, in [1, ``MAX_COUNT``].
        n_generations: Generation count (known or previously estimated).
        concentration: Recorded on the result for downstream selection.
    """
    _check_generations(n_generations, minimum=1)
    log2_mu = _log2_mean_total(_mean_ct(cts), a, x0)
    # clamp in log space so absurd inputs cannot overflow the power
    mu_hat = 2.0 ** min(max(log2_mu, 0.0), n_generations)
    return MeanEstimate(
        concentration=concentration,
        mu_hat=mu_hat,
        m_hat=invert_mean_total(mu_hat, n_generations),
        clamped=not 0.0 <= log2_mu <= n_generations,
    )


def fit_dose_response(
    estimates: Sequence[MeanEstimate],
    concentrations: Sequence[float] | None = None,
) -> FitResult:
    """Least-squares fit of the dose-response parameters.

    Writing ``f_i = log(2/m_hat(c_i) - 1)`` and ``l_i = log(c_i)`` (natural
    logs), the model is the line ``f = log(alpha) + beta * l``, solved in
    closed form by ``_fit_line`` with every weight 1:

        beta_hat  = (K * sum(f*l) - sum(f) * L1) / (K * L2 - L1**2)
        alpha_hat = exp((sum(f) - beta_hat * L1) / K)

    Lane selection: boundary estimates (``m_hat`` of exactly 0 or 2, where
    the log transform is undefined) are always excluded. With
    ``concentrations=None`` the band filter keeps lanes whose ``m_hat``
    lies inside ``DEFAULT_M_BAND``; passing an explicit concentration
    subset overrides the band and uses exactly those lanes, each matched by
    ``measurement.same_concentration``.

    Raises:
        InvalidParameterError: if the estimates' concentrations, sorted, are
            not a grid that ``measurement.check_grid`` accepts.
        InsufficientDataError: if fewer than two usable lanes remain; the
            message names the excluded lanes and reasons.
    """
    ordered = sorted(estimates, key=lambda e: e.concentration)
    cs = [e.concentration for e in ordered]
    check_grid(cs)

    subset = None if concentrations is None else list(concentrations)
    if subset is not None:
        missing = [c for c in subset if not any(same_concentration(c, e) for e in cs)]
        if missing:
            raise InvalidParameterError(
                f"requested concentrations {missing!r} have no estimates"
            )

    used: list[MeanEstimate] = []
    excluded: list[tuple[float, str]] = []
    for est in ordered:
        if subset is not None and not any(same_concentration(est.concentration, c) for c in subset):
            excluded.append((est.concentration, "not-selected"))
        elif est.m_hat <= 0.0 or est.m_hat >= 2.0:
            side = "zero" if est.m_hat <= 0.0 else "two"
            excluded.append((est.concentration, f"boundary-{side}"))
        elif subset is None and not (DEFAULT_M_BAND[0] <= est.m_hat <= DEFAULT_M_BAND[1]):
            excluded.append((est.concentration, "outside-band"))
        else:
            used.append(est)

    if len(used) < 2:
        raise InsufficientDataError(
            f"need >= 2 usable concentrations, have {len(used)}; excluded: {excluded!r}"
        )

    ls = [math.log(e.concentration) for e in used]
    fs = [math.log(2.0 / e.m_hat - 1.0) for e in used]
    _, _, beta_hat, log_alpha = _fit_line(ls, fs, [1.0] * len(used), math.fsum)
    if beta_hat == 0.0:
        raise SingularDesignError("flat response: fitted slope is exactly zero")
    try:
        alpha_hat = math.exp(log_alpha)
        mic_hat = alpha_hat ** (-1.0 / beta_hat)
    except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: alpha_hat underflowed to 0
        mic_hat = math.nan
    if not 0.0 < mic_hat < math.inf:  # also a MIC that underflowed to 0
        raise SingularDesignError("degenerate fit: parameters leave the floating-point range")
    return FitResult(
        alpha_hat=alpha_hat,
        beta_hat=beta_hat,
        mic_hat=mic_hat,
        used_concentrations=tuple(e.concentration for e in used),
        excluded=tuple(excluded),
    )


def fit_dose_response_rows(
    m_hats: np.ndarray, concentrations: Sequence[float]
) -> np.ndarray:
    """``fit_dose_response`` on the full grid, for many repetitions at once.

    Row ``r`` of ``m_hats`` holds one repetition's offspring-mean estimates
    at ``concentrations``. Each row is fit as
    ``fit_dose_response(estimates, concentrations=concentrations)`` would fit
    it: lanes whose estimate is exactly 0 or 2 are left out, the band filter
    does not apply, and ``_fit_line`` solves the same line with the usage
    mask as 0/1 weights, adding the lanes in order for any memory layout of
    ``m_hats``. The grid is taken as valid: its one caller,
    ``run_mc_study``, has it checked by ``McStudyConfig``.

    Returns:
        Array of shape ``(rows, 3)`` holding ``(alpha_hat, beta_hat,
        mic_hat)`` per row, NaN in rows where the scalar fit would raise
        (fewer than two usable lanes, a degenerate design, a flat slope,
        parameters that overflow or a MIC that underflows to 0).
    """
    import numpy as np
    m_hats = np.asarray(m_hats, dtype=float)
    used = (m_hats > 0.0) & (m_hats < 2.0)
    ls = np.log(np.asarray(concentrations, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fs = np.where(used, np.log(2.0 / m_hats - 1.0), 0.0)
        k, d, beta, log_alpha = _fit_line(ls, fs.T, used.T, sum)
        alpha = np.exp(log_alpha)
        theta = alpha ** (-1.0 / beta)
    fits = np.stack([alpha, beta, theta], axis=1)
    ok = (k >= 2) & (d > 0.0) & (beta != 0.0) & (theta > 0.0)
    ok &= np.isfinite(fits).all(axis=1)
    fits[~ok] = math.nan
    return fits


def k_factor(
    concentration: float, params: GrowthParams, n_generations: int, sigma_eps: float
) -> float:
    """Noise gain of one lane in the linearized regression.

    Scales the Ct measurement noise into the ``f = log(2/m - 1)`` coordinate:
    the chain rule through the growth-curve inversion contributes
    ``sigma_eps * mu_n(m) * log(2) / mu_n'(m)`` and the log transform
    contributes ``-2 / (m * (2 - m))``. Enters the covariance sums squared,
    so its sign never matters downstream.

    Raises:
        InvalidParameterError: if ``n_generations`` lies outside [1, 1023],
            or ``sigma_eps`` is not finite and >= 0.
        SingularDesignError: if the offspring mean at this concentration is
            0 or 2, where the lane carries no regression information, or if
            the gain is not finite in double precision.
    """
    _check_generations(n_generations, minimum=1)
    check_sigma_eps(sigma_eps)
    m = mean_from_concentration(params, concentration)
    if not (0.0 < m < 2.0):
        raise SingularDesignError(
            f"offspring mean {m} at concentration {concentration} is on the boundary"
        )
    gain = sigma_eps * _growth_curve(m, n_generations) * _LOG2
    slope = _growth_slope(m, n_generations)
    k = -2.0 / (m * (2.0 - m)) * gain / slope
    # an overflowed slope would silently turn the gain into zero
    if not (math.isfinite(slope) and math.isfinite(k)):
        raise SingularDesignError(
            f"noise gain at concentration {concentration} over {n_generations} "
            "generations overflows the floating-point range"
        )
    return k


def asymptotic_covariance(
    concentrations: Sequence[float],
    params: GrowthParams,
    n_generations: int,
    sigma_eps: float,
) -> AsymptoticCovariance:
    """Exact asymptotic covariance of the fit for one concentration design.

    With ``A_i = L2 - L1*l_i`` and ``B_i = K*l_i - L1``:

        sigma2_alpha    = alpha**2 / D**2 * sum(k_i**2 * A_i**2)
        sigma_alphabeta = alpha    / D**2 * sum(k_i**2 * A_i * B_i)
        sigma2_beta     =        1 / D**2 * sum(k_i**2 * B_i**2)
        sigma2_theta    = theta**2 / (beta**2 * D**2)
                          * sum(k_i**2 * (A_i - (log(alpha)/beta) * B_i)**2)

    where ``D = K*L2 - L1**2``, ``theta`` is the MIC, and ``k_i`` comes from
    ``k_factor``. All four vanish when ``sigma_eps`` is zero.

    Raises:
        InvalidParameterError: if the concentrations, sorted, are not a grid
            that ``measurement.check_grid`` accepts.
        SingularDesignError: if a lane is on the boundary, an entry
            overflows the floating-point range, or the MIC variance underflows
            to 0 while its sum is positive.
    """
    cs = sorted(concentrations)
    check_grid(cs)
    ks = [k_factor(c, params, n_generations, sigma_eps) for c in cs]
    sums = _covariance_sums(ks, [math.log(c) for c in cs], params.alpha, params.beta)
    return AsymptoticCovariance(*sums, k_factors=tuple(ks))


def _design_sums(ls, ws, total):
    """``(S0, S1, S2, D)``: ``w``, ``w*l`` and ``w*l**2`` summed by ``total``
    over lanes whose ``l`` and ``w`` are floats or arrays over rows, and
    ``D = S0*S2 - S1**2``. ``total`` is ``math.fsum``, or builtin ``sum``,
    which adds lanes in order whatever the memory layout. A float ``D`` at or
    below 0, as rounding can leave it, raises ``SingularDesignError``."""
    wls = [w * l for w, l in zip(ws, ls)]
    s0, s1 = total(ws), total(wls)
    s2 = total(wl * l for wl, l in zip(wls, ls))
    d = s0 * s2 - s1**2
    if isinstance(d, float) and d <= 0.0:
        raise SingularDesignError("degenerate design: S0*S2 - S1**2 is not positive")
    return s0, s1, s2, d


def _fit_line(ls, fs, ws, total):
    """``(S0, D, beta, log_alpha)`` of the weighted least-squares line
    ``f = log_alpha + beta*l`` through lanes ``(l, f)`` of weight ``w``:
    ``beta = (S0*Sfl - Sf*S1) / D``, ``log_alpha = (Sf - beta*S1) / S0``, with
    ``Sf``, ``Sfl`` the sums of ``w*f``, ``w*f*l`` (see ``_design_sums``)."""
    s0, s1, _, d = _design_sums(ls, ws, total)
    sf = total(w * f for w, f in zip(ws, fs))
    sfl = total(w * f * l for w, f, l in zip(ws, fs, ls))
    beta = (s0 * sfl - sf * s1) / d
    return s0, d, beta, (sf - beta * s1) / s0


def _covariance_sums(
    ks: Sequence[float], ls: Sequence[float], alpha: float, beta: float
) -> tuple[float, float, float, float]:
    if len(ls) < 2:
        raise InsufficientDataError(f"need at least 2 regression points, got {len(ls)}")
    n, l1, l2, d = _design_sums(ls, [1.0] * len(ls), math.fsum)
    d2 = d**2
    a_terms = [l2 - l1 * l for l in ls]
    b_terms = [n * l - l1 for l in ls]
    try:
        s2a = alpha**2 / d2 * math.fsum(k * k * a * a for k, a in zip(ks, a_terms))
        sab = alpha / d2 * math.fsum(k * k * a * b for k, a, b in zip(ks, a_terms, b_terms))
        s2b = math.fsum(k * k * b * b for k, b in zip(ks, b_terms)) / d2
        theta = alpha ** (-1.0 / beta)
        ratio = math.log(alpha) / beta
        t_sum = math.fsum(k * k * (a - ratio * b) ** 2 for k, a, b in zip(ks, a_terms, b_terms))
        s2t = theta**2 / (beta**2 * d2) * t_sum
        sums = (s2a, sab, s2b, s2t)
        # a MIC, or a MIC variance, that underflowed to 0 would rank a design
        # by a variance of exactly 0
        finite = (
            theta > 0.0
            and (s2t > 0.0 or t_sum == 0.0)
            and all(math.isfinite(v) for v in sums)
        )
    # ValueError: fsum of opposite infinities; ZeroDivisionError: beta**2 * D**2
    # underflowed to 0
    except (OverflowError, ValueError, ZeroDivisionError):
        finite = False
    if not finite:
        raise SingularDesignError("covariance leaves the floating-point range")
    return sums


def estimate_calibration(cts: Sequence[float], x0: int) -> float:
    """Calibration constant from growth-suppressed lanes.

    At concentrations high enough that essentially no divisions happen, the
    total count stays at the inoculum, so ``mean(cts) + log2(x0)`` recovers
    the instrument constant. The caller asserts that the lanes qualify.
    """
    _check_x0(x0)
    return _mean_ct(cts) + math.log2(x0)


def estimate_generations(cts: Sequence[float], a_hat: float, x0: int) -> float:
    """Generation count from a free-growth lane.

    With no antibiotic effect the population doubles every generation, so
    ``a_hat - log2(x0) - mean(cts)`` estimates the number of generations.
    Returned as a real number; round with ``round_generations`` for use as a
    generation count and keep the raw value as a diagnostic.

    Raises:
        InvalidParameterError: if the estimate overflows the floating-point
            range.
    """
    n_hat = _log2_mean_total(_mean_ct(cts), a_hat, x0)
    if not math.isfinite(n_hat):
        raise InvalidParameterError(
            f"generation estimate {n_hat} overflows: check the Ct values and a_hat {a_hat!r}"
        )
    return n_hat


def round_generations(value: float) -> int:
    """Nearest integer with half-way cases rounding up; ``value`` must be finite."""
    if not math.isfinite(value):
        raise InvalidParameterError(f"generation estimate must be finite, got {value!r}")
    return int(math.floor(value + 0.5))


def estimate_noise_sd(groups: Iterable[Sequence[float]]) -> float:
    """Pooled within-group standard deviation of replicate Ct values.

    Groups are replicate sets sharing a concentration; singleton groups
    contribute nothing. The pooled variance is the within-group sum of
    squares divided by the summed degrees of freedom (unbiased).

    Raises:
        InsufficientDataError: if no group has two or more replicates.
        InvalidParameterError: if the sum of squares overflows.
    """
    ss = 0.0
    dof = 0
    for group in groups:
        values = list(group)
        if len(values) < 2:
            continue
        center = _mean_ct(values)
        try:
            ss += math.fsum((v - center) ** 2 for v in values)
        except OverflowError:
            raise InvalidParameterError(_CT_OVERFLOW) from None
        dof += len(values) - 1
    if dof == 0:
        raise InsufficientDataError("need at least one group with >= 2 replicates")
    if math.isinf(ss):
        raise InvalidParameterError(_CT_OVERFLOW)
    return math.sqrt(ss / dof)


def _mean_ct(cts: Sequence[float]) -> float:
    if len(cts) == 0:
        raise InvalidParameterError("need at least one Ct value")
    try:
        return math.fsum(cts) / len(cts)
    except OverflowError:
        raise InvalidParameterError(_CT_OVERFLOW) from None


def _log2_mean_total(mean_ct, a: float, x0: int):
    # the Ct model solved for log2 of the total per initial cell; float or array
    _check_x0(x0)
    return a - math.log2(x0) - mean_ct

