"""Parametric bootstrap validation of mechanism assessments.

Replicate tables are drawn from the fitted expectations of a chosen model
(one multinomial of size N across every observed cell, or independent
Poisson draws behind a flag), each replicate is re-assessed, and the share
of replicates whose suggested class is MAR is reported per missing
variable and overall.  Replicates are drawn as flat observed-cell vectors
and screened a block at a time on the schema's screening plan.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError
from .fitting import FitResult, fit_model
from .models import observation_map, observed_counts
from .odds import screening_plan
from .tables import IncompleteTable, Stratum, _is_int

MODE_MULTINOMIAL = "multinomial"
MODE_POISSON = "poisson"
_MODES = (MODE_MULTINOMIAL, MODE_POISSON)

# numpy's SeedSequence hash (O'Neill's seed_seq, frozen by numpy's RNG
# policy, NEP 19): a pool of four uint32 words filled by hashmix and mix
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL = 4


def _check_mode(mode) -> None:
    if mode not in _MODES:
        raise ComputationError(f"unknown resampling mode {mode}")


def _is_seed_int(x) -> bool:
    return _is_int(x) and x >= 0


def _check_seed(seed) -> None:
    """Refuse a seed other than None, a non-negative integer (not a bool)
    or a flat list, tuple or range of them: the seeds whose words
    _seed_words takes, and that BootstrapSummary can compare."""
    if seed is None or _is_seed_int(seed):
        return
    if not (
        isinstance(seed, (list, tuple, range))
        and all(_is_seed_int(v) for v in seed)
    ):
        raise ComputationError(
            f"bad seed {seed!r}: expected None, a non-negative integer or a"
            " sequence of them"
        )


def _seed_words(value) -> list:
    """The uint32 words SeedSequence takes from a non-negative integer
    (least significant first, at least one) or a flat sequence of them."""
    if not _is_int(value):
        return [w for v in value for w in _seed_words(v)]
    value, words = int(value), []
    while value or not words:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_chain(init: int, mult: int):
    """The multiplier of one SeedSequence hash chain before and after each
    step."""
    while True:
        after = init * mult & _MASK32
        yield init, after
        init = after


# both take Python ints or uint32 arrays; the masks keep ints to 32 bits
def _hashmix(value, chain):
    before, after = next(chain)
    value = (value ^ before) * after & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    result = (x * _MIX_L - y * _MIX_R) & _MASK32
    return result ^ result >> _XSHIFT


def _child_seeds(entropy, spawn_key, start: int, count: int) -> np.ndarray:
    """Row k is SeedSequence(entropy, spawn_key=spawn_key + (start + k,))
    .generate_state(4, np.uint64), the PCG64 seed of that child, for count
    children with indices below 2**64.  The result is a fresh C-contiguous
    uint64 array, so each row is a contiguous buffer PCG64 can read.

    One pass of SeedSequence's mixing: the words before the child index
    are the same for every child and are mixed once, on Python ints; the
    index words are mixed on uint32 arrays, one entry per child, and an
    index of 2**32 or more adds a second word.
    """
    words = _seed_words(entropy)
    # with a spawn key the entropy is padded to the pool size first
    words += [0] * (_POOL - len(words)) + _seed_words(spawn_key)
    chain = _hash_chain(_INIT_A, _MULT_A)
    pool = [_hashmix(w, chain) for w in words[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], chain))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, chain))
    index = np.arange(start, start + count, dtype=np.uint64)
    pool = [np.full(count, p, np.uint32) for p in pool]
    low = (index & _MASK32).astype(np.uint32)
    for dst in range(_POOL):
        pool[dst] = _mix(pool[dst], _hashmix(low, chain))
    high = (index >> 32).astype(np.uint32)
    wide = high != 0
    if wide.any():
        for dst in range(_POOL):
            mixed = _mix(pool[dst], _hashmix(high, chain))
            pool[dst] = np.where(wide, mixed, pool[dst])
    chain = _hash_chain(_INIT_B, _MULT_B)
    state = [
        _hashmix(pool[k % _POOL], chain).astype(np.uint64)
        for k in range(2 * _POOL)
    ]
    # little-endian pairs of words, as generate_state views them
    return np.stack(
        [state[2 * k] | state[2 * k + 1] << 32 for k in range(_POOL)],
        axis=1,
    )


@functools.cache
def _seed_rows():
    """A SeedSequence stand-in that hands each PCG64 built on it the next
    row of a block of precomputed _child_seeds.  Built on first use, so
    importing misstab does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedRows(ISeedSequence):
        def __init__(self, seeds):
            self.rows = iter(seeds)

        def generate_state(self, n_words, dtype=np.uint32):
            return next(self.rows)  # PCG64 asks for (4, np.uint64)

    return SeedRows


def _draw_block(root, start: int, count: int, draw) -> np.ndarray:
    """The draws of replicates start ... start + count - 1, one row each:
    row i is draw(g) for the generator g that default_rng(root.spawn(n)[i])
    gives.  The first and last seeds are checked against SeedSequence
    itself before anything is drawn, so a derivation that differs raises
    instead of drawing another stream."""
    seeds = _child_seeds(root.entropy, root.spawn_key, start, count)
    for k in {0, count - 1}:
        child = np.random.SeedSequence(
            root.entropy, spawn_key=root.spawn_key + (start + k,)
        )
        if not np.array_equal(seeds[k], child.generate_state(_POOL, np.uint64)):
            raise ComputationError(
                f"the derived seed of replicate {start + k} differs from"
                " numpy's SeedSequence"
            )
    rows = _seed_rows()(seeds)
    generator, pcg64 = np.random.Generator, np.random.PCG64
    return np.concatenate(
        [draw(generator(pcg64(rows))) for _ in range(count)]
    ).reshape(count, -1)


def _sampler(fit: FitResult, table: IncompleteTable, mode: str):
    """A function drawing one replicate's observed counts (flat, in
    pattern order) from a generator, refusing degenerate models and a fit
    of another table."""
    _check_mode(mode)
    if fit.table != table:
        raise ComputationError(
            f"fit of model {fit.model_id} is of another table; its complete"
            " cross does not hold this table's expectations"
        )
    expectations = observation_map(table.schema).collapse(fit.mu_hat)
    if np.any((expectations < 1e-12) & (observed_counts(table) > 0)):
        raise ComputationError(
            f"model {fit.model_id} gives zero expectation to an"
            " observed nonempty cell; cannot generate replicates"
        )
    if mode == MODE_POISSON:
        return lambda rng: rng.poisson(expectations)
    total = expectations.sum()
    if total <= 0:
        raise ComputationError("fitted expectations sum to zero")
    n, p = table.N, expectations / total
    return lambda rng: rng.multinomial(n, p)


def resample(
    fit: FitResult,
    table: IncompleteTable,
    rng: np.random.Generator,
    mode: str = MODE_MULTINOMIAL,
) -> IncompleteTable:
    """One replicate table drawn from the fitted observed-cell expectations."""
    draw = _sampler(fit, table, mode)(rng)
    pieces = observation_map(table.schema).split(draw)
    strata = tuple(
        Stratum(st.observed, part) for st, part in zip(table.strata, pieces)
    )
    return IncompleteTable(table.schema, strata)


def _percent(mar: int, counted: int, empty=float("nan")):
    """Percentage of counted replicates suggesting MAR; empty when none
    is counted (NaN on the summaries, None in as_dict())."""
    return 100.0 * mar / counted if counted else empty


@dataclass(frozen=True)
class FamilyBootstrap:
    """Replicate tallies of one missing variable.  An excluded replicate
    has an undefined non-response odds (n_undefined_value), a check with
    no defined response odds (n_undefined_interval), or both.  With no
    replicate counted, percent_mar is NaN and as_dict() gives None."""

    variable: str
    n_counted: int
    n_excluded: int
    n_mar: int
    n_undefined_value: int
    n_undefined_interval: int

    @property
    def percent_mar(self) -> float:
        return _percent(self.n_mar, self.n_counted)

    def as_dict(self) -> dict:
        return {
            "variable": self.variable,
            "counted": self.n_counted,
            "excluded": self.n_excluded,
            "mar": self.n_mar,
            "percent_mar": _percent(self.n_mar, self.n_counted, None),
            "excluded_undefined_value": self.n_undefined_value,
            "excluded_undefined_interval": self.n_undefined_interval,
        }


@dataclass(frozen=True)
class BootstrapSummary:
    """Replicate tallies per missing variable and overall.  draw_s and
    screen_s are the seconds spent drawing and screening replicates; they
    vary from run to run, so they stay out of equality and as_dict().
    percent_mar is NaN, and None in as_dict(), when nothing is counted."""

    model_id: str
    n_replicates: int
    mode: str
    seed: object
    families: tuple
    overall_counted: int
    overall_excluded: int
    overall_mar: int
    draw_s: float = field(compare=False)
    screen_s: float = field(compare=False)

    @property
    def percent_mar(self) -> float:
        return _percent(self.overall_mar, self.overall_counted)

    def family(self, variable: str) -> FamilyBootstrap:
        for fam in self.families:
            if fam.variable == variable:
                return fam
        raise KeyError(variable)

    def as_dict(self) -> dict:
        return {
            "model": self.model_id,
            "replicates": self.n_replicates,
            "mode": self.mode,
            "families": [f.as_dict() for f in self.families],
            "overall": {
                "counted": self.overall_counted,
                "excluded": self.overall_excluded,
                "mar": self.overall_mar,
                "percent_mar": _percent(
                    self.overall_mar, self.overall_counted, None
                ),
            },
        }


def bootstrap_assess(
    table: IncompleteTable,
    model,
    n_replicates: int = 1000,
    seed=None,
    mode: str = MODE_MULTINOMIAL,
    fit: FitResult | None = None,
) -> BootstrapSummary:
    """Share of model-generated replicates whose assessment suggests MAR.

    A replicate counts toward a variable's percentage only when every
    check for that variable is defined; replicates with any undefined
    check (a zero count in an odds) are excluded and tallied.  The
    overall percentage applies the same rule across all variables.
    Replicate i draws from default_rng(SeedSequence(seed).spawn(n)[i]),
    so results are reproducible for a given (seed, n_replicates); seed is
    None, a non-negative integer or a flat sequence of them, and anything
    else raises ComputationError.  The seeds of a block of replicates are
    derived in one pass (_child_seeds).  A given fit replaces
    the fit of model; it must be a fit of this table and, unless model is
    None, of that model.
    """
    if not _is_int(n_replicates):
        raise ComputationError(
            f"n_replicates must be an integer, got {n_replicates!r}"
        )
    if n_replicates < 1:
        raise ComputationError("n_replicates must be >= 1")
    n_replicates = int(n_replicates)  # a numpy integer is not JSON
    _check_mode(mode)
    _check_seed(seed)
    # before the fit, so a table the plan refuses is not fitted first
    plan = screening_plan(table.schema)
    if fit is None:
        fit = fit_model(model, table)
    elif model is not None:
        wanted = getattr(model, "id", model)  # a model or its id
        if wanted != fit.model_id:
            raise ComputationError(
                f"fit is of model {fit.model_id}, not {wanted}"
            )
    draw = _sampler(fit, table, mode)
    root = np.random.SeedSequence(seed)
    missing = table.schema.missing
    # per family: counted, MAR, undefined value, undefined interval
    tally = np.zeros((len(missing), 4), dtype=np.int64)
    overall_counted = overall_mar = 0
    draw_s = screen_s = 0.0
    for start in range(0, n_replicates, plan.block_rows):
        began = time.perf_counter()
        count = min(plan.block_rows, n_replicates - start)
        block = _draw_block(root, start, count, draw)
        drawn = time.perf_counter()
        result = plan.screen(block)
        defined = result.defined
        for k in range(len(missing)):
            cols = plan.family == k
            counted = defined[:, cols].all(axis=1)
            tally[k] += (
                counted.sum(),
                (counted & result.outside[:, cols].any(axis=1)).sum(),
                (~result.value_defined[:, cols]).any(axis=1).sum(),
                (~result.interval_defined[:, cols]).any(axis=1).sum(),
            )
        counted = defined.all(axis=1)
        overall_counted += int(counted.sum())
        overall_mar += int((counted & result.outside.any(axis=1)).sum())
        draw_s += drawn - began
        screen_s += time.perf_counter() - drawn
    families = tuple(
        FamilyBootstrap(
            v, int(n), n_replicates - int(n), int(mar), int(value),
            int(interval),
        )
        for v, (n, mar, value, interval) in zip(missing, tally)
    )
    return BootstrapSummary(
        model_id=fit.model_id,
        n_replicates=n_replicates,
        mode=mode,
        seed=seed,
        families=families,
        overall_counted=overall_counted,
        overall_excluded=n_replicates - overall_counted,
        overall_mar=overall_mar,
        draw_s=draw_s,
        screen_s=screen_s,
    )
