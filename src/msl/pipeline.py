"""The three procedures tying the components together.

learn: decode train targets under fixed decoder params, train the
inferrer on them, then fit the encoder on the validation split's
predicted maps; the fit's exact counts for its chosen parameters are the
validation report, so the split is scored once. loop: restart learn for
every decoder candidate and keep the one with the lowest validation
detection loss. test: run a Predictor (inferrer, then encoder) over the
split in one pass; ground truth and decoder are never touched.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset
from .decoder import DecoderParams, DecoderSpace, decode
from .encoder import EncoderParams, EncoderSpace, encode, fit_encoder
from .errors import ConfigError, DivergenceError, LoopFailureError
from .inferrer import Architecture, InferrerParams, TrainConfig, infer_maps, train
from .metrics import DetectionReport, report
from .seeds import derive_seed


@dataclass(frozen=True, eq=False)
class Predictor:
    """What a solution needs at test time: the inferrer, then the encoder."""

    inferrer_params: InferrerParams
    encoder_params: EncoderParams


@dataclass(frozen=True, eq=False)
class LearnedSolution(Predictor):
    """Everything produced by one learning run under fixed decoder params."""

    decoder_params: DecoderParams
    step_losses: np.ndarray
    epoch_losses: np.ndarray
    encoder_table: tuple[tuple[EncoderParams, float], ...]
    validation_report: DetectionReport


@dataclass(frozen=True, eq=False)
class LoopEntry:
    decoder_params: DecoderParams
    validation_loss: float | None
    solution: LearnedSolution | None
    error: str | None
    seconds: float

    @property
    def failed(self) -> bool:
        return self.error is not None


@dataclass(frozen=True, eq=False)
class LoopResult:
    entries: tuple[LoopEntry, ...]
    selected_index: int

    @property
    def selected(self) -> LearnedSolution:
        solution = self.entries[self.selected_index].solution
        assert solution is not None
        return solution


def learn(
    train_split: Dataset,
    val_split: Dataset,
    decoder_params: DecoderParams,
    arch: Architecture,
    train_cfg: TrainConfig,
    encoder_space: EncoderSpace,
    match_tolerance: float,
) -> LearnedSolution:
    if train_split.n == 0 or val_split.n == 0:
        raise ConfigError("train and validation splits must be non-empty")
    targets = [decode(s.truth, s.lattice.shape, decoder_params) for s in train_split.samples]
    result = train([s.lattice for s in train_split.samples], targets, arch, train_cfg)

    val_maps = infer_maps([s.lattice for s in val_split.samples], result.params)
    val_truths = [s.truth for s in val_split.samples]
    encoder_params, table, val_report = fit_encoder(val_maps, val_truths, encoder_space, match_tolerance)
    return LearnedSolution(
        decoder_params=decoder_params,
        inferrer_params=result.params,
        encoder_params=encoder_params,
        step_losses=result.step_losses,
        epoch_losses=result.epoch_losses,
        encoder_table=tuple(table),
        validation_report=val_report,
    )


def _evaluate_candidate(args) -> LoopEntry:
    (index, candidate, train_split, val_split, arch, base_cfg, encoder_space, tolerance) = args
    cfg = replace(base_cfg, seed=derive_seed(base_cfg.seed, index))
    start = time.perf_counter()
    solution, error = None, None
    try:
        solution = learn(train_split, val_split, candidate, arch, cfg, encoder_space, tolerance)
    except DivergenceError as exc:
        error = str(exc)
    return LoopEntry(
        decoder_params=candidate,
        validation_loss=None if solution is None else solution.validation_report.loss,
        solution=solution,
        error=error,
        seconds=time.perf_counter() - start,
    )


def loop(
    train_split: Dataset,
    val_split: Dataset,
    decoder_space: DecoderSpace,
    arch: Architecture,
    train_cfg: TrainConfig,
    encoder_space: EncoderSpace,
    match_tolerance: float,
    workers: int = 1,
) -> LoopResult:
    """Restart learning for every decoder candidate and select the argmin.

    Each candidate trains under its own sub-seed of train_cfg.seed, so
    the result does not depend on worker count or evaluation order.
    Diverged candidates stay in the table as failed entries. Fewer than
    one worker is a ConfigError.
    """
    if workers < 1:
        raise ConfigError(f"workers (msl loop --workers) must be at least 1, got {workers}")
    jobs = [
        (i, candidate, train_split, val_split, arch, train_cfg, encoder_space, match_tolerance)
        for i, candidate in enumerate(decoder_space.candidates)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            entries = tuple(pool.map(_evaluate_candidate, jobs))
    else:
        entries = tuple(_evaluate_candidate(job) for job in jobs)

    ok = [i for i, entry in enumerate(entries) if not entry.failed]
    if not ok:
        raise LoopFailureError("every decoder candidate failed")
    # min() returns the first of equal minima: the earliest candidate wins ties.
    selected_index = min(ok, key=lambda i: entries[i].validation_loss)
    return LoopResult(entries=entries, selected_index=selected_index)


def test(test_split: Dataset, predictor: Predictor | LoopResult, match_tolerance: float) -> DetectionReport:
    """Evaluate a predictor on held-out samples.

    A LoopResult stands for its selected solution. Only the inferrer and
    encoder run, over the whole split at once, and each map is encoded
    while later ones are still inferred; the decoder is not invoked.
    """
    if isinstance(predictor, LoopResult):
        predictor = predictor.selected
    predictions = infer_maps(
        [s.lattice for s in test_split.samples],
        predictor.inferrer_params,
        then=lambda m: encode(m, predictor.encoder_params),
    )
    return report(predictions, [s.truth for s in test_split.samples], match_tolerance)


# Not a pytest test, though test modules import it under this name.
test.__test__ = False
