"""Ablation and extension experiments (beyond the paper's tables).

Each function isolates one design decision of the system and measures
what it buys; the corresponding ``benchmarks/bench_ablation_*.py``
files are thin wrappers.  See EXPERIMENTS.md for the recorded results.
"""

from __future__ import annotations

import numpy as np

from ..core.envelope import envelope_distance, k_envelope, warping_width_to_k
from ..core.envelope_transforms import (
    NaiveEnvelopeTransform,
    NewPAAEnvelopeTransform,
    SignSplitEnvelopeTransform,
)
from ..core.normal_form import NormalForm
from ..core.transforms import DFTTransform
from ..datasets.generators import random_walks
from ..dtw.distance import ldtw_distance
from ..hum.singer import SingerProfile, hum_melody
from ..index.gemini import WarpingIndex
from ..index.rstartree import RStarTree
from ..music.corpus import generate_corpus, segment_corpus
from ..qbh.system import QueryByHummingSystem
from .config import ExperimentScale

__all__ = [
    "run_signsplit_ablation",
    "run_knn_ablation",
    "run_backend_ablation",
    "run_cascade_ablation",
    "run_second_filter_ablation",
    "run_split_ablation",
    "run_noise_sweep",
]

_LENGTH = 128
_DIMS = 8


def run_signsplit_ablation(n_trials: int, *, length: int = 128,
                           n_dims: int = 8, k: int = 6, seed: int = 3) -> dict:
    """Count container/lower-bound violations with and without Lemma 3."""
    rng = np.random.default_rng(seed)
    split = SignSplitEnvelopeTransform(DFTTransform(length, n_dims))
    naive = NaiveEnvelopeTransform(DFTTransform(length, n_dims))
    container = {"sign_split": 0, "naive": 0}
    lb_violations = {"sign_split": 0, "naive": 0}
    for _ in range(n_trials):
        y = np.cumsum(rng.normal(size=length))
        y -= y.mean()
        x = np.cumsum(rng.normal(size=length))
        x -= x.mean()
        env = k_envelope(y, k)
        z = env.lower + rng.random(length) * env.width()
        true_dtw = ldtw_distance(x, y, k)
        for name, env_t in (("sign_split", split), ("naive", naive)):
            reduced = env_t.reduce(env)
            if not reduced.contains(env_t.transform_series(z), atol=1e-9):
                container[name] += 1
            lb = envelope_distance(env_t.transform_series(x), reduced)
            if lb > true_dtw + 1e-9:
                lb_violations[name] += 1
    return {
        "method": ["sign_split", "naive"],
        "container_violations": [container["sign_split"], container["naive"]],
        "lower_bound_violations": [lb_violations["sign_split"],
                                   lb_violations["naive"]],
    }


def run_knn_ablation(db_size: int, n_queries: int, *,
                     k_neighbours: int = 10, seed: int = 21) -> dict:
    """Refinements per k-NN query: multi-step vs a full scan."""
    series = list(random_walks(db_size, _LENGTH, seed=seed))
    queries = random_walks(n_queries, _LENGTH, seed=seed + 1)
    rows = {"width": [], "refined_multistep": [], "refined_scan": [],
            "pages_multistep": []}
    for delta in (0.02, 0.1, 0.2):
        index = WarpingIndex(
            series, delta=delta, normal_form=NormalForm(length=_LENGTH),
            n_features=_DIMS,
        )
        refined = pages = 0
        for q in queries:
            _, stats = index.multistep_knn(q, k_neighbours)
            refined += stats.dtw_computations
            pages += stats.page_accesses
        rows["width"].append(delta)
        rows["refined_multistep"].append(round(refined / n_queries, 1))
        rows["refined_scan"].append(db_size)
        rows["pages_multistep"].append(round(pages / n_queries, 1))
    return rows


def run_backend_ablation(db_size: int, n_queries: int, *,
                         delta: float = 0.1, seed: int = 41) -> tuple[dict, dict]:
    """Page accesses per range query across all index backends.

    Returns ``(rows, answers)`` where *answers* maps backend to the
    per-query candidate lists (for the neutrality assertion).
    """
    series = list(random_walks(db_size, _LENGTH, seed=seed))
    queries = random_walks(n_queries, _LENGTH, seed=seed + 1)
    radius = 0.5 * np.sqrt(_LENGTH)
    kinds = ("rstar", "grid", "cluster", "linear")
    indexes = {
        kind: WarpingIndex(
            series, delta=delta, normal_form=NormalForm(length=_LENGTH),
            index_kind=kind,
        )
        for kind in kinds
    }
    pages = {kind: 0 for kind in kinds}
    answers = {kind: [] for kind in kinds}
    for q in queries:
        for kind, index in indexes.items():
            ids, stats = index.filter_query(q, radius)
            pages[kind] += stats.page_accesses
            answers[kind].append(sorted(ids))
    rows = {
        "backend": list(kinds),
        "pages_per_query": [round(pages[k] / n_queries, 1) for k in kinds],
    }
    return rows, answers


#: Stage configurations the cascade ablation compares.
CASCADE_CONFIGS = (
    ("none", ()),
    ("keogh_paa", ("keogh_paa",)),
    ("new_paa", ("new_paa",)),
    ("default", None),                 # first_last+keogh_paa+new_paa+lb_keogh
    ("default+lemire", "full"),
)


def run_cascade_ablation(db_size: int, n_queries: int, *,
                         delta: float = 0.1, k_neighbours: int = 10,
                         seed: int = 71) -> dict:
    """Which filter stages earn their keep, and in what order.

    Runs the same k-NN queries through :class:`~repro.engine.QueryEngine`
    under different stage configurations — no filter (the exact-scan
    baseline), each envelope bound alone, the default cascade, and the
    default plus Lemire's LB_Improved — and reports exact-DTW work and
    wall time per query.  Every configuration returns the identical
    exact answer; only the cost moves.
    """
    from ..engine import DEFAULT_STAGES, STAGE_ORDER, QueryEngine

    series = list(random_walks(db_size, _LENGTH, seed=seed))
    queries = random_walks(n_queries, _LENGTH, seed=seed + 1)
    rows = {"stages": [], "exact_dtw": [], "abandoned": [],
            "pruned_by_bounds": [], "ms_per_query": []}
    for label, stages in CASCADE_CONFIGS:
        if stages == "full":
            stages = STAGE_ORDER
        elif stages is None:
            stages = DEFAULT_STAGES
        engine = QueryEngine(
            series, delta=delta, stages=stages,
            normal_form=NormalForm(length=_LENGTH), n_features=_DIMS,
        )
        total = None
        for q in queries:
            _, stats = engine.knn(q, k_neighbours)
            total = stats if total is None else total + stats
        rows["stages"].append(label)
        rows["exact_dtw"].append(round(total.dtw_computations / n_queries, 1))
        rows["abandoned"].append(round(total.dtw_abandoned / n_queries, 1))
        rows["pruned_by_bounds"].append(
            round(total.pruned_total / n_queries, 1))
        rows["ms_per_query"].append(
            round(total.total_time_s * 1e3 / n_queries, 2))
    return rows


def run_second_filter_ablation(db_size: int, n_queries: int, *,
                               epsilon_factor: float = 0.5,
                               seed: int = 61) -> dict:
    """How many candidates the §5.2 full-dimension LB filter removes.

    Each query runs the feature-envelope stage followed by the
    ``lb_keogh`` stage (the second filter); ``candidates`` are the
    feature stage's survivors, ``pruned_by_LB`` what ``lb_keogh``
    removes from them, and ``exact_dtw`` the refinements left.
    """
    series = list(random_walks(db_size, _LENGTH, seed=seed))
    queries = random_walks(n_queries, _LENGTH, seed=seed + 1)
    radius = epsilon_factor * np.sqrt(_LENGTH)
    rows = {"width": [], "transform": [], "candidates": [],
            "pruned_by_LB": [], "exact_dtw": []}
    for delta in (0.05, 0.1, 0.2):
        index = WarpingIndex(series, delta=delta,
                             normal_form=NormalForm(length=_LENGTH),
                             n_features=_DIMS)
        for name, stage in (("New_PAA", "new_paa"),
                            ("Keogh_PAA", "keogh_paa")):
            _, stats = index.range_query_many(
                queries, radius, stages=(stage, "lb_keogh"))
            feature, second = stats.stages
            rows["width"].append(delta)
            rows["transform"].append(name)
            rows["candidates"].append(round(feature.survivors / n_queries, 1))
            rows["pruned_by_LB"].append(round(second.pruned / n_queries, 1))
            rows["exact_dtw"].append(
                round(stats.dtw_computations / n_queries, 1))
    return rows


def run_split_ablation(db_size: int, n_queries: int, *,
                       delta: float = 0.1, seed: int = 51) -> dict:
    """R* split vs Guttman quadratic/linear, page accesses per query."""
    nf = NormalForm(length=_LENGTH)
    env_t = NewPAAEnvelopeTransform(_LENGTH, _DIMS)
    data = np.vstack([
        nf.apply(s) for s in random_walks(db_size, _LENGTH, seed=seed)
    ])
    features = env_t.transform.transform_batch(data)
    queries = random_walks(n_queries, _LENGTH, seed=seed + 1)
    k = warping_width_to_k(delta, _LENGTH)
    radius = 0.4 * np.sqrt(_LENGTH)
    rows = {"strategy": [], "pages_per_query": [], "height": []}
    for strategy in ("rstar", "quadratic", "linear"):
        tree = RStarTree(_DIMS, capacity=50, split_strategy=strategy)
        for i in range(features.shape[0]):
            tree.insert(features[i], i)
        tree.reset_stats()
        for q in queries:
            q_env = env_t.reduce(k_envelope(nf.apply(q), k))
            tree.range_search(q_env.lower, q_env.upper, radius)
        rows["strategy"].append(strategy)
        rows["pages_per_query"].append(round(tree.page_accesses / n_queries, 1))
        rows["height"].append(tree.height)
    return rows


#: Interpolation anchors: 0 = perfect, 1 = the paper's "poor singer".
NOISE_LEVELS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _profile_at(level: float) -> SingerProfile:
    poor = SingerProfile.poor()
    return SingerProfile(
        transpose_range=poor.transpose_range,
        tempo_range=(
            1.0 - (1.0 - poor.tempo_range[0]) * min(level, 1.9) / 2,
            1.0 + (poor.tempo_range[1] - 1.0) * min(level, 1.9) / 2 + 1e-3,
        ),
        note_pitch_std=poor.note_pitch_std * level,
        drift_std=poor.drift_std * level,
        duration_jitter_std=poor.duration_jitter_std * level,
        frame_noise_std=poor.frame_noise_std * level,
        vibrato_depth=poor.vibrato_depth * min(level, 1.0),
        drop_note_prob=min(0.45, poor.drop_note_prob * level),
        voice_register=poor.voice_register,
    )


def run_noise_sweep(scale: ExperimentScale, *, seed: int = 77) -> dict:
    """Retrieval quality vs continuously scaled singer error."""
    melodies = segment_corpus(generate_corpus(scale.corpus_songs, seed=1),
                              per_song=scale.corpus_per_song, seed=1)
    system = QueryByHummingSystem(melodies, delta=0.1, normal_length=128)
    rng = np.random.default_rng(seed)
    targets = rng.choice(len(melodies), size=scale.table_queries,
                         replace=False)
    rows = {"error_level": [], "top1": [], "top10": [], "mean_rank": []}
    for level in NOISE_LEVELS:
        profile = _profile_at(level)
        ranks = []
        for target in targets:
            hum = hum_melody(melodies[int(target)], profile, rng)
            ranks.append(system.rank_of(hum, int(target)))
        ranks = np.array(ranks)
        rows["error_level"].append(level)
        rows["top1"].append(int(np.sum(ranks == 1)))
        rows["top10"].append(int(np.sum(ranks <= 10)))
        rows["mean_rank"].append(round(float(ranks.mean()), 1))
    return rows
