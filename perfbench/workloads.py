"""The four benchmark workloads and their correctness checks.

Every workload drives the program through its public entry points only
and keeps each output, which is compared after the measurement against
an independent reference: the paper's ranking path (naive scorer, cold,
sequential) for the editor and conference workloads, and a sequential
``ScalePlane`` over its own copy of the world for ``scale-search``.
"""

from __future__ import annotations

import functools
import gc
import random
import sys
import time
import traceback
from dataclasses import dataclass, field

from perfbench import tracing
from perfbench.harness import (
    HostSpeed,
    Unit,
    children_peak_rss_mb,
    median,
    peak_rss_mb,
    percentile,
    ratio,
    state_delta,
)

from repro.api import handlers as api_handlers
from repro.api.handlers import MinaretApi
from repro.api.serialization import manuscript_from_payload
from repro.assignment import assign_conference
from repro.assignment import batch as assignment_batch
from repro.assignment import conference as assignment_conference
from repro.baselines.evaluation import CandidateResolver
from repro.concurrency import create_executor
from repro.concurrency.executor import SequentialExecutor, ThreadExecutor
from repro.concurrency.process import ProcessExecutor
from repro.core.config import PipelineConfig
from repro.core.extraction import CandidateExtractor
from repro.core.filtering import FilterPhase
from repro.core.identity import IdentityVerifier
from repro.core.pipeline import Minaret
from repro.core.ranking import Ranker
from repro.obs import Observability, use
from repro.ontology.expansion import KeywordExpander
from repro.retrieval.plane import RetrievalPlane
from repro.scale.bench import popular_labels
from repro.scale.plane import ScalePlane
from repro.scale.worker import ScaleWorkerBootstrap
from repro.scholarly.registry import ScholarlyHub
from repro.scholarly.source import SourceService
from repro.scoring.coi import CoiScreen
from repro.serving.frontend import ServingConfig, ServingFrontend, TenantPolicy
from repro.web.crawler import Crawler
from repro.web.http import SimulatedHttpClient
from repro.world.conference import ConferenceConfig, generate_conference
from repro.world.config import WorldConfig
from repro.world.generator import generate_world
from repro.world.streaming import StreamingWorld


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``TOY`` exists so the tests can run every workload fast."""

    authors: int = 1000
    warm_manuscripts: int = 60
    programme_papers: int = 24
    scale_authors: int = 1200
    scale_block: int = 8
    scale_shards: int = 16
    #: Workers of the scale-search process pool and of the conference
    #: fan-out.  One each, so that no workload keeps more than one CPU
    #: busy: on a 2-CPU host shared with other programs, the speed of
    #: work spread over both CPUs depends on what else runs there.  While
    #: another process kept one CPU busy, a query on two worker processes
    #: took 1.58 times as long as on an idle host, and a programme on two
    #: threads 0.72 times as long (its threads stopped passing the
    #: interpreter lock between CPUs); on one worker, 1.00 and 0.96-1.13.
    scale_workers: int = 1
    programme_workers: int = 1
    pool_limit: int = 100
    setups: int = 3


FULL = Sizes()
TOY = Sizes(
    authors=150,
    warm_manuscripts=6,
    programme_papers=4,
    scale_authors=160,
    scale_block=8,
    scale_shards=4,
    pool_limit=40,
    setups=2,
)


@dataclass
class Context:
    workload: str
    seed: int
    world_seed: int
    seconds: float
    trace: bool
    sizes: Sizes = FULL
    corrupt: bool = False
    recorder: tracing.SpanRecorder | None = None
    setup_recorder: tracing.SpanRecorder | None = None


def trace_targets():
    """Public functions timed in the traced run.

    Each entry is ``(owner, attribute, span name, detail)``; executor
    spans keep their worker count, which ``concurrency.busy_frac`` needs.
    """
    timed = [
        (SimulatedHttpClient, "get"),
        (Crawler, "fetch"),
        (SourceService, "endpoint"),
        (IdentityVerifier, "verify_all"),
        (CandidateExtractor, "extract_candidates"),
        (FilterPhase, "apply"),
        (Ranker, "rank"),
        (Minaret, "recommend"),
        (KeywordExpander, "expand"),
        (RetrievalPlane, "fetch"),
        (CoiScreen, "screen"),
        (MinaretApi, "handle"),
        (api_handlers, "result_to_payload"),
        (api_handlers, "manuscript_from_payload"),
        (ServingFrontend, "submit"),
        (ServingFrontend, "dispatch_one"),
        (assignment_batch, "recommend_batch"),
        (assignment_conference, "problem_from_results"),
        (assignment_batch, "min_cost_flow_assignment"),
        (ScalePlane, "ingest"),
        (ScalePlane, "retrieve"),
        (ScalePlane, "screen"),
        (ScalePlane, "topk"),
    ]
    targets = [
        (owner, attribute, _span_name(owner, attribute), None)
        for owner, attribute in timed
    ]
    for executor in (SequentialExecutor, ThreadExecutor, ProcessExecutor):
        targets.append(
            (executor, "map", f"{executor.__name__}.map", lambda args: args[0].workers)
        )
    return targets


def route_endpoints_through_class(hub) -> None:
    """Let the traced run time ``SourceService.endpoint``.

    ``ScholarlyHub.deploy`` registers each service's *bound* endpoint,
    which a wrapper on the class cannot reach.  Re-registering, through
    the client's public ``replace_endpoint``, a call that looks the
    method up on the class when it runs makes the wrapper the one called.
    """
    for service in (
        hub.dblp_service,
        hub.scholar_service,
        hub.publons_service,
        hub.acm_service,
        hub.orcid_service,
        hub.rid_service,
    ):
        hub.http.replace_endpoint(service.host, functools.partial(_class_endpoint, service))


def _class_endpoint(service, request):
    return SourceService.endpoint(service, request)


def _span_name(owner, attribute: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__name__}.{attribute}"
    return attribute


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def eligible_authors(world) -> list:
    """Scholars a manuscript can name without a 404/409 on verification."""
    return [
        author
        for __, author in sorted(world.authors.items())
        if len(world.authors_by_name(author.name)) == 1
        and len(author.topic_expertise) >= 2
    ]


def manuscript_payloads(world, rng: random.Random):
    """An endless stream of distinct seeded submission-form payloads.

    The stream keeps plain strings only, not the world, so a stream that
    outlives its world's deployment does not keep that world in memory.
    """
    authors = [
        (
            author.author_id,
            author.name,
            author.affiliations[-1].institution,
            author.affiliations[-1].country,
            [world.ontology.topic(t).label for t in sorted(author.topic_expertise)],
        )
        for author in eligible_authors(world)
    ]
    journals = sorted(v.name for v in world.journal_venues())
    return _payload_stream(authors, journals, rng)


def _payload_stream(authors, journals, rng: random.Random):
    seen = set()
    while True:
        author_id, name, institution, country, labels = rng.choice(authors)
        chosen = tuple(sorted(rng.sample(range(len(labels)), min(3, len(labels)))))
        if (author_id, chosen) in seen:
            continue
        seen.add((author_id, chosen))
        keywords = [labels[i] for i in chosen]
        yield {
            "title": f"A Study of {keywords[0]}",
            "keywords": keywords,
            "authors": [{"name": name, "affiliation": institution, "country": country}],
            "target_venue": rng.choice(journals) if journals else "",
        }


def signature_of_payload(body: dict) -> list[tuple[str, float]]:
    return [(r["candidate_id"], r["total_score"]) for r in body["recommendations"]]


def reference_signatures(world, payloads: list[dict]) -> list[list[tuple[str, float]]]:
    """The paper's ranking path: naive scorer, no warm cache, one worker."""
    minaret = Minaret(
        ScholarlyHub.deploy(world),
        config=PipelineConfig(scoring_plane=False, warm_cache=False, workers=1),
    )
    signatures = []
    for payload in payloads:
        result = minaret.recommend(manuscript_from_payload(payload))
        signatures.append(
            [(s.candidate.candidate_id, s.total_score) for s in result.ranked]
        )
    return signatures


# ----------------------------------------------------------------------
# Unit bookkeeping shared by the workloads
# ----------------------------------------------------------------------


def registry_state(registry) -> dict:
    """Cumulative counters one unit's state delta is taken from."""
    task_seconds = {"sequential": 0.0, "thread": 0.0, "process": 0.0}
    for labels, stats in registry.histogram_series("executor_task_seconds"):
        backend = labels.get("backend")
        if backend in task_seconds:
            task_seconds[backend] += stats["sum"]
    return {
        "features_built": registry.counter_total("scoring_features_built_total"),
        "features_reused": registry.counter_total("scoring_features_reused_total"),
        "ranked": registry.counter_total("scoring_candidates_ranked_total"),
        "pruned": registry.counter_total("scoring_recency_pruned_total"),
        "fallbacks": registry.counter_total("executor_fallback_total")
        + registry.counter_total("executor_nested_downgrades_total"),
        **{f"task_seconds.{b}": s for b, s in task_seconds.items()},
    }


def hub_state(hub, plane) -> dict:
    crawler = hub.crawler
    state = {
        "web_virtual_s": hub.total_latency(),
        "fetches": float(crawler.fetches),
        "retries": float(crawler.retries),
        "plane_hits": 0.0,
        "plane_misses": 0.0,
        "plane_coalesced": 0.0,
    }
    if plane is not None:
        stats = plane.stats()
        state["plane_hits"] = float(stats["hits"])
        state["plane_misses"] = float(stats["misses"])
        state["plane_coalesced"] = float(stats["coalesced"])
    return state


class UnitRunner:
    """Runs units of work, tracing every other one in a traced run.

    ``snapshot`` reads the program's counters that a traced unit's state
    delta is taken from; each measured segment points it at its own
    deployment.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.snapshot = dict
        self.units: list[Unit] = []
        self.errors = 0
        self.speed = HostSpeed()

    def run(self, fn, *args):
        ctx = self.ctx
        index = len(self.units)
        unit = Unit(index=index, traced=ctx.trace and index % 2 == 1)
        recorder = ctx.recorder
        if recorder is not None:
            recorder.install() if unit.traced else recorder.uninstall()
        if unit.traced:
            unit.state_before = self.snapshot()
        result = None
        unit.start = time.perf_counter()
        try:
            with tracing.request_scope(index):
                if unit.traced:
                    with recorder.span("unit"):
                        result = fn(*args)
                else:
                    result = fn(*args)
        except Exception:  # noqa: BLE001 — a failed operation is counted, not fatal
            unit.ok = False
            self.errors += 1
            if self.errors <= 3:
                traceback.print_exc(file=sys.stderr)
        unit.end = time.perf_counter()
        unit.latency_ms = (unit.end - unit.start) * 1000.0
        if recorder is not None:
            recorder.uninstall()
        if unit.traced:
            unit.state_after = self.snapshot()
        self.units.append(unit)
        self.speed.after(unit.end - unit.start)
        return unit, result

    @staticmethod
    def closed_loop(seconds: float, step) -> None:
        """Call ``step`` (one unit of work) until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        step()
        while time.perf_counter() < deadline:
            step()


def run_segments(
    ctx: Context, runner: UnitRunner, setup, measure, teardown=None, interleave=True
):
    """Repeat the set-up, and serve the measured window on the deployments.

    ``setup()`` returns a deployment and its set-up seconds;
    ``measure(deployment, seconds)`` serves load on it.  With
    ``interleave`` each repetition serves ``--seconds / setups`` of the
    window, so the window is spread over the whole run instead of one
    stretch of it: on a shared host the speed a run gets drifts over
    tens of seconds.  Without it the whole window follows the last
    set-up.  Returns the set-up times and the last deployment.
    """
    setups, deployment = [], None
    count = ctx.sizes.setups
    for repetition in range(count):
        deployment = None
        gc.collect()
        deployment, seconds = setup()
        setups.append(seconds)
        runner.speed.after(seconds)
        try:
            if interleave:
                measure(deployment, ctx.seconds / count)
            elif repetition == count - 1:
                measure(deployment, ctx.seconds)
        finally:
            runner.snapshot = dict
            if teardown is not None:
                teardown(deployment)
    return setups, deployment


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    setup_s: list[float]
    units: list[Unit]
    throughput_per_s: float
    wrong: int
    peak_rss: dict
    speed: HostSpeed
    extras: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# editor-cold
# ----------------------------------------------------------------------


def editor_cold(ctx: Context) -> Outcome:
    """One closed-loop client, a distinct manuscript per request, no cache."""
    runner = UnitRunner(ctx)
    payloads, outputs, streams = [], [], []

    def setup():
        start = time.perf_counter()
        world = generate_world(WorldConfig(author_count=ctx.sizes.authors, seed=ctx.world_seed))
        hub = ScholarlyHub.deploy(world)
        api = MinaretApi(hub)
        return (world, hub, api), time.perf_counter() - start

    def measure(deployment, seconds):
        world, hub, api = deployment
        if ctx.trace:
            route_endpoints_through_class(hub)
        if not streams:
            streams.append(manuscript_payloads(world, random.Random(ctx.seed)))
        runner.snapshot = lambda: {**hub_state(hub, None), **registry_state(api.obs.metrics)}

        def recommend(body):
            response = api.handle("POST", "/api/v1/recommend", body)
            if response.status != 200:
                raise RuntimeError(f"status {response.status}: {response.body}")
            return signature_of_payload(response.body)

        def step():
            payload = next(streams[0])
            unit, signature = runner.run(recommend, {"manuscript": payload})
            payloads.append(payload)
            outputs.append(signature if unit.ok else None)

        runner.closed_loop(seconds, step)

    setups, (world, __, __) = run_segments(ctx, runner, setup, measure)
    units = runner.units
    busy = sum(u.end - u.start for u in units)
    rss = peak_rss_mb(probe_mb=runner.speed.rss_mb)
    if ctx.corrupt:
        outputs[0] = _corrupted(outputs[0])
    references = reference_signatures(world, payloads)
    wrong = sum(
        1
        for unit, output, reference in zip(units, outputs, references)
        if unit.ok and output != reference
    )
    return Outcome(
        setup_s=setups,
        units=units,
        throughput_per_s=ratio(len(units), busy),
        wrong=wrong,
        peak_rss=rss,
        speed=runner.speed,
    )


def _corrupted(signature):
    """One output with its top score changed (the checker self-test)."""
    if not signature:
        return [("corrupted", 0.0)]
    corrupted = list(signature)
    candidate, score = corrupted[0]
    corrupted[0] = (candidate, score + 1.0)
    return corrupted


# ----------------------------------------------------------------------
# editor-warm
# ----------------------------------------------------------------------


def _warm_body(payload: dict) -> dict:
    return {
        "manuscript": payload,
        "config": {"warm_cache": True, "top_k": 10},
        "top_k": 10,
    }


def _warm_setup(ctx: Context):
    """One set-up of the warm workloads: deploy, front, warm every manuscript."""
    start = time.perf_counter()
    world = generate_world(WorldConfig(author_count=ctx.sizes.authors, seed=ctx.world_seed))
    hub = ScholarlyHub.deploy(world)
    api = MinaretApi(hub)
    # Budgets and queue capacity high enough never to bind: these
    # workloads measure service, not shedding.
    front = ServingFrontend(
        api,
        ServingConfig(
            queue_capacity=1_000_000,
            default_policy=TenantPolicy(capacity=1e12, refill_rate=1e12),
            degraded_serving=False,
        ),
    )
    built = time.perf_counter() - start
    # The warmed manuscripts belong to the deployment, so the world seed
    # draws them; the workload seed draws the traffic over them.  They
    # are inputs, drawn outside the timer.
    stream = manuscript_payloads(world, random.Random(ctx.world_seed))
    warm_set = [next(stream) for __ in range(ctx.sizes.warm_manuscripts)]
    start = time.perf_counter()
    for payload in warm_set:
        response = api.handle("POST", "/api/v1/recommend", _warm_body(payload))
        if response.status != 200:
            raise RuntimeError(f"warm-up failed: {response.status} {response.body}")
    if ctx.trace:
        route_endpoints_through_class(hub)
    return (world, hub, api, front, warm_set), built + time.perf_counter() - start


def _zipf_weights(count: int) -> list[float]:
    return [1.0 / rank for rank in range(1, count + 1)]


def _check_warm(world, warm_set, picks, units, outputs) -> int:
    """Wrong outputs: each response against its manuscript's reference top 10."""
    used = sorted(set(picks))
    references = dict(zip(used, reference_signatures(world, [warm_set[i] for i in used])))
    return sum(
        1
        for unit, pick, output in zip(units, picks, outputs)
        if unit.ok and output != references[pick][:10]
    )


def editor_warm(ctx: Context) -> Outcome:
    """One closed-loop client through the serving front-end, warm deployment.

    Each request is submitted, taken off the admission queue with
    ``pop_queued`` and served with ``dispatch_one`` before the next one
    is sent.  Manuscripts are drawn Zipf(1) from the warmed set.
    """
    runner = UnitRunner(ctx)
    rng = random.Random(ctx.seed)
    picks, outputs, waits, depths = [], [], [], [0]

    def measure(deployment, seconds):
        world, hub, api, front, warm_set = deployment
        zipf = _zipf_weights(len(warm_set))
        runner.snapshot = lambda: {**hub_state(hub, api.plane), **registry_state(api.obs.metrics)}

        def request(body):
            submitted = time.perf_counter()
            admission = front.submit("POST", "/api/v1/recommend", body)
            if not admission.admitted:
                raise RuntimeError(f"request shed: {admission.reason}")
            depths[0] = max(depths[0], front.queue_depth)
            queued = front.pop_queued()
            waits.append((time.perf_counter() - submitted) * 1000.0)
            front.dispatch_one(queued)
            response = queued.response
            if response.status != 200:
                raise RuntimeError(f"status {response.status}: {response.body}")
            return signature_of_payload(response.body)

        def step():
            pick = rng.choices(range(len(warm_set)), weights=zipf)[0]
            unit, signature = runner.run(request, _warm_body(warm_set[pick]))
            picks.append(pick)
            outputs.append(signature if unit.ok else None)

        runner.closed_loop(seconds, step)

    setups, (world, __, __, __, warm_set) = run_segments(
        ctx, runner, lambda: _warm_setup(ctx), measure
    )
    units = runner.units
    rss = peak_rss_mb(probe_mb=runner.speed.rss_mb)
    if ctx.corrupt:
        outputs[0] = _corrupted(outputs[0])
    wrong = _check_warm(world, warm_set, picks, units, outputs)
    busy = sum(u.end - u.start for u in units)
    return Outcome(
        setup_s=setups,
        units=units,
        throughput_per_s=ratio(len(units), busy),
        wrong=wrong,
        peak_rss=rss,
        speed=runner.speed,
        layers={"queue_depth_max": depths[0], "queue_waits_ms": waits},
    )


# ----------------------------------------------------------------------
# conference
# ----------------------------------------------------------------------


def _conference_deployment(world):
    hub = ScholarlyHub.deploy(world)
    minaret = Minaret(hub, config=PipelineConfig(warm_cache=True))
    return hub, minaret, CandidateResolver(hub), Observability()


def _assign(pool, entries, minaret, resolver, workers):
    return assign_conference(
        minaret,
        entries,
        reviewers_per_paper=3,
        capacity=2,
        solver="flow",
        workers=workers,
        candidate_filter=lambda cid: resolver.world_id(cid) in pool,
    )


def conference(ctx: Context) -> Outcome:
    """Whole-programme assignment, each on a fresh warm-cache deployment."""
    sizes = ctx.sizes
    runner = UnitRunner(ctx)
    outputs, programmes = [], []

    def setup():
        start = time.perf_counter()
        world = generate_world(WorldConfig(author_count=sizes.authors, seed=ctx.world_seed))
        _conference_deployment(world)
        return world, time.perf_counter() - start

    def measure(world, seconds):
        if not programmes:
            # The programme is planted once, outside the timers, from the
            # world seed: one programme's cost differs from another's by
            # up to half, more than the runs of one programme differ.
            # The workload seed orders its submissions.
            scenario = generate_conference(
                world,
                ConferenceConfig(
                    paper_count=sizes.programme_papers,
                    reviewers_per_paper=3,
                    max_load=2,
                    seed=ctx.world_seed,
                ),
            )
            # Only the submissions and the PC are kept: the scenario holds
            # its world, which would stay in memory through later set-ups.
            entries = scenario.entries()
            random.Random(ctx.seed).shuffle(entries)
            programmes.append((scenario.pool, entries))
        pool, entries = programmes[0]

        def programme(hub, minaret, resolver, obs):
            with use(obs):
                result = _assign(
                    pool, entries, minaret, resolver, workers=sizes.programme_workers
                )
            return (
                {p: list(r) for p, r in result.assignment.by_paper.items()},
                result.objective_value,
            )

        def step():
            # A fresh deployment per programme, built outside the unit,
            # and the last programme's garbage collected outside it too.
            deployment = _conference_deployment(world)
            gc.collect()
            hub, minaret, __, obs = deployment
            if ctx.trace:
                route_endpoints_through_class(hub)
            runner.snapshot = lambda: {
                **hub_state(hub, minaret.plane),
                **registry_state(obs.metrics),
            }
            unit, output = runner.run(programme, *deployment)
            outputs.append(output if unit.ok else None)

        runner.closed_loop(seconds, step)

    setups, world = run_segments(ctx, runner, setup, measure)
    pool, entries = programmes[0]
    units = runner.units
    rss = peak_rss_mb(probe_mb=runner.speed.rss_mb)
    if ctx.corrupt:
        by_paper, value = outputs[0]
        outputs[0] = (by_paper, value + 1.0)
    reference_hub = ScholarlyHub.deploy(world)
    reference = _assign(
        pool,
        entries,
        Minaret(reference_hub, config=PipelineConfig(scoring_plane=False, workers=1)),
        CandidateResolver(reference_hub),
        workers=1,
    )
    expected = (
        {p: list(r) for p, r in reference.assignment.by_paper.items()},
        reference.objective_value,
    )
    wrong = sum(1 for unit, output in zip(units, outputs) if unit.ok and output != expected)
    papers = sizes.programme_papers
    busy = sum(u.end - u.start for u in units)
    return Outcome(
        setup_s=setups,
        units=units,
        throughput_per_s=ratio(papers * len(units), busy),
        wrong=wrong,
        peak_rss=rss,
        speed=runner.speed,
        extras={"papers": papers, "pc_size": len(pool), "workers": sizes.programme_workers},
    )


# ----------------------------------------------------------------------
# scale-search
# ----------------------------------------------------------------------


def _scale_world(ctx: Context, cache_blocks: int | None = None) -> StreamingWorld:
    extra = {} if cache_blocks is None else {"cache_blocks": cache_blocks}
    return StreamingWorld(
        WorldConfig(author_count=ctx.sizes.scale_authors, seed=ctx.world_seed),
        block_size=ctx.sizes.scale_block,
        **extra,
    )


def scale_queries(
    world, rng: random.Random, count: int
) -> list[tuple[dict[str, float], list[str]]]:
    """``count`` distinct seeded queries: a keyword triple and two submitters.

    Triples come from the world's nine most popular interests, whose
    pools all fill ``pool_limit``, so queries cost alike.  The 84 triples
    are walked in seeded order and walked again with new submitters once
    used up; a run of a few dozen queries covers most of them, which
    keeps the figures of runs with different seeds close.
    """
    labels = popular_labels(world, count=9)
    triples = [
        (a, b, c)
        for i, a in enumerate(labels)
        for j, b in enumerate(labels[i + 1 :], i + 1)
        for c in labels[j + 1 :]
    ]
    rng.shuffle(triples)
    weights = (1.0, 0.8, 0.5)
    authors = world.config.author_count
    return [
        (
            dict(zip(triples[index % len(triples)], weights)),
            [f"author-{rng.randrange(authors)}" for __ in range(2)],
        )
        for index in range(count)
    ]


def scale_search(ctx: Context) -> Outcome:
    """One closed-loop client over a sharded plane with a process pool."""
    sizes = ctx.sizes
    obs = Observability()
    runner = UnitRunner(ctx)
    recorder = ctx.setup_recorder
    outputs, stats, queries, workers_mb = [], [], [], []

    def setup():
        if recorder is not None:
            recorder.install()
        start = time.perf_counter()
        world = _scale_world(ctx)
        executor = create_executor(
            sizes.scale_workers,
            "process",
            bootstrap=ScaleWorkerBootstrap.for_world(world, sizes.scale_shards),
        )
        try:
            plane = ScalePlane(world, n_shards=sizes.scale_shards, executor=executor)
            plane.ingest()
            warm_query, submitters = scale_queries(world, random.Random(-1), 1)[0]
            plane.topk(warm_query, submitters, k=10, pool_limit=sizes.pool_limit)
        except BaseException:
            executor.close()
            raise
        finally:
            if recorder is not None:
                recorder.uninstall()
        return (plane, executor), time.perf_counter() - start

    def measure(deployment, seconds):
        plane, __ = deployment
        if not queries:
            queries.extend(scale_queries(plane.world, random.Random(ctx.seed), 10_000))
        runner.snapshot = lambda: registry_state(obs.metrics)

        def query(keywords, submitter_ids):
            return plane.topk(keywords, submitter_ids, k=10, pool_limit=sizes.pool_limit)

        def step():
            unit, result = runner.run(query, *queries[len(runner.units)])
            outputs.append(result[0] if unit.ok else None)
            stats.append(result[1] if unit.ok else None)

        runner.closed_loop(seconds, step)

    def teardown(deployment):
        workers_mb.append(children_peak_rss_mb())
        deployment[1].close()

    with use(obs):
        # A fresh pool starts with cold block caches and feature stores
        # in its workers; slicing the window would give every slice that
        # cold start, so the whole window follows the last set-up.
        setups, __ = run_segments(
            ctx,
            runner,
            setup,
            measure,
            teardown=teardown,
            interleave=False,
        )
    units = runner.units
    rss = peak_rss_mb(workers_mb=max(workers_mb), probe_mb=runner.speed.rss_mb)
    if ctx.corrupt:
        outputs[0] = list(reversed(outputs[0])) + outputs[0][:1]
    # A world's content does not depend on its block cache, so the
    # untraced run checks against a reference that holds every block and
    # realises each once.  The traced run keeps the program's cache size,
    # so that ``world.blocks_realized`` counts what a query costs there.
    blocks = -(-sizes.scale_authors // sizes.scale_block)
    reference_world = _scale_world(ctx, cache_blocks=None if ctx.trace else blocks)
    reference = ScalePlane(reference_world, n_shards=sizes.scale_shards)
    reference.ingest()
    wrong, realized = 0, []
    for unit, output, (keywords, submitter_ids) in zip(units, outputs, queries):
        before = reference_world.stats()["blocks_realized"]
        expected, __ = reference.topk(
            keywords, submitter_ids, k=10, pool_limit=sizes.pool_limit
        )
        realized.append(reference_world.stats()["blocks_realized"] - before)
        if unit.ok and output != expected:
            wrong += 1
    busy = sum(u.end - u.start for u in units)
    done = [s for s in stats if s is not None]
    return Outcome(
        setup_s=setups,
        units=units,
        throughput_per_s=ratio(len(units), busy),
        wrong=wrong,
        peak_rss=rss,
        speed=runner.speed,
        extras={"blocks": blocks},
        layers={
            "scale.pool": sum(s.pool_size for s in done) / max(1, len(done)),
            "scale.scored": sum(s.scored for s in done) / max(1, len(done)),
            "world.blocks_realized": sum(realized) / max(1, len(realized)),
        },
    )


WORKLOADS = {
    "editor-cold": editor_cold,
    "editor-warm": editor_warm,
    "conference": conference,
    "scale-search": scale_search,
}


# ----------------------------------------------------------------------
# Per-layer metrics of a traced run
# ----------------------------------------------------------------------


def layer_metrics(ctx: Context, outcome: Outcome) -> dict[str, float]:
    """Roll the traced units' spans and state deltas up into layer metrics."""
    traced = [u for u in outcome.units if u.traced]
    n = max(1, len(traced))
    spans = ctx.recorder.spans
    setup_spans = ctx.setup_recorder.spans if ctx.setup_recorder else []
    delta = state_delta(traced)
    ms = 1000.0

    def outer(name):
        return tracing.inclusive_seconds(spans, name) / n

    # Busy share of the outermost thread and process fan-outs: the task
    # seconds their backend recorded over (map wall x workers).  Maps
    # nested inside a task run sequentially, so they are not counted
    # twice.  A sequential fan-out runs its tasks inline and has no idle
    # workers; its nested maps would share its label, so it is left out.
    outer_maps = tracing.outermost(spans, lambda s: s.name.endswith("Executor.map"))
    pooled = [s for s in outer_maps if s.name != "SequentialExecutor.map"]
    backends = {s.name.split("Executor.map")[0].lower() for s in pooled}
    map_capacity = sum((s.end - s.start) * s.detail for s in pooled)
    task_seconds = sum(delta.get(f"task_seconds.{b}", 0.0) for b in backends)
    handle = outer("MinaretApi.handle")
    serialize = outer("result_to_payload") + outer("manuscript_from_payload")
    layers = outcome.layers
    waits = layers.get("queue_waits_ms", [])
    traced_waits = [w for w, u in zip(waits, outcome.units) if u.traced]
    untraced_p50 = median([u.end - u.start for u in outcome.units if not u.traced and u.ok])
    traced_p50 = median([u.end - u.start for u in traced if u.ok])
    first_maps = [s for s in setup_spans if s.name == "ProcessExecutor.map"]
    ingests = [s for s in setup_spans if s.name == "ScalePlane.ingest" and s.parent is None]
    return {
        "web.requests": sum(1 for s in spans if s.name == "SimulatedHttpClient.get") / n,
        "web.get_self_ms": tracing.self_seconds(spans, "SimulatedHttpClient.get") * ms / n,
        "web.virtual_s": delta.get("web_virtual_s", 0.0) / n,
        "web.retry_frac": ratio(delta.get("retries", 0.0), delta.get("fetches", 0.0)),
        "scholarly.serve_ms": outer("SourceService.endpoint") * ms,
        "core.verify_ms": outer("IdentityVerifier.verify_all") * ms,
        "core.extract_ms": outer("CandidateExtractor.extract_candidates") * ms,
        "core.filter_ms": outer("FilterPhase.apply") * ms,
        "core.rank_ms": outer("Ranker.rank") * ms,
        "ontology.expand_ms": outer("KeywordExpander.expand") * ms,
        "retrieval.hit_frac": ratio(
            delta.get("plane_hits", 0.0) + delta.get("plane_coalesced", 0.0),
            delta.get("plane_hits", 0.0)
            + delta.get("plane_misses", 0.0)
            + delta.get("plane_coalesced", 0.0),
        ),
        "retrieval.fetch_ms": outer("RetrievalPlane.fetch") * ms,
        "retrieval.coalesced": delta.get("plane_coalesced", 0.0) / n,
        "scoring.feature_reuse_frac": ratio(
            delta.get("features_reused", 0.0),
            delta.get("features_built", 0.0) + delta.get("features_reused", 0.0),
        ),
        "scoring.prune_frac": ratio(delta.get("pruned", 0.0), delta.get("ranked", 0.0)),
        "scoring.coi_ms": outer("CoiScreen.screen") * ms,
        "api.handle_self_ms": max(0.0, handle - outer("Minaret.recommend") - serialize) * ms,
        "api.serialize_ms": serialize * ms,
        "serving.queue_wait_p95_ms": percentile(traced_waits, 0.95),
        "serving.dispatch_ms": outer("ServingFrontend.dispatch_one") * ms,
        "serving.queue_depth_max": float(layers.get("queue_depth_max", 0)),
        "assignment.batch_s": outer("recommend_batch"),
        "assignment.build_ms": outer("problem_from_results") * ms,
        "assignment.solve_s": outer("min_cost_flow_assignment"),
        "concurrency.map_ms": sum(s.end - s.start for s in outer_maps) * ms / n,
        "concurrency.busy_frac": ratio(task_seconds, map_capacity),
        "concurrency.pool_ready_s": (
            first_maps[0].end - first_maps[0].start if first_maps else 0.0
        ),
        "concurrency.fallbacks": delta.get("fallbacks", 0.0) / n,
        "scale.ingest_s": median([s.end - s.start for s in ingests]),
        "scale.retrieve_ms": outer("ScalePlane.retrieve") * ms,
        "scale.screen_ms": outer("ScalePlane.screen") * ms,
        "scale.score_ms": max(
            0.0,
            outer("ScalePlane.topk") - outer("ScalePlane.retrieve") - outer("ScalePlane.screen"),
        )
        * ms,
        "scale.pool": float(layers.get("scale.pool", 0.0)),
        "scale.scored": float(layers.get("scale.scored", 0.0)),
        "world.blocks_realized": float(layers.get("world.blocks_realized", 0.0)),
        "trace.overhead_frac": ratio(traced_p50, untraced_p50) - 1.0 if untraced_p50 else 0.0,
    }


def rollup(ctx: Context, outcome: Outcome) -> dict:
    """Layer self times (seconds) over the traced units' wall time."""
    windows = [(u.start, u.end) for u in outcome.units if u.traced]
    return tracing.layer_rollup(ctx.recorder.spans, windows)
