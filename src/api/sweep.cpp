#include "api/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"

namespace hpf90d::api::sweep {

Lowered lower(Session& session, const ExperimentPlan& plan, obs::Sink* trace) {
  // fail fast on unknown names, before any point of the sweep runs
  for (const auto& machine_name : plan.machine_names()) (void)session.machine(machine_name);

  Lowered out;
  out.programs.resize(plan.variants().size());
  for (std::size_t m = 0; m < plan.machine_names().size(); ++m) {
    for (std::size_t v = 0; v < plan.variants().size(); ++v) {
      const auto& variant = plan.variants()[v];
      const obs::Span compile_span(trace, obs::Phase::Compile, v);
      out.programs[v] =
          variant.overrides.empty()
              ? session.compile(plan.program_source(), plan.compiler_opts())
              : session.compile_with_directives(plan.program_source(), variant.overrides,
                                                plan.compiler_opts());
    }
  }

  // Critical-variable validation depends only on (program, bindings), so it
  // runs once per (variant, problem) pair instead of once per point, and
  // every diagnostic fires before any thread starts.
  const auto check = [&](const compiler::CompiledProgram& prog,
                         const front::Bindings& bindings) {
    if (SessionAccess::check_critical(session, prog, bindings)) ++out.critical_analyses;
  };
  for (const auto& prog : out.programs) {
    if (plan.scaled_by_nprocs()) {
      for (const auto& sc : plan.scaled_cases_list()) check(*prog, sc.problem.bindings);
    } else {
      for (const auto& problem : plan.problems()) check(*prog, problem.bindings);
    }
  }
  return out;
}

Schedule schedule(const Session& session, const ExperimentPlan& plan, obs::Sink* trace) {
  const obs::Span sched_span(trace, obs::Phase::ChunkSchedule, plan.point_count());
  Schedule out;
  std::vector<Point>& points = out.points;
  points.reserve(plan.point_count());
  for (const auto& machine_name : plan.machine_names()) {
    // one registry lookup per machine instead of one per point
    const machine::MachineModel* mach = &session.machine(machine_name);
    for (std::size_t v = 0; v < plan.variants().size(); ++v) {
      if (plan.scaled_by_nprocs()) {
        // Scaled axis (weak scaling): the problem is already coupled to its
        // processor count, so the pairs replace the problems x nprocs product.
        for (const auto& sc : plan.scaled_cases_list()) {
          points.push_back(Point{&machine_name, mach, v, &sc.problem, sc.nprocs});
        }
      } else {
        for (const auto& problem : plan.problems()) {
          for (const int np : plan.nprocs_list()) {
            points.push_back(Point{&machine_name, mach, v, &problem, np});
          }
        }
      }
    }
  }

  // Lockstep batching happens *inside* a chunk in windows of at most
  // batch_size lanes; batch_size <= 1 degenerates to single-point windows,
  // i.e. exactly the scalar sweep.
  out.chunks.reserve(points.size() / kChunkGranule + 1);
  for (std::size_t i = 0; i < points.size();) {
    std::size_t j = i + 1;
    while (j < points.size() && j - i < kChunkGranule &&
           points[j].mach == points[i].mach && points[j].variant == points[i].variant) {
      ++j;
    }
    out.chunks.push_back(Chunk{i, j});
    i = j;
  }
  return out;
}

namespace {

/// One chunk in flight: the state execute_chunk's phases share.
class ChunkRun {
 public:
  ChunkRun(const Sweep& sweep, const Chunk& c, WorkerScratch& ws, BatchStats& tally)
      : sweep_(sweep),
        c_(c),
        ws_(ws),
        tally_(tally),
        variant_(sweep.plan.variants()[sweep.schedule.points[c.begin].variant]),
        prog_(*sweep.programs[sweep.schedule.points[c.begin].variant]),
        mach_(*sweep.schedule.points[c.begin].mach) {}

  /// Looks up every point's layout and seed fold, in point order — exactly
  /// one layout lookup per point for every batch size, which keeps
  /// report.cache identical across them all.
  void bind_lanes() {
    ws_.arena.set_trace(sweep_.trace);  // spans stay disabled when null
    ws_.lanes.clear();
    ws_.layouts.clear();
    ws_.seeds.clear();
    ws_.deferred_next.clear();
    ws_.scalar_replay.clear();
    // The digest's (program, bindings) prefix is memoized per problem: a
    // chunk walks problems × nprocs with equal bindings adjacent, so warm
    // points finish a captured prefix state instead of re-hashing the
    // whole binding set. The same per-problem boundary keys the seed memo —
    // lanes carry the precomputed parameter fold.
    const front::Bindings* prefix_of = nullptr;
    compiler::LayoutDigestState prefix{};
    const compiler::SeededValues* seed = nullptr;
    for (std::size_t i = c_.begin; i < c_.end; ++i) {
      const Point& pt = sweep_.schedule.points[i];
      compiler::LayoutOptions lo;
      lo.nprocs = pt.nprocs;
      if (variant_.grid_rank) {
        lo.grid_shape = compiler::ProcGrid::factorized(pt.nprocs, *variant_.grid_rank).shape;
      }
      if (&pt.problem->bindings != prefix_of) {
        prefix = compiler::layout_fingerprint_prefix(prog_, pt.problem->bindings);
        prefix_of = &pt.problem->bindings;
        ws_.seeds.push_back(
            SessionAccess::seed(sweep_.session, prog_, prefix, pt.problem->bindings));
        seed = ws_.seeds.back().get();
      }
      ws_.layouts.push_back(SessionAccess::layout(
          sweep_.session, prog_, pt.problem->bindings, lo, ws_.layout_key,
          compiler::layout_fingerprint_finish(prefix, lo)));
      ws_.lanes.push_back(
          core::BatchLane{ws_.layouts.back().get(), &pt.problem->bindings, seed});
    }
  }

  /// Fresh windows of at most lane_width points, in point order.
  void fresh_windows() {
    const std::size_t n = ws_.lanes.size();
    for (std::size_t f = 0; f < n; f += sweep_.lane_width) {
      const std::size_t w = std::min(sweep_.lane_width, n - f);
      window(std::span<const core::BatchLane>(ws_.lanes.data() + f, w),
             [&](std::size_t k) { return f + k; }, false);
    }
  }

  /// Re-compaction rounds: regroup evicted lanes by divergence key (ties
  /// broken by offset, so the schedule is a pure function of the chunk) and
  /// run each group as its own lockstep refill window. A lone-key lane
  /// cannot run lockstep and the round cap bounds regroup chains; both go
  /// to the scalar replay.
  void recompact() {
    const std::size_t width = sweep_.lane_width;
    for (int round = 0; !ws_.deferred_next.empty(); ++round) {
      ws_.deferred.swap(ws_.deferred_next);
      ws_.deferred_next.clear();
      if (round >= kMaxCompactionRounds) {
        for (const auto& d : ws_.deferred) ws_.scalar_replay.push_back(d.offset);
        return;
      }
      std::sort(ws_.deferred.begin(), ws_.deferred.end(),
                [](const WorkerScratch::Deferred& a, const WorkerScratch::Deferred& b) {
                  return a.key != b.key ? a.key < b.key : a.offset < b.offset;
                });
      for (std::size_t g = 0; g < ws_.deferred.size();) {
        std::size_t h = g + 1;
        while (h < ws_.deferred.size() && ws_.deferred[h].key == ws_.deferred[g].key) ++h;
        for (std::size_t s = g; s < h; s += width) {
          const std::size_t w = std::min(width, h - s);
          if (w < 2) {
            ws_.scalar_replay.push_back(ws_.deferred[s].offset);
            continue;
          }
          ws_.window.clear();
          for (std::size_t k = 0; k < w; ++k) {
            ws_.window.push_back(ws_.lanes[ws_.deferred[s + k].offset]);
          }
          window(std::span<const core::BatchLane>(ws_.window),
                 [&](std::size_t k) { return std::size_t{ws_.deferred[s + k].offset}; },
                 true);
        }
        g = h;
      }
    }
  }

  /// Scalar replays, in point order (deterministic diagnostics).
  void replay() {
    if (ws_.scalar_replay.empty()) return;
    std::sort(ws_.scalar_replay.begin(), ws_.scalar_replay.end());
    const obs::Span replay_span(sweep_.trace, obs::Phase::ScalarReplay,
                                ws_.scalar_replay.size());
    for (const std::size_t off : ws_.scalar_replay) {
      const core::BatchLane& lane = ws_.lanes[off];
      assemble(off, ws_.arena.predict(prog_, *lane.layout, mach_, sweep_.predict,
                                      *lane.bindings));
      ++tally_.replayed_points;
    }
  }

  /// One batched measurement pass over the whole chunk in point order —
  /// per point bit-identical to Simulator::measure_into, independent of how
  /// prediction grouped the lanes.
  void measure() {
    const int runs = sweep_.plan.measure_runs();
    if (runs <= 0) return;
    const std::span<const sim::MeasuredResult> measured =
        ws_.arena.measure_batch_into(prog_, mach_, sweep_.plan.sim_opts(), runs, ws_.lanes);
    for (std::size_t off = 0; off < measured.size(); ++off) {
      RunRecord& rec = sweep_.records[c_.begin + off];
      const sim::RunStats& st = measured[off].stats;
      rec.comparison.measured_mean = st.mean;
      rec.comparison.measured_min = st.min;
      rec.comparison.measured_max = st.max;
      rec.comparison.measured_stddev = st.stddev;
      rec.measured = true;
    }
  }

 private:
  void assemble(std::size_t off, const core::PredictionResult& pred) {
    const Point& pt = sweep_.schedule.points[c_.begin + off];
    RunRecord& rec = sweep_.records[c_.begin + off];
    rec.machine = *pt.machine;
    rec.variant = variant_.name;
    rec.problem = pt.problem->name;
    rec.nprocs = pt.nprocs;
    rec.comparison.estimated = pred.total;
    rec.phases = PhaseBreakdown{pred.comp, pred.comm, pred.overhead, pred.wait};
  }

  /// One lockstep (or scalar-fallback) window. `off_of` maps window lane ->
  /// chunk offset; `refill` marks re-compaction windows (their lanes were
  /// evicted once already). Evicted lanes feed the next compaction round,
  /// or the scalar replay when their divergence must surface a diagnostic.
  template <class OffOf>
  void window(std::span<const core::BatchLane> lanes, const OffOf& off_of, bool refill) {
    const std::size_t w = lanes.size();
    ws_.evictions.clear();
    bool lockstep = false;
    core::BatchRunStats bs;
    const std::span<const core::PredictionResult> preds = ws_.arena.predict_batch(
        prog_, mach_, sweep_.predict, lanes, lockstep, bs, ws_.evictions);
    if (!lockstep) {
      for (std::size_t k = 0; k < w; ++k) assemble(off_of(k), preds[k]);
      (refill ? tally_.replayed_points : tally_.scalar_points) += w;
      return;
    }
    tally_.ir_visits += bs.ir_visits;
    tally_.lane_visits += bs.lane_visits;
    tally_.simd_stripes += bs.simd_stripes;
    tally_.evicted_lanes += bs.evicted_lanes;
    if (refill) tally_.refilled_lanes += w;
    // Evictions arrive sorted by lane; merge-walk the window.
    std::size_t e = 0;
    for (std::size_t k = 0; k < w; ++k) {
      if (e < ws_.evictions.size() && ws_.evictions[e].lane == static_cast<int>(k)) {
        const core::EvictedLane& ev = ws_.evictions[e++];
        const std::size_t off = off_of(k);
        if (ev.rebatchable) {
          ws_.deferred_next.push_back(
              WorkerScratch::Deferred{ev.key, static_cast<std::uint32_t>(off)});
        } else {
          ws_.scalar_replay.push_back(off);
        }
        continue;
      }
      assemble(off_of(k), preds[k]);
      ++tally_.batched_points;
    }
  }

  const Sweep& sweep_;
  const Chunk& c_;
  WorkerScratch& ws_;
  BatchStats& tally_;
  const DirectiveVariant& variant_;
  const compiler::CompiledProgram& prog_;
  const machine::MachineModel& mach_;
};

void accumulate(BatchStats& into, const BatchStats& b) {
  into.batched_points += b.batched_points;
  into.scalar_points += b.scalar_points;
  into.replayed_points += b.replayed_points;
  into.ir_visits += b.ir_visits;
  into.lane_visits += b.lane_visits;
  into.evicted_lanes += b.evicted_lanes;
  into.refilled_lanes += b.refilled_lanes;
  into.simd_stripes += b.simd_stripes;
}

}  // namespace

void execute_chunk(const Sweep& sweep, const Chunk& c, WorkerScratch& ws, BatchStats& tally) {
  ChunkRun run(sweep, c, ws, tally);
  run.bind_lanes();
  run.fresh_windows();
  run.recompact();
  run.replay();
  run.measure();
}

BatchStats execute(const Sweep& sweep, int workers) {
  const std::vector<Chunk>& chunks = sweep.schedule.chunks;
  if (workers <= 0) workers = static_cast<int>(std::thread::hardware_concurrency());
  workers = std::max(1, std::min(workers, static_cast<int>(chunks.size())));

  if (workers == 1) {
    // the serial path: no threads, chunks executed in order through one arena
    BatchStats total;
    WorkerScratch ws;
    for (const Chunk& c : chunks) execute_chunk(sweep, c, ws, total);
    return total;
  }

  // Each worker sums its own telemetry; the totals are order-independent
  // integer sums, so RunReport::batch is identical under any interleaving.
  std::vector<BatchStats> tallies(static_cast<std::size_t>(workers));
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto worker = [&](BatchStats& out) {
    WorkerScratch ws;  // worker-owned: reused across all its chunks
    BatchStats tally;  // on the worker's stack: no cache line shared with others
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= chunks.size() || failed.load()) break;
      try {
        execute_chunk(sweep, chunks[i], ws, tally);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
        failed.store(true);
        break;
      }
    }
    out = tally;
  };
  std::vector<std::thread> pool;
  pool.reserve(tallies.size());
  for (BatchStats& tally : tallies) pool.emplace_back(worker, std::ref(tally));
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);

  BatchStats total;
  for (const BatchStats& tally : tallies) accumulate(total, tally);
  return total;
}

void publish(RunReport& report, const BatchStats& batch, const CacheStats& cache,
             double wall_seconds, std::size_t points, obs::Registry* metrics) {
  report.batch = batch;
  report.cache = cache;
  report.wall_seconds = wall_seconds;
  if (metrics == nullptr) return;
  obs::Registry& reg = *metrics;
  reg.counter("hpf90d_run_points_total", "Sweep points executed by Session::run").add(points);
  reg.counter("hpf90d_run_batched_points_total", "Points priced in lockstep batches")
      .add(batch.batched_points);
  reg.counter("hpf90d_run_scalar_points_total", "Points priced on the scalar path")
      .add(batch.scalar_points);
  reg.counter("hpf90d_run_replayed_points_total", "Points replayed after eviction")
      .add(batch.replayed_points);
  reg.counter("hpf90d_run_evicted_lanes_total", "Lanes evicted from lockstep windows")
      .add(batch.evicted_lanes);
  reg.counter("hpf90d_run_refilled_lanes_total", "Evicted lanes re-batched by compaction")
      .add(batch.refilled_lanes);
  reg.gauge("hpf90d_run_lockstep_occupancy", "Mean active lanes per batch IR visit, last run")
      .set(batch.mean_lanes_per_visit());
  reg.histogram("hpf90d_run_wall_seconds", "Session::run wall time",
                {0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0})
      .observe(wall_seconds);
}

}  // namespace hpf90d::api::sweep
