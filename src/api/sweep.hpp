// sweep.hpp — the units Session::run is built from. Internal: api.hpp does
// not export this header; tests include it to exercise each unit alone.
//
//   lower         compile every (machine, variant) pair and run the
//                 critical-variable checks, before any point runs
//   schedule      flatten the plan's cross product into points, in plan
//                 order, and cut it into chunks
//   execute_chunk price one chunk: fresh lockstep windows, keyed
//                 re-compaction rounds, scalar replay, batched measurement
//   execute       run every chunk on the worker pool
//   publish       batch/cache stats, wall time and metrics into the report
//
// Every point's arithmetic is bit-identical on every path (lockstep window,
// refill window, scalar replay), and records are written by plan-order
// index, so the report payload is byte-identical for any batch size and
// worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine_arena.hpp"
#include "api/experiment_plan.hpp"
#include "api/session.hpp"

namespace hpf90d::api::sweep {

/// The Session internals the units need (layout/seed memo lookups and the
/// critical-variable memo), kept out of Session's public surface.
struct SessionAccess {
  static LayoutStore::LayoutPtr layout(const Session& s, const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::LayoutOptions& lo,
                                       std::string& key_scratch,
                                       const compiler::LayoutDigest& digest) {
    return s.layout_for(prog, bindings, lo, key_scratch, digest);
  }
  static std::shared_ptr<const compiler::SeededValues> seed(
      const Session& s, const compiler::CompiledProgram& prog,
      const compiler::LayoutDigestState& prefix, const front::Bindings& bindings) {
    return s.seed_for(prog, prefix, bindings);
  }
  static bool check_critical(const Session& s, const compiler::CompiledProgram& prog,
                             const front::Bindings& bindings) {
    return s.check_critical(prog, bindings);
  }
};

// --- lower --------------------------------------------------------------------

struct Lowered {
  std::vector<Session::ProgramHandle> programs;  // indexed by variant
  /// (variant, problem) verdicts computed by a fresh critical-variable
  /// analysis; the rest came from the session's memo.
  std::size_t critical_analyses = 0;
};

/// Compiles every (machine, variant) pair serially — the serial sweep's
/// cache-call pattern (each variant misses once, later machines hit), so
/// report.cache is identical for every worker count — and checks critical
/// variables once per (variant, problem). Throws the first diagnostic
/// before any point runs.
[[nodiscard]] Lowered lower(Session& session, const ExperimentPlan& plan, obs::Sink* trace);

// --- schedule -----------------------------------------------------------------

/// One sweep point; its index in Schedule::points is its plan-order record
/// slot.
struct Point {
  const std::string* machine = nullptr;         // registry name (for the record)
  const machine::MachineModel* mach = nullptr;  // resolved once per machine
  std::size_t variant = 0;
  const ProblemCase* problem = nullptr;
  int nprocs = 0;
};

/// A half-open range of consecutive points sharing (machine, variant).
struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Chunk size cap. Deliberately a constant, NOT batch_size, so the
/// partition (and with it divergence, re-compaction and replay behaviour)
/// depends only on the plan — identical for every batch size, worker count
/// and SIMD width.
inline constexpr std::size_t kChunkGranule = 256;

struct Schedule {
  std::vector<Point> points;  // plan order
  std::vector<Chunk> chunks;  // partition of points
};

/// Flattens the cross product in plan order and partitions it into maximal
/// runs of consecutive points sharing (machine, variant) — the lockstep
/// lane contract — capped at kChunkGranule.
[[nodiscard]] Schedule schedule(const Session& session, const ExperimentPlan& plan,
                                obs::Sink* trace);

// --- execute ------------------------------------------------------------------

/// Everything the chunks of one run share (read-only, except `records`,
/// whose slots each chunk writes disjointly).
struct Sweep {
  const Session& session;
  const ExperimentPlan& plan;
  const std::vector<Session::ProgramHandle>& programs;
  const Schedule& schedule;
  core::PredictOptions predict;  // the plan's options, lean unless tracing
  std::size_t lane_width = 1;    // lockstep window cap; 1 = scalar reference
  obs::Sink* trace = nullptr;
  std::vector<RunRecord>& records;  // plan order, sized to schedule.points
};

/// Worker-owned state reused across chunks (no per-chunk allocation in
/// steady state).
struct WorkerScratch {
  /// One evicted lane awaiting re-batch: `key` groups lanes that diverged
  /// identically (core::EvictedLane), `offset` indexes the chunk's lanes.
  struct Deferred {
    std::uint64_t key = 0;
    std::uint32_t offset = 0;
  };
  EngineArena arena;
  std::vector<core::BatchLane> lanes;           // chunk lanes, offset order
  std::vector<LayoutStore::LayoutPtr> layouts;  // keep-alives, offset order
  std::vector<std::shared_ptr<const compiler::SeededValues>> seeds;  // keep-alives
  std::vector<core::BatchLane> window;          // regrouped refill windows
  std::vector<core::EvictedLane> evictions;     // per-window export
  std::vector<Deferred> deferred;               // this round's regroup pool
  std::vector<Deferred> deferred_next;          // evictions feeding the next round
  std::vector<std::size_t> scalar_replay;       // offsets replaying scalar
  std::string layout_key;
};

/// Re-compaction rounds per chunk. Rounds are self-limiting — every
/// lockstep window retires at least its lead lane — but the cap stops
/// pathological regroup chains early; the remainder replays scalar.
inline constexpr int kMaxCompactionRounds = 8;

/// Prices chunk `c` and writes its records. The chunk runs as fresh
/// windows in point order, then re-compaction rounds that regroup evicted
/// lanes by divergence key into refill windows, then scalar replay (in
/// point order, so diagnostics are deterministic) of failure evictions,
/// lone-key lanes and round-cap leftovers, then one batched measurement
/// pass. Telemetry is added to `tally` (order-independent sums).
void execute_chunk(const Sweep& sweep, const Chunk& c, WorkerScratch& ws, BatchStats& tally);

/// Runs every chunk on `workers` threads (<= 0 = hardware concurrency;
/// 1 = serial, no threads) and returns the summed telemetry. Rethrows the
/// first chunk failure after every worker stopped.
[[nodiscard]] BatchStats execute(const Sweep& sweep, int workers);

// --- publish ------------------------------------------------------------------

/// Fills the report's batch/cache telemetry and wall time, then publishes
/// them into `metrics` (nullptr: nothing). The registry is written last, so
/// a throwing registry (kind clash) can never corrupt a sweep. Counters are
/// cumulative across runs; the occupancy gauge reflects the latest run.
void publish(RunReport& report, const BatchStats& batch, const CacheStats& cache,
             double wall_seconds, std::size_t points, obs::Registry* metrics);

}  // namespace hpf90d::api::sweep
