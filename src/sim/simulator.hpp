// simulator.hpp — the "measurement" facade.
//
// The paper's measured timings are averages of 1000 runs on the real cube
// with the variance attributed to timing tolerance and system load (§5.1).
// Simulator::measure computes the program's values once (the executor's
// value pass) and replays its timing tape under each derived noise seed,
// reporting the same statistics (mean / min / max / stddev) so the
// accuracy benches can test the paper's claim that interpreted times
// typically fall within the measured variance.
#pragma once

#include <span>

#include "compiler/mapping.hpp"
#include "compiler/pipeline.hpp"
#include "compiler/spmd_ir.hpp"
#include "machine/sag.hpp"
#include "sim/executor.hpp"

namespace hpf90d::sim {

struct RunStats {
  double mean = 0;
  double min = 0;
  double max = 0;
  double stddev = 0;
  std::vector<double> samples;
};

struct MeasuredResult {
  SimResult detail;  // the first run's full breakdown
  RunStats stats;    // total-time statistics across runs
};

class Simulator {
 public:
  explicit Simulator(const machine::MachineModel& machine) : machine_(machine) {}

  /// Measures the program `runs` times: run r replays under seed
  /// options.seed + r * 0x9e3779b97f4a7c15.
  [[nodiscard]] MeasuredResult measure(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::LayoutOptions& layout_options,
                                       const SimOptions& options = {},
                                       int runs = 3) const;

  /// Same, against a prebuilt layout (the session API's memoized path).
  [[nodiscard]] MeasuredResult measure(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::DataLayout& layout,
                                       const SimOptions& options = {},
                                       int runs = 3) const;

  /// Same, through a caller-owned executor arena: one rebind and value pass
  /// per call instead of a fresh Executor, so a per-worker arena serves a
  /// whole sweep without per-run allocation. The statistics are
  /// bit-identical to the constructing overloads.
  [[nodiscard]] MeasuredResult measure(const compiler::CompiledProgram& prog,
                                       const front::Bindings& bindings,
                                       const compiler::DataLayout& layout,
                                       const SimOptions& options, int runs,
                                       Executor& arena) const;

  /// The fully reusing form behind all the overloads above: fills `out` in
  /// place (previous contents discarded, buffers recycled) and replays the
  /// runs through Executor::replay_into, so a caller holding one
  /// MeasuredResult and one Executor per worker measures a whole sweep
  /// without per-point result allocation. Contents are bit-identical to
  /// measure().
  void measure_into(const compiler::CompiledProgram& prog,
                    const front::Bindings& bindings,
                    const compiler::DataLayout& layout, const SimOptions& options,
                    int runs, Executor& arena, MeasuredResult& out) const;

  /// Batched form for the lockstep sweep path: measures every lane of a
  /// same-program batch through one executor arena, filling out[i] with
  /// exactly what measure_into of (bindings[i], layouts[i]) produces.
  /// Unlike prediction, simulation materializes real array data per lane,
  /// so this is a buffer-reusing lane loop rather than an SoA walk: each
  /// lane pays one value pass and one cheap timing replay per run, and one
  /// SimResult scratch cycles through the whole batch. `out` is resized to
  /// the lane count.
  void measure_batch_into(const compiler::CompiledProgram& prog,
                          std::span<const front::Bindings* const> bindings,
                          std::span<const compiler::DataLayout* const> layouts,
                          const SimOptions& options, int runs, Executor& arena,
                          std::vector<MeasuredResult>& out) const;

 private:
  /// Shared-scratch core behind measure_into / measure_batch_into:
  /// `scratch` receives every replay (and swaps with out.detail on run 0),
  /// so batch callers thread one SimResult through every lane.
  void measure_into(const compiler::CompiledProgram& prog,
                    const front::Bindings& bindings,
                    const compiler::DataLayout& layout, const SimOptions& options,
                    int runs, Executor& arena, MeasuredResult& out,
                    SimResult& scratch) const;

  const machine::MachineModel& machine_;
};

}  // namespace hpf90d::sim
