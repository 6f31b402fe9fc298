// executor.hpp — functional execution of the SPMD node program with
// discrete-event timing. This is the repository's stand-in for "run it on
// the iPSC/860 and measure": the same compiler output the interpretation
// engine prices is executed here with real data, per-processor clocks, an
// event-driven hypercube network, the fine i860 cost model, and seeded OS
// noise (see DESIGN.md's substitution table).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "compiler/eval.hpp"
#include "compiler/mapping.hpp"
#include "compiler/spmd_ir.hpp"
#include "machine/sag.hpp"
#include "machine/comm_model.hpp"
#include "sim/exec_cost.hpp"
#include "sim/network.hpp"
#include "sim/noise.hpp"
#include "sim/values.hpp"

namespace hpf90d::sim {

struct SimOptions {
  std::uint64_t seed = 42;
  bool noise = true;
  bool contention = true;
  machine::CollectiveAlgo collective = machine::CollectiveAlgo::RecursiveTree;
  long long max_while_trips = 1000000;
};

/// Per-SPMD-node time attribution (averaged over processors on output).
struct NodeMetric {
  double comp = 0;
  double comm = 0;
  double overhead = 0;
  long long visits = 0;

  [[nodiscard]] double total() const noexcept { return comp + comm + overhead; }
};

struct SimResult {
  double total = 0;  // program time: max processor clock
  std::vector<double> proc_clock;
  std::vector<NodeMetric> per_node;  // indexed by SpmdNode::id
  double comp = 0, comm = 0, overhead = 0;
  /// Values produced by `print *` statements, keyed by expression text.
  std::map<std::string, double> printed;
  /// Final values of user scalars (numerical validation).
  std::map<std::string, double> scalars;
};

/// What the value pass leaves for the timing replay: one record per timing
/// event, in program order, holding the event's noise-free quantities.
/// Every floating-point operand is stored exactly as the replay's
/// expression consumes it (a loop's `it * per_iter`, not `it` and
/// `per_iter`), so the replayed clocks are bit-identical to charging them
/// during the walk. Records are plain structs in vectors that clear() keeps
/// allocated, so re-recording allocates nothing in steady state.
struct TimingTape {
  enum class Kind : std::uint8_t {
    ScalarComp,     // every proc: comp `t` x compute noise
    AllOverhead,    // every proc: overhead `t`
    AllComm,        // every proc: comm `t`
    HostComm,       // proc 0: comm `t`
    LoopComp,       // each proc in the slice: comp `a` x compute noise, then overhead `b`
    SteadyComm,     // each proc in the slice: comm `a` x comm noise
    HaloExchange,   // overlap shift: the slice's messages, unpacked on arrival
    ShiftExchange,  // cshift: the slice's messages, after the receiver's local copy
    Irregular,      // nprocs-1 pairwise exchange rounds of `bytes` per partner
    Collective,     // combine of `bytes` across all procs, `t` extra per stage
  };
  struct Event {
    Kind kind;
    int node;
    double t = 0;
    long long bytes = 0;
    std::uint32_t first = 0, count = 0;  // slice of `procs` or `messages`
  };
  struct ProcTime {
    int proc;
    double a, b;
  };
  /// `pack` delays the departure from `from`; `recv` is the receiver's
  /// unpack (HaloExchange) or local copy (ShiftExchange).
  struct Message {
    int from, to;
    long long bytes;
    double pack, recv;
  };

  std::vector<Event> events;
  std::vector<ProcTime> procs;
  std::vector<Message> messages;

  void clear() {
    events.clear();
    procs.clear();
    messages.clear();
  }
};

/// The executor is reusable: a default-constructed executor is an *arena*
/// that `rebind()` points at a new configuration. A run has two parts:
///
///  * the **value pass** executes the program once on real data (array
///    storage, scalar environment, printed values, node visits) and records
///    every timing event on a TimingTape;
///  * the **timing replay** starts from fresh clocks, network occupancy and
///    a NoiseModel(seed) — startup skews first — and walks the tape, drawing
///    noise in program order.
///
/// Values do not depend on the seed, so the value pass runs once per
/// rebind() and every replay_into() after it only replays. All buffers
/// (storage, tape, clocks, metrics) keep their capacity across rebinds, so
/// per-worker executors serve thousands of measurement runs without
/// per-run heap churn.
class Executor {
 public:
  /// Arena construction: no state bound yet; call rebind() before run().
  Executor() = default;

  Executor(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
           const machine::MachineModel& machine, const SimOptions& options,
           const front::Bindings& bindings);

  /// Re-targets the executor, producing bit-identical behaviour to a fresh
  /// Executor(prog, layout, machine, options, bindings). The referenced
  /// arguments must outlive the last replay_into()/run() before the next
  /// rebind().
  void rebind(const compiler::CompiledProgram& prog, const compiler::DataLayout& layout,
              const machine::MachineModel& machine, const SimOptions& options,
              const front::Bindings& bindings);

  /// Fills `out` with the run under noise seed `seed`, reusing its vectors
  /// and maps (previous contents are discarded). The first call after a
  /// rebind runs the value pass; every call replays its tape. So one
  /// rebind followed by replay_into(s) equals a fresh Executor with
  /// options.seed = s, bit for bit, whatever was replayed before. If the
  /// value pass throws, rebind() before the next call.
  void replay_into(std::uint64_t seed, SimResult& out);

  /// replay_into(options.seed, ...).
  [[nodiscard]] SimResult run();
  void run_into(SimResult& out);

 private:
  using SpmdNode = compiler::SpmdNode;

  // --- value pass ----------------------------------------------------------
  void record();
  void exec_seq(const std::vector<compiler::SpmdNodePtr>& nodes);
  void exec(const SpmdNode& n);
  void exec_scalar_assign(const SpmdNode& n);
  void exec_do(const SpmdNode& n);
  void exec_while(const SpmdNode& n);
  void exec_if(const SpmdNode& n);
  void exec_hostio(const SpmdNode& n);
  void exec_local_loop(const SpmdNode& n);
  void exec_reduce(const SpmdNode& n);
  void exec_overlap(const SpmdNode& n);
  void exec_cshift(const SpmdNode& n);
  void exec_irregular(const SpmdNode& n);
  void exec_slice_bcast(const SpmdNode& n);

  // --- helpers ------------------------------------------------------------------
  struct ResolvedSpace {
    std::vector<long long> lo, hi, step;
    [[nodiscard]] long long points() const;
  };
  [[nodiscard]] ResolvedSpace resolve_space(const std::vector<compiler::IterIndex>& space);

  /// Owner (grid-linear processor) of one iteration point, or -1 when the
  /// loop is replicated.
  [[nodiscard]] int owner_of_point(const SpmdNode& n, const compiler::ArrayMap* home,
                                   std::span<const long long> point) const;

  [[nodiscard]] std::vector<AccessPattern> access_patterns(const SpmdNode& n) const;
  [[nodiscard]] long long working_set_bytes(const front::Expr& lhs,
                                            const front::Expr* rhs,
                                            const ResolvedSpace& space) const;

  /// Appends an event whose slice starts at the current end of the tape's
  /// proc or message list; the caller then appends the slice's entries.
  void add_event(TimingTape::Kind kind, int node_id, double t = 0, long long bytes = 0);
  void add_proc_time(int proc, double a, double b = 0);
  void add_message(int from, int to, long long bytes, double pack, double recv);

  /// Compile-time operation counts for one node (the shared
  /// CompiledProgram::node_ops table; see engine.hpp for the same pattern,
  /// including the at() guard against unnumbered hand-built nodes).
  [[nodiscard]] const compiler::OpCounts& body_ops(const SpmdNode& n) const {
    return node_ops_->at(static_cast<std::size_t>(n.id)).body;
  }
  [[nodiscard]] const compiler::OpCounts& cond_ops(const SpmdNode& n) const {
    return node_ops_->at(static_cast<std::size_t>(n.id)).cond;
  }

  // --- timing replay ----------------------------------------------------------
  void replay(std::uint64_t seed);
  void replay_exchange(const TimingTape::Event& e);
  void replay_irregular(int node_id, long long bytes);
  /// Pairwise recursive-doubling collective over all processors: per stage
  /// both partners exchange `bytes` and apply `per_stage_extra` time.
  void collective_stages(int node_id, long long bytes, double per_stage_extra);

  void charge_comp(int node_id, int proc, double t);
  void charge_comm(int node_id, int proc, double t);
  void charge_overhead(int node_id, int proc, double t);

  NodeMetric& metric(int node_id) { return metrics_.at(static_cast<std::size_t>(node_id)); }

  // Pointers (not references) so rebind() can re-target the executor; null
  // only between default construction and the first rebind.
  const compiler::CompiledProgram* prog_ = nullptr;
  // Points at prog_->node_ops, or at fallback_node_ops_ for hand-built
  // programs that bypassed the pipeline.
  const std::vector<compiler::NodeOpCounts>* node_ops_ = nullptr;
  std::vector<compiler::NodeOpCounts> fallback_node_ops_;
  const compiler::DataLayout* layout_ = nullptr;
  const machine::MachineModel* machine_ = nullptr;
  SimOptions options_;
  int nprocs_ = 0;

  // Value pass state.
  compiler::ScalarEnv env_{0};
  Storage storage_;
  // NodeCostModel and SimNetwork hold references/config, so retargeting is
  // an emplace rather than an assignment.
  std::optional<NodeCostModel> cost_;
  machine::CommModel comm_model_{machine::CommComponent{}};
  bool recorded_ = false;
  TimingTape tape_;
  std::map<std::string, double> printed_;
  std::map<std::string, double> scalars_;

  // Timing replay state. metrics_' visits come from the value pass; its
  // times from the latest replay.
  std::optional<SimNetwork> network_;
  NoiseModel noise_{0, false};
  std::vector<double> clock_;
  std::vector<NodeMetric> metrics_;

  // Reused per-call scratch (mutable: owner_of_point is logically const):
  mutable std::vector<int> owner_coords_scratch_;
  std::vector<int> coords_scratch_;
  std::vector<double> clock_scratch_;
};

}  // namespace hpf90d::sim
