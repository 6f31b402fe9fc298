#include "sim/executor.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "compiler/opcount.hpp"
#include "support/diagnostics.hpp"

namespace hpf90d::sim {

using compiler::SpmdKind;
using compiler::SpmdNode;
using front::Expr;
using front::ExprKind;
using support::CompileError;

Executor::Executor(const compiler::CompiledProgram& prog,
                   const compiler::DataLayout& layout,
                   const machine::MachineModel& machine, const SimOptions& options,
                   const front::Bindings& bindings) {
  rebind(prog, layout, machine, options, bindings);
}

void Executor::rebind(const compiler::CompiledProgram& prog,
                      const compiler::DataLayout& layout,
                      const machine::MachineModel& machine, const SimOptions& options,
                      const front::Bindings& bindings) {
  prog_ = &prog;
  if (prog.node_ops.size() == static_cast<std::size_t>(prog.node_count)) {
    node_ops_ = &prog.node_ops;
  } else {
    // Hand-built program that bypassed the pipeline: price it here.
    fallback_node_ops_ = compiler::collect_node_ops(prog);
    node_ops_ = &fallback_node_ops_;
  }
  layout_ = &layout;
  machine_ = &machine;
  options_ = options;
  nprocs_ = layout.nprocs();
  env_.reset(prog.symbols.size());
  storage_.rebind(prog.symbols, layout);
  cost_.emplace(machine.node());
  comm_model_ = machine::CommModel(machine.node().comm);
  network_.emplace(nprocs_, layout.grid().shape, machine.node().comm,
                   SimNetworkOptions{options.contention});
  clock_.assign(static_cast<std::size_t>(nprocs_), 0.0);
  metrics_.assign(static_cast<std::size_t>(prog.node_count), NodeMetric{});
  // Capacity-preserving resets, so a steady-state rebind allocates nothing.
  recorded_ = false;
  tape_.clear();
  printed_.clear();
  scalars_.clear();
  compiler::seed_environment(env_, prog_->symbols, bindings);
}

SimResult Executor::run() {
  SimResult out;
  run_into(out);
  return out;
}

void Executor::run_into(SimResult& out) { replay_into(options_.seed, out); }

void Executor::replay_into(std::uint64_t seed, SimResult& out) {
  if (!recorded_) {
    record();
    recorded_ = true;
  }
  replay(seed);

  out.total = *std::max_element(clock_.begin(), clock_.end());
  out.proc_clock = clock_;
  out.per_node = metrics_;
  out.comp = out.comm = out.overhead = 0;
  for (auto& m : out.per_node) {
    m.comp /= nprocs_;
    m.comm /= nprocs_;
    m.overhead /= nprocs_;
  }
  for (const auto& m : out.per_node) {
    out.comp += m.comp;
    out.comm += m.comm;
    out.overhead += m.overhead;
  }
  out.printed = printed_;
  out.scalars = scalars_;
}

// ---------------------------------------------------------------------------
// value pass
// ---------------------------------------------------------------------------

void Executor::record() {
  exec_seq(prog_->root->children);
  for (const auto& sym : prog_->symbols.symbols()) {
    if (sym.kind == front::SymbolKind::Scalar ||
        sym.kind == front::SymbolKind::Param) {
      const int id = prog_->symbols.find(sym.name);
      if (env_.is_defined(id)) scalars_[sym.name] = env_.value(id);
    }
  }
}

void Executor::add_event(TimingTape::Kind kind, int node_id, double t, long long bytes) {
  const bool messages =
      kind == TimingTape::Kind::HaloExchange || kind == TimingTape::Kind::ShiftExchange;
  const auto first =
      static_cast<std::uint32_t>(messages ? tape_.messages.size() : tape_.procs.size());
  tape_.events.push_back(TimingTape::Event{kind, node_id, t, bytes, first, 0});
}

void Executor::add_proc_time(int proc, double a, double b) {
  tape_.procs.push_back(TimingTape::ProcTime{proc, a, b});
  ++tape_.events.back().count;
}

void Executor::add_message(int from, int to, long long bytes, double pack, double recv) {
  tape_.messages.push_back(TimingTape::Message{from, to, bytes, pack, recv});
  ++tape_.events.back().count;
}

void Executor::exec_seq(const std::vector<compiler::SpmdNodePtr>& nodes) {
  for (const auto& n : nodes) exec(*n);
}

void Executor::exec(const SpmdNode& n) {
  metric(n.id).visits++;
  switch (n.kind) {
    case SpmdKind::Seq: exec_seq(n.children); break;
    case SpmdKind::ScalarAssign: exec_scalar_assign(n); break;
    case SpmdKind::LocalLoop: exec_local_loop(n); break;
    case SpmdKind::OverlapComm: exec_overlap(n); break;
    case SpmdKind::CShiftComm: exec_cshift(n); break;
    case SpmdKind::GatherComm:
    case SpmdKind::ScatterComm: exec_irregular(n); break;
    case SpmdKind::SliceBroadcast: exec_slice_bcast(n); break;
    case SpmdKind::Reduce: exec_reduce(n); break;
    case SpmdKind::DoLoop: exec_do(n); break;
    case SpmdKind::WhileLoop: exec_while(n); break;
    case SpmdKind::IfBlock: exec_if(n); break;
    case SpmdKind::HostIO: exec_hostio(n); break;
  }
}

void Executor::exec_scalar_assign(const SpmdNode& n) {
  const double v = compiler::eval_scalar(*n.rhs, env_, &storage_, prog_->symbols);
  double stored = v;
  if (n.lhs->type == front::TypeBase::Integer) stored = std::trunc(v);
  env_.define(n.lhs->symbol, stored);
  // replicated computation: every node executes the same statement
  add_event(TimingTape::Kind::ScalarComp, n.id,
            cost_->scalar_cost(body_ops(n)) + machine_->node().proc.t_store);
}

void Executor::exec_do(const SpmdNode& n) {
  const long long lo = compiler::eval_int(*n.do_lo, env_, &storage_, prog_->symbols);
  const long long hi = compiler::eval_int(*n.do_hi, env_, &storage_, prog_->symbols);
  const long long step =
      n.do_step ? compiler::eval_int(*n.do_step, env_, &storage_, prog_->symbols) : 1;
  if (step == 0) throw CompileError(n.loc, "do loop step is zero");
  add_event(TimingTape::Kind::AllOverhead, n.id, machine_->node().proc.loop_setup);
  for (long long v = lo; step > 0 ? v <= hi : v >= hi; v += step) {
    env_.define(n.do_symbol, static_cast<double>(v));
    add_event(TimingTape::Kind::AllOverhead, n.id, machine_->node().proc.loop_overhead);
    exec_seq(n.children);
  }
}

void Executor::exec_while(const SpmdNode& n) {
  long long trips = 0;
  while (true) {
    const double c = compiler::eval_scalar(*n.mask, env_, &storage_, prog_->symbols);
    add_event(TimingTape::Kind::AllOverhead, n.id,
              machine_->node().proc.branch_overhead + cost_->scalar_cost(cond_ops(n)));
    if (c == 0.0) break;
    if (++trips > options_.max_while_trips) {
      throw CompileError(n.loc, "do while exceeded the simulation trip limit");
    }
    exec_seq(n.children);
  }
}

void Executor::exec_if(const SpmdNode& n) {
  const double c = compiler::eval_scalar(*n.mask, env_, &storage_, prog_->symbols);
  add_event(TimingTape::Kind::AllOverhead, n.id, machine_->node().proc.branch_overhead);
  if (c != 0.0) {
    exec_seq(n.children);
  } else {
    exec_seq(n.else_children);
  }
}

void Executor::exec_hostio(const SpmdNode& n) {
  long long bytes = 16;  // service request framing
  for (const auto& arg : n.io_args) {
    if (arg->rank == 0) {
      const double v = compiler::eval_scalar(*arg, env_, &storage_, prog_->symbols);
      printed_[arg->str()] = v;
      bytes += 16;
    } else {
      bytes += storage_.total_elements(arg->symbol) *
               front::type_size_bytes(arg->type);
    }
  }
  const auto& io = machine_->node().io;
  add_event(TimingTape::Kind::HostComm, n.id,
            io.host_latency + io.host_per_byte * static_cast<double>(bytes));
}

// ---------------------------------------------------------------------------
// iteration helpers
// ---------------------------------------------------------------------------

long long Executor::ResolvedSpace::points() const {
  long long total = 1;
  for (std::size_t d = 0; d < lo.size(); ++d) {
    const long long count =
        step[d] > 0 ? (hi[d] >= lo[d] ? (hi[d] - lo[d]) / step[d] + 1 : 0)
                    : (lo[d] >= hi[d] ? (lo[d] - hi[d]) / (-step[d]) + 1 : 0);
    total *= count;
  }
  return total;
}

Executor::ResolvedSpace Executor::resolve_space(
    const std::vector<compiler::IterIndex>& space) {
  ResolvedSpace out;
  for (const auto& ix : space) {
    out.lo.push_back(compiler::eval_int(*ix.lo, env_, &storage_, prog_->symbols));
    out.hi.push_back(compiler::eval_int(*ix.hi, env_, &storage_, prog_->symbols));
    out.step.push_back(
        ix.stride ? compiler::eval_int(*ix.stride, env_, &storage_, prog_->symbols) : 1);
  }
  return out;
}

int Executor::owner_of_point(const SpmdNode& n, const compiler::ArrayMap* home,
                             std::span<const long long> point) const {
  if (home == nullptr) return -1;
  std::vector<int>& coords = owner_coords_scratch_;
  coords.assign(static_cast<std::size_t>(layout_->grid().rank()), 0);
  for (std::size_t h = 0; h < n.home_driver.size(); ++h) {
    const int drv = n.home_driver[h];
    if (drv < 0) continue;
    const auto& dd = home->dims[h];
    if (dd.grid_dim < 0) continue;
    const long long g = point[static_cast<std::size_t>(drv)] + n.home_driver_offset[h];
    coords[static_cast<std::size_t>(dd.grid_dim)] = dd.owner_coord(g);
  }
  return layout_->grid().linear(coords);
}

namespace {

void scan_subscript(const Expr& x, int inner_symbol, bool& uses_inner, bool& has_ref) {
  if (x.kind == ExprKind::Var && x.symbol == inner_symbol) uses_inner = true;
  if (x.kind == ExprKind::ArrayRef) has_ref = true;
  for (const auto& a : x.args) scan_subscript(*a, inner_symbol, uses_inner, has_ref);
  for (const auto& ss : x.subs) {
    if (ss.scalar) scan_subscript(*ss.scalar, inner_symbol, uses_inner, has_ref);
  }
}

/// Collects the memory-access patterns of every array reference in `e`.
/// `inner_symbol` is the innermost loop index; the stride is the distance
/// (in elements, row-major) between consecutive accesses.
void collect_accesses(const Expr& e, int inner_symbol, const Storage& storage,
                      const front::SymbolTable& symbols,
                      std::vector<AccessPattern>& out, bool store_ctx) {
  if (e.kind == ExprKind::ArrayRef) {
    AccessPattern ap;
    ap.symbol = e.symbol;
    ap.elem_bytes = front::type_size_bytes(e.type);
    ap.is_store = store_ctx;
    const auto& extents = storage.extents(e.symbol);
    ap.array_bytes = ap.elem_bytes;
    for (long long ext : extents) ap.array_bytes *= ext;
    long long stride = 0;
    bool irregular = false;
    long long dim_stride = 1;
    for (std::size_t d = e.subs.size(); d-- > 0;) {
      const auto& sub = e.subs[d];
      if (sub.kind == front::Subscript::Kind::Scalar) {
        const Expr& s = *sub.scalar;
        bool uses_inner = false;
        bool has_ref = false;
        scan_subscript(s, inner_symbol, uses_inner, has_ref);
        if (has_ref && uses_inner) irregular = true;
        else if (uses_inner) stride += dim_stride;  // coefficient ~1 dominant case
      }
      if (d < extents.size()) dim_stride *= extents[d];
    }
    ap.stride_elements = irregular ? -1 : std::max<long long>(stride, 0);
    if (ap.stride_elements == 0 && !irregular) ap.stride_elements = 0;  // loop invariant
    out.push_back(ap);
  }
  for (const auto& a : e.args) collect_accesses(*a, inner_symbol, storage, symbols, out, false);
  for (const auto& s : e.subs) {
    if (s.scalar) collect_accesses(*s.scalar, inner_symbol, storage, symbols, out, false);
  }
}

}  // namespace

std::vector<AccessPattern> Executor::access_patterns(const SpmdNode& n) const {
  std::vector<AccessPattern> out;
  const int inner = n.inner          ? n.inner->index.symbol
                    : !n.space.empty() ? n.space.back().symbol
                                       : -1;
  if (n.inner) {
    collect_accesses(*n.inner->arg, inner, storage_, prog_->symbols, out, false);
  } else if (n.rhs) {
    collect_accesses(*n.rhs, inner, storage_, prog_->symbols, out, false);
  }
  if (n.mask) collect_accesses(*n.mask, inner, storage_, prog_->symbols, out, false);
  if (n.lhs && n.lhs->kind == ExprKind::ArrayRef) {
    collect_accesses(*n.lhs, inner, storage_, prog_->symbols, out, true);
  }
  if (n.reduce_arg) collect_accesses(*n.reduce_arg, inner, storage_, prog_->symbols, out, false);
  return out;
}

long long Executor::working_set_bytes(const Expr& lhs, const Expr* rhs,
                                      const ResolvedSpace& space) const {
  // footprint ~ iteration count x (distinct arrays touched) x element size
  long long arrays = 1;
  if (rhs != nullptr) compiler::count_array_refs(*rhs, arrays);
  const long long iters = std::max<long long>(1, space.points());
  return iters * arrays * front::type_size_bytes(lhs.type) / std::max(1, nprocs_);
}

// ---------------------------------------------------------------------------
// local computation
// ---------------------------------------------------------------------------

void Executor::exec_local_loop(const SpmdNode& n) {
  const ResolvedSpace space = resolve_space(n.space);
  if (space.points() <= 0) return;
  const compiler::ArrayMap* home =
      n.home_symbol >= 0 ? layout_->map_for(n.home_symbol) : nullptr;

  // per-proc iteration and mask-true counts (slot 0 used when replicated)
  const bool replicated = home == nullptr;
  std::vector<long long> iters(static_cast<std::size_t>(nprocs_), 0);
  std::vector<long long> trues(static_cast<std::size_t>(nprocs_), 0);

  // inner-reduction resolved bounds (loop-invariant by construction)
  long long inner_lo = 0, inner_hi = -1;
  if (n.inner) {
    inner_lo = compiler::eval_int(*n.inner->index.lo, env_, &storage_, prog_->symbols);
    inner_hi = compiler::eval_int(*n.inner->index.hi, env_, &storage_, prog_->symbols);
  }

  // functional pass: evaluate all RHS first (forall semantics), then commit
  struct PendingStore {
    std::size_t offset;
    double value;
  };
  std::vector<PendingStore> pending;
  pending.reserve(static_cast<std::size_t>(std::min<long long>(space.points(), 1 << 20)));
  const int lhs_symbol = n.lhs->symbol;
  (void)storage_.raw(lhs_symbol);  // ensure allocated

  const std::size_t rank = space.lo.size();
  std::vector<long long> point = space.lo;
  std::vector<long long> lhs_idx(n.lhs->subs.size());
  bool done = space.points() == 0;
  while (!done) {
    for (std::size_t d = 0; d < rank; ++d) {
      env_.define(n.space[d].symbol, static_cast<double>(point[d]));
    }
    const int owner = replicated ? -1 : owner_of_point(n, home, point);
    if (owner >= 0) {
      ++iters[static_cast<std::size_t>(owner)];
    }
    bool mask_true = true;
    if (n.mask) {
      mask_true =
          compiler::eval_scalar(*n.mask, env_, &storage_, prog_->symbols) != 0.0;
    }
    if (mask_true) {
      if (owner >= 0) ++trues[static_cast<std::size_t>(owner)];
      double value;
      if (n.inner) {
        const bool is_prod = n.inner->op == "product";
        double acc = is_prod ? 1.0 : n.inner->op == "maxval" ? -1e300
                               : n.inner->op == "minval"     ? 1e300
                                                             : 0.0;
        for (long long j = inner_lo; j <= inner_hi; ++j) {
          env_.define(n.inner->index.symbol, static_cast<double>(j));
          const double v =
              compiler::eval_scalar(*n.inner->arg, env_, &storage_, prog_->symbols);
          if (n.inner->op == "sum") acc += v;
          else if (is_prod) acc *= v;
          else if (n.inner->op == "maxval") acc = std::max(acc, v);
          else acc = std::min(acc, v);
        }
        value = acc;
      } else {
        value = compiler::eval_scalar(*n.rhs, env_, &storage_, prog_->symbols);
      }
      if (n.lhs->type == front::TypeBase::Integer) value = std::trunc(value);
      for (std::size_t d = 0; d < lhs_idx.size(); ++d) {
        lhs_idx[d] = compiler::eval_int(*n.lhs->subs[d].scalar, env_, &storage_,
                                        prog_->symbols);
      }
      pending.push_back(PendingStore{storage_.offset(lhs_symbol, lhs_idx), value});
    }
    // odometer
    done = true;
    for (std::size_t d = rank; d-- > 0;) {
      point[d] += space.step[d];
      const bool in_range =
          space.step[d] > 0 ? point[d] <= space.hi[d] : point[d] >= space.hi[d];
      if (in_range) {
        done = false;
        break;
      }
      point[d] = space.lo[d];
    }
  }
  auto raw = storage_.raw(lhs_symbol);
  for (const auto& st : pending) raw[st.offset] = st.value;

  // --- timing -----------------------------------------------------------------
  const compiler::OpCounts& ops = body_ops(n);
  const compiler::OpCounts& mask_ops = cond_ops(n);
  std::vector<AccessPattern> accesses = access_patterns(n);
  for (auto& a : accesses) a.array_bytes /= std::max(1, nprocs_);
  const long long ws = working_set_bytes(*n.lhs, n.rhs ? n.rhs.get() : n.inner->arg.get(),
                                         space);
  const auto& p = machine_->node().proc;

  const long long total_pts = space.points();
  add_event(TimingTape::Kind::LoopComp, n.id);
  for (int proc = 0; proc < nprocs_; ++proc) {
    const long long it = replicated ? total_pts : iters[static_cast<std::size_t>(proc)];
    if (it == 0) continue;
    const long long tr = replicated ? total_pts : trues[static_cast<std::size_t>(proc)];
    const double frac = n.mask ? static_cast<double>(tr) / static_cast<double>(it) : 1.0;
    const LoopBodyCost body =
        cost_->body_cost(ops, accesses, ws, frac, n.mask ? &mask_ops : nullptr);
    double per_iter = body.per_iteration;
    if (n.inner) {
      const long long m = std::max<long long>(0, inner_hi - inner_lo + 1);
      per_iter = body.setup + static_cast<double>(m) * (body.per_iteration + body.per_iter_overhead) +
                 p.t_store;
    }
    add_proc_time(proc, static_cast<double>(it) * per_iter,
                  body.setup + static_cast<double>(it) * body.per_iter_overhead);
  }
}

// ---------------------------------------------------------------------------
// reductions
// ---------------------------------------------------------------------------

void Executor::exec_reduce(const SpmdNode& n) {
  const ResolvedSpace space = resolve_space(n.space);
  const compiler::ArrayMap* home =
      n.home_symbol >= 0 ? layout_->map_for(n.home_symbol) : nullptr;
  const bool replicated = home == nullptr;
  std::vector<long long> iters(static_cast<std::size_t>(nprocs_), 0);

  const bool is_prod = n.reduce_op == "product";
  const bool is_max = n.reduce_op == "maxval" || n.reduce_op == "maxloc";
  const bool is_min = n.reduce_op == "minval";
  double acc = is_prod ? 1.0 : is_max ? -1e300 : is_min ? 1e300 : 0.0;
  long long arg_at = 0;

  const std::size_t rank = space.lo.size();
  std::vector<long long> point = space.lo;
  bool done = space.points() <= 0;
  while (!done) {
    for (std::size_t d = 0; d < rank; ++d) {
      env_.define(n.space[d].symbol, static_cast<double>(point[d]));
    }
    if (!replicated) {
      const int owner = owner_of_point(n, home, point);
      if (owner >= 0) ++iters[static_cast<std::size_t>(owner)];
    }
    const double v =
        compiler::eval_scalar(*n.reduce_arg, env_, &storage_, prog_->symbols);
    if (n.reduce_op == "sum") acc += v;
    else if (is_prod) acc *= v;
    else if (is_max) {
      if (v > acc) {
        acc = v;
        arg_at = point[0];
      }
    } else if (is_min) acc = std::min(acc, v);

    done = true;
    for (std::size_t d = rank; d-- > 0;) {
      point[d] += space.step[d];
      const bool in_range =
          space.step[d] > 0 ? point[d] <= space.hi[d] : point[d] >= space.hi[d];
      if (in_range) {
        done = false;
        break;
      }
      point[d] = space.lo[d];
    }
  }
  env_.define(n.reduce_result,
              n.reduce_op == "maxloc" ? static_cast<double>(arg_at) : acc);

  // --- timing: local partial reduction ------------------------------------
  const compiler::OpCounts& ops = body_ops(n);
  std::vector<AccessPattern> accesses = access_patterns(n);
  for (auto& a : accesses) a.array_bytes /= std::max(1, nprocs_);
  const long long ws = working_set_bytes(*n.reduce_arg, n.reduce_arg.get(), space);
  const LoopBodyCost body = cost_->body_cost(ops, accesses, ws);
  const long long total_pts = std::max<long long>(space.points(), 0);
  add_event(TimingTape::Kind::LoopComp, n.id);
  for (int proc = 0; proc < nprocs_; ++proc) {
    const long long it = replicated ? total_pts : iters[static_cast<std::size_t>(proc)];
    if (it == 0) continue;
    add_proc_time(proc, static_cast<double>(it) * body.per_iteration,
                  body.setup + static_cast<double>(it) * body.per_iter_overhead);
  }

  // --- combine across the cube ------------------------------------------------
  if (!replicated && nprocs_ > 1) {
    const int elem = n.reduce_op == "maxloc" ? 12 : 8;  // value (+ index)
    const double op_t = machine_->node().proc.t_fadd +
                        machine_->node().comm.coll_stage_setup;
    add_event(TimingTape::Kind::Collective, n.id, op_t, elem);
  }
}

// ---------------------------------------------------------------------------
// communication nodes
// ---------------------------------------------------------------------------

void Executor::exec_overlap(const SpmdNode& n) {
  const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
  if (map == nullptr) return;
  const auto& dd = map->dims[static_cast<std::size_t>(n.comm_dim)];
  if (dd.grid_dim < 0 || dd.nprocs <= 1) return;  // dimension is serial here

  // A re-issued exchange of unchanged data finds last iteration's message
  // already buffered at the receiver: in steady state only packing and wire
  // occupancy remain (message queues absorb the latency).
  if (n.comm_src_invariant && metric(n.id).visits > 1) {
    const int elem_sz = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
    const bool strided_slab = n.comm_dim != 0;
    const long long width_s = std::min<long long>(std::llabs(n.comm_offset),
                                                  std::max<long long>(dd.block, 1));
    add_event(TimingTape::Kind::SteadyComm, n.id);
    for (int p = 0; p < nprocs_; ++p) {
      const std::span<const int> coords = layout_->proc_coords(p);
      const int k = coords[static_cast<std::size_t>(dd.grid_dim)];
      const int dir0 = n.comm_offset > 0 ? +1 : -1;
      const bool has_partner = dir0 > 0 ? k + 1 < dd.nprocs : k > 0;
      if (!has_partner) continue;
      long long perp = 1;
      for (std::size_t j = 0; j < map->dims.size(); ++j) {
        if (static_cast<int>(j) == n.comm_dim) continue;
        const auto& od = map->dims[j];
        const int c = od.grid_dim >= 0 ? coords[static_cast<std::size_t>(od.grid_dim)] : 0;
        perp *= od.local_count(c);
      }
      const long long bytes = perp * width_s * elem_sz;
      add_proc_time(p, 2.0 * comm_model_.pack(bytes, strided_slab) +
                           machine_->node().comm.per_byte * static_cast<double>(bytes));
    }
    return;
  }

  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const bool strided = n.comm_dim != 0;  // row-major: outermost dim slabs are contiguous
  const int dir = n.comm_offset > 0 ? +1 : -1;

  auto slab_elements = [&](int proc) -> long long {
    const std::span<const int> coords = layout_->proc_coords(proc);
    long long perp = 1;
    for (std::size_t j = 0; j < map->dims.size(); ++j) {
      if (static_cast<int>(j) == n.comm_dim) continue;
      const auto& od = map->dims[j];
      const int c = od.grid_dim >= 0 ? coords[static_cast<std::size_t>(od.grid_dim)] : 0;
      perp *= od.local_count(c);
    }
    const int cc = coords[static_cast<std::size_t>(dd.grid_dim)];
    const long long width =
        dd.kind == front::DistKind::Cyclic
            ? dd.local_count(cc)
            : std::min<long long>(std::llabs(n.comm_offset),
                                  std::max<long long>(dd.block, 1));
    return perp * width;
  };

  // sender q (coord k) sends to receiver p (coord k-dir): receiver needs
  // elements offset `dir` beyond its boundary
  add_event(TimingTape::Kind::HaloExchange, n.id);
  for (int q = 0; q < nprocs_; ++q) {
    const std::span<const int> qc = layout_->proc_coords(q);
    const int kr = qc[static_cast<std::size_t>(dd.grid_dim)] - dir;
    if (kr < 0 || kr >= dd.nprocs) continue;
    const long long bytes = slab_elements(q) * elem;
    if (bytes == 0) continue;
    std::vector<int>& coords = coords_scratch_;
    coords.assign(qc.begin(), qc.end());
    coords[static_cast<std::size_t>(dd.grid_dim)] = kr;
    const double pack = comm_model_.pack(bytes, strided);
    add_message(q, layout_->grid().linear(coords), bytes, pack, pack);
  }
}

void Executor::exec_cshift(const SpmdNode& n) {
  const long long shift =
      compiler::eval_int(*n.comm_amount, env_, &storage_, prog_->symbols);
  storage_.cshift_into(n.comm_temp, n.comm_array, n.comm_dim, shift);
  if (shift == 0) return;

  const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const auto& mem = machine_->node().mem;

  if (map == nullptr || map->dims[static_cast<std::size_t>(n.comm_dim)].grid_dim < 0 ||
      map->dims[static_cast<std::size_t>(n.comm_dim)].nprocs <= 1) {
    // serial dimension: local circular copy only
    const long long total = storage_.total_elements(n.comm_array) /
                            std::max(1LL, static_cast<long long>(nprocs_));
    add_event(TimingTape::Kind::AllComm, n.id,
              static_cast<double>(total * elem) / mem.mem_bandwidth);
    return;
  }

  const auto& dd = map->dims[static_cast<std::size_t>(n.comm_dim)];
  const bool strided = n.comm_dim != 0;
  const long long w = std::min<long long>(std::llabs(shift), dd.block);
  const int dir = shift > 0 ? +1 : -1;

  // per-proc slab: perp elements across the shifted dimension
  auto perp_of = [&](std::span<const int> coords) {
    long long perp = 1;
    for (std::size_t j = 0; j < map->dims.size(); ++j) {
      if (static_cast<int>(j) == n.comm_dim) continue;
      const auto& od = map->dims[j];
      const int c = od.grid_dim >= 0 ? coords[static_cast<std::size_t>(od.grid_dim)] : 0;
      perp *= od.local_count(c);
    }
    return perp;
  };
  add_event(TimingTape::Kind::ShiftExchange, n.id);
  for (int q = 0; q < nprocs_; ++q) {
    const std::span<const int> qc = layout_->proc_coords(q);
    const long long bytes = perp_of(qc) * w * elem;
    if (bytes == 0) continue;
    // circular: wrap at the grid edges
    std::vector<int>& coords = coords_scratch_;
    coords.assign(qc.begin(), qc.end());
    int& k = coords[static_cast<std::size_t>(dd.grid_dim)];
    k = (k - dir % dd.nprocs + dd.nprocs) % dd.nprocs;
    const int p = layout_->grid().linear(coords);
    const std::span<const int> pc = layout_->proc_coords(p);
    const long long own = dd.local_count(pc[static_cast<std::size_t>(dd.grid_dim)]);
    const long long local_bytes = perp_of(pc) * std::max<long long>(own - w, 0) * elem;
    add_message(q, p, bytes, comm_model_.pack(bytes, strided),
                static_cast<double>(local_bytes) / mem.mem_bandwidth);
  }
}

void Executor::exec_irregular(const SpmdNode& n) {
  if (nprocs_ <= 1) return;
  const ResolvedSpace space = resolve_space(n.space);
  const long long total = std::max<long long>(space.points(), 0);
  if (total == 0) return;
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const auto& comm = machine_->node().comm;

  // per-processor share (block partition of the iteration space)
  const long long share = (total + nprocs_ - 1) / nprocs_;
  const long long remote = share * (nprocs_ - 1) / nprocs_;
  const long long per_partner = std::max<long long>(1, remote / (nprocs_ - 1));

  // index translation + pack, then staged pairwise exchange rounds
  add_event(TimingTape::Kind::AllComm, n.id,
            comm.per_element_index * static_cast<double>(share) +
                comm_model_.pack(remote * elem, true));
  add_event(TimingTape::Kind::Irregular, n.id, 0, per_partner * elem);
}

void Executor::exec_slice_bcast(const SpmdNode& n) {
  const compiler::ArrayMap* map = layout_->map_for(n.comm_array);
  if (map == nullptr || nprocs_ <= 1) return;
  const int elem = front::type_size_bytes(prog_->symbols.at(n.comm_array).type);
  const long long total = storage_.total_elements(n.comm_array);
  const long long dim_extent = map->dims[static_cast<std::size_t>(n.comm_dim)].extent;
  const long long slice = total / std::max<long long>(dim_extent, 1);
  add_event(TimingTape::Kind::Collective, n.id, machine_->node().comm.coll_stage_setup,
            slice * elem);
}

// ---------------------------------------------------------------------------
// timing replay
// ---------------------------------------------------------------------------

void Executor::charge_comp(int node_id, int proc, double t) {
  clock_[static_cast<std::size_t>(proc)] += t;
  metric(node_id).comp += t;
}
void Executor::charge_comm(int node_id, int proc, double t) {
  clock_[static_cast<std::size_t>(proc)] += t;
  metric(node_id).comm += t;
}
void Executor::charge_overhead(int node_id, int proc, double t) {
  clock_[static_cast<std::size_t>(proc)] += t;
  metric(node_id).overhead += t;
}

void Executor::replay(std::uint64_t seed) {
  network_->reset();
  noise_ = NoiseModel(seed, options_.noise);
  for (int p = 0; p < nprocs_; ++p) {
    clock_[static_cast<std::size_t>(p)] = noise_.startup_skew();
  }
  for (auto& m : metrics_) m.comp = m.comm = m.overhead = 0;

  using Kind = TimingTape::Kind;
  for (const TimingTape::Event& e : tape_.events) {
    const auto procs = [&] {
      return std::span<const TimingTape::ProcTime>(tape_.procs).subspan(e.first, e.count);
    };
    switch (e.kind) {
      case Kind::ScalarComp:
        for (int p = 0; p < nprocs_; ++p) charge_comp(e.node, p, e.t * noise_.compute_factor());
        break;
      case Kind::AllOverhead:
        for (int p = 0; p < nprocs_; ++p) charge_overhead(e.node, p, e.t);
        break;
      case Kind::AllComm:
        for (int p = 0; p < nprocs_; ++p) charge_comm(e.node, p, e.t);
        break;
      case Kind::HostComm: charge_comm(e.node, 0, e.t); break;
      case Kind::LoopComp:
        for (const auto& pt : procs()) {
          charge_comp(e.node, pt.proc, pt.a * noise_.compute_factor());
          charge_overhead(e.node, pt.proc, pt.b);
        }
        break;
      case Kind::SteadyComm:
        for (const auto& pt : procs()) charge_comm(e.node, pt.proc, pt.a * noise_.comm_factor());
        break;
      case Kind::HaloExchange:
      case Kind::ShiftExchange: replay_exchange(e); break;
      case Kind::Irregular: replay_irregular(e.node, e.bytes); break;
      case Kind::Collective: collective_stages(e.node, e.bytes, e.t); break;
    }
  }
}

void Executor::replay_exchange(const TimingTape::Event& e) {
  // Departures read the clocks as they stand before the exchange; arrivals
  // land in a copy, and each proc is charged its difference afterwards.
  std::vector<double>& new_clock = clock_scratch_;
  new_clock.assign(clock_.begin(), clock_.end());
  const bool halo = e.kind == TimingTape::Kind::HaloExchange;
  for (std::uint32_t i = e.first; i < e.first + e.count; ++i) {
    const TimingTape::Message& m = tape_.messages[i];
    const auto q = static_cast<std::size_t>(m.from);
    const auto p = static_cast<std::size_t>(m.to);
    const double depart = clock_[q] + m.pack;
    const double arr = network_->send(m.from, m.to, m.bytes, depart, noise_);
    new_clock[p] = halo ? std::max(new_clock[p], arr + m.recv)
                        : std::max(new_clock[p] + m.recv, arr);
    new_clock[q] = std::max(new_clock[q], depart);
  }
  for (int p = 0; p < nprocs_; ++p) {
    const double dt = new_clock[static_cast<std::size_t>(p)] -
                      clock_[static_cast<std::size_t>(p)];
    if (dt > 0) charge_comm(e.node, p, dt);
  }
}

void Executor::replay_irregular(int node_id, long long bytes) {
  std::vector<double>& snapshot = clock_scratch_;
  for (int r = 1; r < nprocs_; ++r) {
    snapshot.assign(clock_.begin(), clock_.end());
    for (int p = 0; p < nprocs_; ++p) {
      const int q = (p + r) % nprocs_;
      const double arr =
          network_->send(p, q, bytes, snapshot[static_cast<std::size_t>(p)], noise_);
      const double before = clock_[static_cast<std::size_t>(q)];
      clock_[static_cast<std::size_t>(q)] = std::max(before, arr);
      metric(node_id).comm += clock_[static_cast<std::size_t>(q)] - before;
    }
  }
}

void Executor::collective_stages(int node_id, long long bytes, double per_stage_extra) {
  if (nprocs_ <= 1) return;
  int stages = 0;
  while ((1 << stages) < nprocs_) ++stages;
  if (options_.collective == machine::CollectiveAlgo::Linear) {
    // everyone sends to node 0, then node 0 broadcasts back
    for (int p = 1; p < nprocs_; ++p) {
      const double t0 = clock_[static_cast<std::size_t>(p)];
      const double arr = network_->send(p, 0, bytes, t0, noise_);
      const double before = clock_[0];
      clock_[0] = std::max(clock_[0], arr) + per_stage_extra;
      metric(node_id).comm += (clock_[0] - before) + (arr - t0);
      clock_[static_cast<std::size_t>(p)] = t0 + machine_->node().comm.latency_short;
    }
    for (int p = 1; p < nprocs_; ++p) {
      const double arr = network_->send(0, p, bytes, clock_[0], noise_);
      const double before = clock_[static_cast<std::size_t>(p)];
      clock_[static_cast<std::size_t>(p)] = std::max(before, arr);
      metric(node_id).comm += clock_[static_cast<std::size_t>(p)] - before;
    }
    return;
  }
  for (int s = 0; s < stages; ++s) {
    for (int p = 0; p < nprocs_; ++p) {
      const int q = p ^ (1 << s);
      if (q <= p || q >= nprocs_) continue;
      const double t = std::max(clock_[static_cast<std::size_t>(p)],
                                clock_[static_cast<std::size_t>(q)]);
      const double arr_q = network_->send(p, q, bytes, t, noise_);
      const double arr_p = network_->send(q, p, bytes, t, noise_);
      const double end = std::max(arr_p, arr_q) + per_stage_extra;
      metric(node_id).comm += (end - clock_[static_cast<std::size_t>(p)]) +
                              (end - clock_[static_cast<std::size_t>(q)]);
      clock_[static_cast<std::size_t>(p)] = end;
      clock_[static_cast<std::size_t>(q)] = end;
    }
  }
}

}  // namespace hpf90d::sim
