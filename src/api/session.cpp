#include "api/session.hpp"

#include <chrono>
#include <exception>
#include <utility>

#include "api/experiment_plan.hpp"
#include "api/sweep.hpp"
#include "support/text.hpp"

namespace hpf90d::api {

namespace {

std::string program_key(std::string_view source,
                        const std::vector<std::string>& overrides,
                        const compiler::CompilerOptions& options) {
  std::string key = support::strfmt("%016llx:%zu:%d:%.17g",
                                    static_cast<unsigned long long>(support::fnv1a64(source)),
                                    source.size(), options.message_vectorization ? 1 : 0,
                                    options.default_mask_probability);
  for (const auto& o : overrides) {
    key += '\x1f';
    key += o;
  }
  return key;
}

std::size_t shard_of(std::string_view key, std::size_t shard_count) {
  return static_cast<std::size_t>(support::fnv1a64(key)) % shard_count;
}

}  // namespace

Session::ProgramHandle Session::compile(std::string_view source,
                                        const compiler::CompilerOptions& options) {
  return compile_cached(source, {}, options);
}

Session::ProgramHandle Session::compile_with_directives(
    std::string_view source, const std::vector<std::string>& overrides,
    const compiler::CompilerOptions& options) {
  return compile_cached(source, overrides, options);
}

Session::ProgramHandle Session::compile_cached(std::string_view source,
                                               const std::vector<std::string>& overrides,
                                               const compiler::CompilerOptions& options) {
  const std::string key = program_key(source, overrides, options);
  ProgramShard& shard = program_shards_[shard_of(key, kShards)];

  // Per-entry once semantics: the placeholder future is inserted under the
  // shard lock and the compiler runs OUTSIDE it — a concurrent compile of
  // the same source waits on the future and then hits (each unique key
  // misses exactly once), while distinct keys that collide into this shard
  // compile in parallel. This mirrors LayoutStore::get_or_build minus the
  // LRU machinery; unlike there, the failure-path erase below needs no
  // owner check because nothing but clear_program_cache() (documented
  // non-racing) can remove a placeholder. If this cache ever gains
  // eviction, fold it into LayoutStore's owner-guarded implementation
  // instead of growing a second copy.
  std::promise<ProgramHandle> promise;
  std::shared_future<ProgramHandle> future;
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      future = it->second;
    } else {
      ++stats_.compile_misses;
      shard.map.emplace(key, promise.get_future().share());
    }
  }
  if (future.valid()) {
    ProgramHandle shared = future.get();  // rethrows a failed build
    // counted only on success, so a failed shared build leaves no spurious
    // hit behind (misses = compilation attempts, hits = served results)
    ++stats_.compile_hits;
    return shared;
  }

  try {
    auto prog = std::make_shared<compiler::CompiledProgram>(
        overrides.empty()
            ? compiler::compile(source, options)
            : compiler::compile_with_directives(source, overrides, options));
    promise.set_value(prog);
    // Write-behind the recipe so a restarted session can warm_start this
    // entry. Spill failures must not fail the compile.
    if (spill_) {
      try {
        spill_->store_program(key, ProgramRecipe{std::string(source), overrides, options});
      } catch (...) {
      }
    }
    return prog;
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.erase(key);  // the next lookup retries the compilation
    }
    promise.set_exception(std::current_exception());
    throw;
  }
}

LayoutStore::LayoutPtr Session::layout_for(const compiler::CompiledProgram& prog,
                                           const front::Bindings& bindings,
                                           const compiler::LayoutOptions& lo) const {
  // Content-addressed key: two structurally identical programs (identical
  // directives, symbols, aliases) share one entry regardless of who owns
  // them, and the entry outlives both (DataLayout is self-contained). The
  // digest streams the fingerprint bytes without building them; the string
  // key is only materialized when the store misses and needs a spill
  // address.
  std::string key;
  return layout_for(prog, bindings, lo, key,
                    compiler::layout_fingerprint_digest(prog, bindings, lo));
}

LayoutStore::LayoutPtr Session::layout_for(const compiler::CompiledProgram& prog,
                                           const front::Bindings& bindings,
                                           const compiler::LayoutOptions& lo,
                                           std::string& key_scratch,
                                           const compiler::LayoutDigest& digest) const {
  // Warm path first: a resident digest resolves without constructing the
  // key/builder std::functions below (whose captures spill to the heap).
  if (LayoutStore::LayoutPtr hit = layout_store_.try_get(digest)) return hit;
  return layout_store_.get_or_build(
      digest,
      [&]() -> const std::string& {
        compiler::layout_fingerprint_into(key_scratch, prog, bindings, lo);
        return key_scratch;
      },
      [&] { return compiler::make_layout(prog, bindings, lo); });
}

std::shared_ptr<const compiler::SeededValues> Session::seed_for(
    const compiler::CompiledProgram& prog, const compiler::LayoutDigestState& prefix,
    const front::Bindings& bindings) const {
  // The prefix digest covers the binding values and the program structure;
  // compile_id is folded in as well so hand-built programs with an empty
  // structure fingerprint still get distinct entries.
  const std::pair<std::uint64_t, std::uint64_t> key{
      prefix.a ^ (prog.compile_id * 0x9e3779b97f4a7c15ULL), prefix.b};
  {
    const std::lock_guard<std::mutex> lock(seed_mutex_);
    if (const auto it = seed_memo_.find(key); it != seed_memo_.end()) return it->second;
  }
  auto seeds = std::make_shared<const compiler::SeededValues>(
      compiler::seed_values(prog.symbols, bindings));
  const std::lock_guard<std::mutex> lock(seed_mutex_);
  // Keep the first published entry on a race — callers may already hold it.
  return seed_memo_.try_emplace(key, std::move(seeds)).first->second;
}

CacheStats Session::cache_stats() const noexcept {
  const LayoutStore::Counters layouts = layout_store_.counters();
  return {stats_.compile_hits.load(), stats_.compile_misses.load(), layouts.hits,
          layouts.misses, layouts.evictions, layouts.spill_hits,
          layout_store_.capacity()};
}

core::PredictionResult Session::predict(const ProgramHandle& prog,
                                        const RunConfig& config) {
  return predict(*prog, config);
}

sim::MeasuredResult Session::measure(const ProgramHandle& prog, const RunConfig& config) {
  return measure(*prog, config);
}

Comparison Session::compare(const ProgramHandle& prog, const RunConfig& config) {
  return compare(*prog, config);
}

core::PredictionResult Session::predict(const compiler::CompiledProgram& prog,
                                        const RunConfig& config) const {
  core::require_critical_complete(prog, config.bindings);
  const LayoutStore::LayoutPtr layout =
      layout_for(prog, config.bindings, layout_options(config));
  // core::predict's layout overload re-validates critical variables; call
  // the engine directly so the (potentially expensive) analysis runs once.
  core::InterpretationEngine engine(prog, *layout, machine(config.machine),
                                    config.predict, config.bindings);
  return engine.interpret();
}

sim::MeasuredResult Session::measure(const compiler::CompiledProgram& prog,
                                     const RunConfig& config) const {
  core::require_critical_complete(prog, config.bindings);
  const LayoutStore::LayoutPtr layout =
      layout_for(prog, config.bindings, layout_options(config));
  const sim::Simulator simulator(machine(config.machine));
  return simulator.measure(prog, config.bindings, *layout, config.sim, config.runs);
}

Comparison Session::compare(const compiler::CompiledProgram& prog,
                            const RunConfig& config) const {
  Comparison out;
  out.estimated = predict(prog, config).total;
  const sim::MeasuredResult measured = measure(prog, config);
  out.measured_mean = measured.stats.mean;
  out.measured_min = measured.stats.min;
  out.measured_max = measured.stats.max;
  out.measured_stddev = measured.stats.stddev;
  return out;
}

void Session::set_trace_sink(obs::Sink* sink) {
  obs_ = sink;
  layout_store_.set_trace(sink);
}

bool Session::check_critical(const compiler::CompiledProgram& prog,
                             const front::Bindings& bindings) const {
  // The analysis reads only which names are bound, never their values.
  std::string key = std::to_string(prog.compile_id);
  for (const auto& [name, value] : bindings.values()) {
    key += '\x1f';
    key += name;
  }
  {
    const std::lock_guard<std::mutex> lock(critical_mutex_);
    const auto it = critical_memo_.find(key);
    if (it != critical_memo_.end()) {
      if (it->second.empty()) return false;
      throw support::CompileError(it->second);
    }
  }
  try {
    core::require_critical_complete(prog, bindings);
  } catch (const support::CompileError& e) {
    const std::lock_guard<std::mutex> lock(critical_mutex_);
    critical_memo_.emplace(std::move(key), e.what());
    throw;
  }
  const std::lock_guard<std::mutex> lock(critical_mutex_);
  critical_memo_.emplace(std::move(key), std::string());
  return true;
}

RunReport Session::run(const ExperimentPlan& plan, const RunOptions& options) {
  plan.validate();
  // Run-scoped spans go to the per-run sink when one is set, else to the
  // session sink. The layout store keeps the session sink either way: its
  // set_trace is not safe against concurrent runs, and runs may overlap.
  obs::Sink* const trace = options.trace != nullptr ? options.trace : obs_;
  const auto t0 = std::chrono::steady_clock::now();
  const CacheStats before = cache_stats();
  // After the snapshot: evictions triggered by installing this run's
  // capacity belong to this run's reported cache stats.
  if (options.layout_cache_capacity) {
    set_layout_cache_capacity(*options.layout_cache_capacity);
  }

  RunReport report;
  report.title = plan.title();
  const sweep::Lowered lowered = sweep::lower(*this, plan, trace);
  const sweep::Schedule schedule = sweep::schedule(*this, plan, trace);
  report.records.resize(schedule.points.size());

  // RunRecord reads only totals and phase sums, never the per-AAU /
  // per-processor tables, so the sweep predicts lean (identical phase
  // arithmetic, no table copies) — except under tracing, which needs the
  // full result.
  core::PredictOptions predict = plan.predict_opts();
  predict.detailed = predict.trace;
  const std::size_t lane_width =
      options.batch_size > 1 ? static_cast<std::size_t>(options.batch_size) : 1;
  const sweep::Sweep sweep{*this,   plan,       lowered.programs, schedule,
                           predict, lane_width, trace,            report.records};
  const BatchStats batch = sweep::execute(sweep, options.workers);

  const CacheStats cache = cache_stats() - before;
  sweep::publish(report, batch, cache,
                 std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count(),
                 schedule.points.size(), options.metrics);
  return report;
}

void Session::set_artifact_spill(std::shared_ptr<ArtifactSpill> spill) {
  spill_ = std::move(spill);
  if (spill_) {
    // The store probes/writes through the interface; a corrupt or missing
    // artifact degrades to a plain miss.
    LayoutStore::Spill hooks;
    hooks.load = [spill = spill_](const std::string& key) -> LayoutStore::LayoutPtr {
      try {
        if (auto layout = spill->load_layout(key)) {
          return std::make_shared<const compiler::DataLayout>(*std::move(layout));
        }
      } catch (...) {
      }
      return nullptr;
    };
    hooks.store = [spill = spill_](const std::string& key,
                                   const compiler::DataLayout& layout) {
      try {
        spill->store_layout(key, layout);
      } catch (...) {
      }
    };
    layout_store_.set_spill(std::move(hooks));
  } else {
    layout_store_.set_spill({});
  }
}

std::size_t Session::warm_start() {
  if (!spill_) return 0;
  std::size_t warmed = 0;
  for (const ProgramRecipe& recipe : spill_->load_programs()) {
    try {
      (void)compile_cached(recipe.source, recipe.overrides, recipe.options);
      ++warmed;
    } catch (...) {
      // stale recipe (e.g. from an older grammar); warm what still compiles
    }
  }
  return warmed;
}

std::size_t Session::cached_programs() const {
  std::size_t n = 0;
  for (auto& shard : program_shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    n += shard.map.size();
  }
  return n;
}

std::size_t Session::cached_layouts() const { return layout_store_.size(); }

void Session::clear_caches() {
  clear_program_cache();
  layout_store_.clear();
  {
    const std::lock_guard<std::mutex> lock(critical_mutex_);
    critical_memo_.clear();
  }
  {
    const std::lock_guard<std::mutex> lock(seed_mutex_);
    seed_memo_.clear();
  }
}

void Session::clear_program_cache() {
  for (auto& shard : program_shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
}

}  // namespace hpf90d::api
