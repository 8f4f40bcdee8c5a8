#include "hls/runtime.hpp"

#include <algorithm>

#include "hls/checkpoint.hpp"

namespace hlsmpc::hls {

ScopeSet::ScopeSet(const Runtime& rt, std::initializer_list<VarHandle> vars) {
  if (vars.size() == 0) {
    throw HlsError("ScopeSet: empty variable list");
  }
  const topo::ScopeMap& sm = rt.scope_map();
  auto spec = [](const CanonicalScope& c) {
    return topo::ScopeSpec{c.kind, c.cache_level};
  };
  const CanonicalScope first = vars.begin()->scope;
  CanonicalScope widest = first;
  bool same = true;
  for (const VarHandle& h : vars) {
    if (!h.valid()) throw HlsError("ScopeSet: invalid variable handle");
    if (!(h.scope == first)) same = false;
    if (sm.wider_or_equal(spec(h.scope), spec(widest))) widest = h.scope;
  }
  common_ = first;
  widest_ = widest;
  single_scoped_ = same;
  valid_ = true;
}

const CanonicalScope& ScopeSet::common() const {
  if (!valid_) throw HlsError("ScopeSet: unresolved (default-constructed)");
  if (!single_scoped_) {
    throw HlsError(
        "single: variables with different HLS scopes in one directive — "
        "the compiler rejects this (paper §II.B.2)");
  }
  return common_;
}

const CanonicalScope& ScopeSet::widest() const {
  if (!valid_) throw HlsError("ScopeSet: unresolved (default-constructed)");
  return widest_;
}

Runtime::Runtime(const topo::Machine& machine, int ntasks)
    : Runtime(machine, ntasks, Options()) {}

Runtime::Runtime(const topo::Machine& machine, int ntasks, Options opts)
    : machine_(machine),
      sm_(machine_),
      owned_tracker_(opts.tracker == nullptr
                         ? std::make_unique<memtrack::Tracker>()
                         : nullptr),
      tracker_(opts.tracker != nullptr ? opts.tracker : owned_tracker_.get()),
      reg_(sm_),
      owned_obs_(opts.obs == nullptr
                     ? std::make_unique<obs::Recorder>(obs::RecorderOptions{
                           .ntasks = std::max(ntasks, 1),
                           .num_scopes = reg_.scopes().num_scopes(),
                           .ring_capacity = opts.obs_ring_capacity})
                     : nullptr),
      obs_(opts.obs != nullptr ? opts.obs : owned_obs_.get()),
      storage_(reg_, *tracker_, obs_),
      sync_(sm_, ntasks, obs_),
      ntasks_(ntasks),
      num_scopes_(reg_.scopes().num_scopes()),
      caches_(static_cast<std::size_t>(std::max(ntasks, 1))),
      ncaches_(static_cast<int>(caches_.size())) {
  storage_.set_tier_config(opts.tier);
  if (opts.watchdog_ms != 0) sync_.set_watchdog_ms(opts.watchdog_ms);
  if (opts.obs_sink != nullptr) obs_->chain(opts.obs_sink);
  for (std::size_t t = 0; t < caches_.size(); ++t) {
    if (std::atomic<std::uint64_t>* cell = obs_->counter_cell(
            static_cast<int>(t), obs::Counter::get_addr_warm)) {
      caches_[t].warm_hits = cell;
    }
  }
}

void Runtime::invalidate_cache(int task) {
  if (task < 0 || task >= static_cast<int>(caches_.size())) return;
  caches_[static_cast<std::size_t>(task)].cpu = -1;
  caches_[static_cast<std::size_t>(task)].entries.clear();
}

void Runtime::bind_task(const ult::TaskContext& ctx) {
  sync_.set_task_cpu(ctx.task_id(), ctx.cpu());
  const int task = ctx.task_id();
  if (task >= 0 && task < static_cast<int>(caches_.size())) {
    TaskCache& c = caches_[static_cast<std::size_t>(task)];
    if (c.cpu != ctx.cpu()) {
      // Re-bound on a different cpu (e.g. external re-pinning): the cached
      // instance pointers belong to the old cpu's instances. Drop them.
      c.entries.clear();
      c.cpu = ctx.cpu();
    }
  }
}

void Runtime::throw_invalid_handle() {
  throw HlsError("get_addr: invalid variable handle");
}

void Runtime::throw_range_error() {
  throw HlsError(
      "get_addr: accessed range [offset, offset + size) beyond module "
      "region");
}

void* Runtime::get_addr_cold(const VarHandle& h, ult::TaskContext& ctx,
                             std::size_t idx) {
  // Cold (or post-move) path: resolve through storage — which validates
  // the accessed range and prices file-tier regions through the page
  // cache, so a task's first touch triggers read-ahead that serves its
  // co-resident tasks — then fill the cache for this cpu.
  const StorageManager::Resolved r = storage_.resolve_accessed(
      h.scope, h.module, h.offset, h.size, ctx.cpu(), &ctx);
  const int task = ctx.task_id();
  if (static_cast<unsigned>(task) < static_cast<unsigned>(ncaches_)) {
    TaskCache& cache = caches_[static_cast<std::size_t>(task)];
    if (cache.cpu != ctx.cpu()) {
      cache.entries.clear();
      cache.cpu = ctx.cpu();
    }
    if (idx >= cache.entries.size()) cache.entries.resize(idx + 1);
    cache.entries[idx] = CacheEntry{r.base, r.size};
  }
  obs_->count(task, obs::Counter::get_addr_cold);
  return r.base + h.offset;
}

VarHandle Runtime::rma_backing(const std::string& name, std::size_t bytes,
                               const topo::ScopeSpec& scope) {
  if (bytes == 0) {
    throw HlsError("rma_backing: window region must be non-empty");
  }
  // A window's backing is an ordinary HLS module registered after the
  // initial commit wave (the registry supports late modules); storage
  // materializes lazily on each instance's first get_addr like any other
  // scope variable.
  ModuleBuilder mb(reg_, "rma:" + name);
  VarHandle h =
      mb.add_raw(name, scope, bytes, alignof(std::max_align_t), VarInitFn{});
  mb.commit();
  return h;
}

std::uint64_t Runtime::checkpoint(CheckpointStore& store,
                                  const topo::ScopeSpec& scope) {
  const CanonicalScope c = canonicalize(sm_, scope);
  const CheckpointStore::Report rep = store.save(storage_, reg_, c);
  obs_->count(0, obs::Counter::ckpt_bytes, rep.payload_bytes);
  return rep.version;
}

std::uint64_t Runtime::checkpoint_incremental(CheckpointStore& store,
                                              const topo::ScopeSpec& scope) {
  const CanonicalScope c = canonicalize(sm_, scope);
  const CheckpointStore::Report rep = store.save_incremental(storage_, reg_, c);
  obs_->count(0, obs::Counter::ckpt_bytes, rep.payload_bytes);
  return rep.version;
}

std::uint64_t Runtime::restore(CheckpointStore& store,
                               const topo::ScopeSpec& scope) {
  const CanonicalScope c = canonicalize(sm_, scope);
  const CheckpointStore::Report rep = store.restore(storage_, reg_, c);
  obs_->count(0, obs::Counter::ckpt_bytes, rep.payload_bytes);
  return rep.version;
}

CanonicalScope Runtime::widest_scope(
    std::initializer_list<VarHandle> vars) const {
  if (vars.size() == 0) {
    throw HlsError("barrier: empty variable list");
  }
  CanonicalScope widest = vars.begin()->scope;
  auto spec = [](const CanonicalScope& c) {
    return topo::ScopeSpec{c.kind, c.cache_level};
  };
  for (const VarHandle& h : vars) {
    if (!h.valid()) throw HlsError("barrier: invalid variable handle");
    if (sm_.wider_or_equal(spec(h.scope), spec(widest))) widest = h.scope;
  }
  return widest;
}

void Runtime::barrier_scope(const CanonicalScope& s, ult::TaskContext& ctx) {
  sync_.barrier(s, ctx);
}

bool Runtime::single_enter_scope(const CanonicalScope& s,
                                 ult::TaskContext& ctx) {
  return sync_.single_enter(s, ctx);
}

void Runtime::single_done_scope(const CanonicalScope& s,
                                ult::TaskContext& ctx) {
  sync_.single_done(s, ctx);
}

bool Runtime::single_nowait_scope(const CanonicalScope& s,
                                  ult::TaskContext& ctx) {
  return sync_.single_nowait(s, ctx);
}

void Runtime::migrate(ult::TaskContext& ctx, int new_cpu) {
  if (new_cpu < 0 || new_cpu >= machine_.num_cpus()) {
    throw HlsError("migrate: bad cpu");
  }
  ctx.sync_point("migrate:enter");
  const std::uint64_t mig_t0 = obs_->now();
  auto obs_migration = [&](bool ok) {
    obs_->count(ctx.task_id(), ok ? obs::Counter::migrations_ok
                                  : obs::Counter::migrations_rejected);
    obs::Event e;
    e.kind = obs::EventKind::migration;
    e.flag = ok;
    e.task = ctx.task_id();
    e.cpu = ctx.cpu();
    e.t0 = mig_t0;
    e.t1 = obs_->now();
    e.arg = new_cpu;
    obs_->record(e);
  };
  auto reject = [&](const std::string& why) {
    obs_migration(/*ok=*/false);
    sync_.report_migration(ctx, new_cpu, /*ok=*/false);
    // Rejection is not an error in the runtime's state: the task keeps
    // running where it is and may retry after the next episode.
    throw HlsError(why, ErrorCode::not_eligible);
  };
  // A task inside a single block holds the instance's exclusivity; its
  // episode counters are mid-update, so MPC_Move is never legal here.
  if (sync_.in_single(ctx.task_id())) {
    reject("migrate: task is inside a single block");
  }
  // Paper §IV.A: a task may only move if it has encountered the same
  // number of single and barrier directives as the destination.
  auto check_scope = [&](const CanonicalScope& s) {
    const auto task_count = sync_.task_sync_count(ctx.task_id(), s);
    const auto dest_count = sync_.instance_sync_count(s, new_cpu);
    if (task_count != dest_count) {
      reject("migrate: task saw " + std::to_string(task_count) +
             " episodes for " + to_string(s) + " but destination saw " +
             std::to_string(dest_count));
    }
  };
  for (const topo::ScopeKind kind :
       {topo::ScopeKind::node, topo::ScopeKind::numa, topo::ScopeKind::cache,
        topo::ScopeKind::core}) {
    if (kind == topo::ScopeKind::cache) {
      for (int level = 1; level <= machine_.num_cache_levels(); ++level) {
        check_scope(CanonicalScope{kind, level});
      }
    } else {
      // numa has two possible canonical levels (domain / socket).
      const int max_level = kind == topo::ScopeKind::numa &&
                                    machine_.desc().numa_per_socket > 1
                                ? 2
                                : 0;
      for (int level = 0; level <= max_level; level += 2) {
        check_scope(CanonicalScope{kind, level});
      }
    }
  }
  ctx.set_cpu(new_cpu);
  sync_.set_task_cpu(ctx.task_id(), new_cpu);
  // The move changed which scope instances contain the task; every cached
  // instance pointer may now be wrong. Drop them all (the next get_addr
  // refills for the new cpu).
  invalidate_cache(ctx.task_id());
  obs_migration(/*ok=*/true);
  sync_.report_migration(ctx, new_cpu, /*ok=*/true);
}

}  // namespace hlsmpc::hls
