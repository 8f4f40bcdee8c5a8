#include "hls/storage.hpp"

#include <cstring>
#include <string>

#include "fault/injector.hpp"
#include "obs/recorder.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>

#include "hls/pagecache.hpp"
#include "shm/segment.hpp"

namespace hlsmpc::hls {

StorageManager::StorageManager(const Registry& reg, memtrack::Tracker& tracker,
                               obs::Recorder* obs)
    : reg_(&reg),
      tracker_(&tracker),
      obs_(obs) {
  const topo::DenseScopeTable& t = reg.scopes();
  instances_.resize(static_cast<std::size_t>(t.num_scopes()));
  for (int sid = 0; sid < t.num_scopes(); ++sid) {
    auto& vec = instances_[static_cast<std::size_t>(sid)];
    vec.reserve(static_cast<std::size_t>(t.num_instances(sid)));
    for (int i = 0; i < t.num_instances(sid); ++i) {
      vec.push_back(std::make_unique<InstanceStorage>());
    }
  }
}

StorageManager::~StorageManager() {
  // Spill files are scratch: delete them with the manager (open mappings
  // keep working until the regions are torn down below). file_backed
  // regions keep their files — persistence is their point.
  for (const std::string& p : spill_paths_) ::unlink(p.c_str());
  for (auto& per_scope : instances_) {
    for (auto& inst : per_scope) {
      for (auto& chunk_slot : inst->chunks) {
        Chunk* chunk = chunk_slot.load(std::memory_order_acquire);
        if (chunk == nullptr) continue;
        for (auto& region_slot : chunk->slots) {
          delete region_slot.load(std::memory_order_acquire);
        }
        delete chunk;
      }
    }
  }
}

StorageManager::ModuleRegion& StorageManager::region_slot(InstanceStorage& st,
                                                          int module) {
  if (module < 0 || module >= kChunkSize * kMaxChunks) {
    throw HlsError("StorageManager: module id out of slot-table range");
  }
  auto& chunk_slot = st.chunks[static_cast<std::size_t>(module >> kChunkBits)];
  Chunk* chunk = chunk_slot.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    auto fresh = std::make_unique<Chunk>();
    if (chunk_slot.compare_exchange_strong(chunk, fresh.get(),
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      chunk = fresh.release();
    }
    // CAS loser: `chunk` now holds the winner's pointer; `fresh` frees.
  }
  auto& slot = chunk->slots[static_cast<std::size_t>(module & (kChunkSize - 1))];
  ModuleRegion* region = slot.load(std::memory_order_acquire);
  if (region == nullptr) {
    auto fresh = std::make_unique<ModuleRegion>();
    if (slot.compare_exchange_strong(region, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      region = fresh.release();
    }
  }
  return *region;
}

StorageManager::Resolved StorageManager::materialize(ModuleRegion& region,
                                                     const CanonicalScope& scope,
                                                     int module, int sid,
                                                     int instance,
                                                     ult::TaskContext* ctx,
                                                     bool* did_init,
                                                     const Writer* fill) {
  const Module& m = reg_->module(module);  // throws if not committed
  // Window between losing the fast path and claiming the init lock: the
  // deterministic checker schedules through here so racing first touches
  // are exercised. Must be hook-free of locks (sync_point may suspend).
  if (ctx != nullptr) ctx->sync_point("storage:first-touch");
  std::lock_guard<std::mutex> lk(region.init_mu);
  std::byte* base = region.base.load(std::memory_order_relaxed);
  if (base == nullptr) {
    const std::size_t bytes = m.region_size(scope);
    if (bytes == 0) {
      throw HlsError("get_addr: module '" + m.name +
                     "' has no variables with scope " + to_string(scope));
    }
    // First-touch allocation is the runtime's only demand-driven memory
    // acquisition — the injectable OOM path (recoverable: nothing was
    // published, a later touch may succeed).
    if (fault::should_fail("storage:first_touch")) {
      throw HlsError("get_addr: first-touch allocation of " +
                         std::to_string(bytes) + " bytes for module '" +
                         m.name + "' (scope " + to_string(scope) +
                         ") failed: out of memory",
                     ErrorCode::out_of_memory);
    }
    const auto initialize = [&](std::byte* b) {
      if (fill != nullptr) {
        (*fill)(b);
        return;
      }
      for (const VarInfo& v : m.vars) {
        if (v.canonical == scope && v.init) v.init(b + v.offset);
      }
    };
    bool reopened = false;
    const Tier tier = tier_policy(sid, module);
    if (tier != Tier::anonymous) {
      // File-tier region: the base IS a MAP_SHARED mapping of the backing
      // file — pointer-stable, kernel-paged (out-of-core), and for
      // file_backed persistent under a path derived from the identity.
      std::string path;
      {
        std::lock_guard<std::mutex> tl(tier_mu_);
        if (::mkdir(tier_cfg_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
          throw HlsError("get_addr: cannot create tier directory '" +
                             tier_cfg_.dir + "': " + std::strerror(errno),
                         ErrorCode::segment_create);
        }
        if (tier == Tier::file_spill) {
          path = shm::MappedSegment::unique_path(tier_cfg_.dir,
                                                 tier_cfg_.file_prefix);
          spill_paths_.push_back(path);
        } else {
          path = tier_cfg_.dir + "/" + tier_cfg_.file_prefix + "." +
                 to_token(scope) + ".i" + std::to_string(instance) + ".m" +
                 std::to_string(module);
        }
        if (cache_ == nullptr) {
          cache_ = std::make_unique<PageCache>(tier_cfg_, obs_);
        }
      }
      try {
        region.file = std::make_unique<shm::MappedSegment>(path, bytes);
      } catch (const shm::ShmError& e) {
        throw HlsError("get_addr: file-tier materialization of module '" +
                           m.name + "' failed: " + e.what(),
                       e.code());
      }
      base = static_cast<std::byte*>(region.file->base());
      reopened = tier == Tier::file_backed && region.file->reopened();
      if (!reopened || fill != nullptr) initialize(base);
      region.tier = tier;
      region.cache_rid = cache_->attach(region.file.get(), sid, instance);
      if (obs_ != nullptr) {
        const int task = ctx != nullptr ? ctx->task_id() : -1;
        obs_->count(task, obs::Counter::tier_spills);
        obs::Event e;
        e.kind = obs::EventKind::tier_spill;
        e.sid = static_cast<std::int16_t>(sid);
        e.task = task;
        e.instance = instance;
        e.t0 = e.t1 = obs_->now();
        e.arg = static_cast<std::int64_t>(bytes);
        e.arg2 = reopened ? 1 : 0;
        obs_->record(e);
      }
    } else {
      region.mem =
          memtrack::Buffer(*tracker_, memtrack::Category::hls_shared, bytes);
      base = region.mem.data();
      initialize(base);
    }
    region.bytes = bytes;
    // Publish last: a reader that acquires a non-null base sees the fully
    // initialized (or re-opened) region contents and `bytes`.
    region.base.store(base, std::memory_order_release);
    if (did_init != nullptr) *did_init = true;
  }
  return Resolved{base, region.bytes};
}

StorageManager::Resolved StorageManager::resolve_at(
    const CanonicalScope& scope, int module, int cpu, ult::TaskContext* ctx,
    ModuleRegion** out_region, const Writer* fill, bool* did_init_out) {
  const topo::DenseScopeTable& t = reg_->scopes();
  const int sid = scope_id(t, scope);
  const int inst = t.instance_of(sid, cpu);
  InstanceStorage& st =
      *instances_[static_cast<std::size_t>(sid)][static_cast<std::size_t>(inst)];
  ModuleRegion& region = region_slot(st, module);
  if (out_region != nullptr) *out_region = &region;
  std::byte* base = region.base.load(std::memory_order_acquire);
  if (base != nullptr) return Resolved{base, region.bytes};
  const std::uint64_t obs_t0 = obs_ != nullptr ? obs_->now() : 0;
  bool did_init = false;
  const Resolved r =
      materialize(region, scope, module, sid, inst, ctx, &did_init, fill);
  if (did_init_out != nullptr) *did_init_out = did_init;
  // Only the task that actually initialized the region counts a first
  // touch; racers that waited on init_mu resolved, not materialized.
  if (did_init && obs_ != nullptr) {
    const int task = ctx != nullptr ? ctx->task_id() : -1;
    obs_->count(task, obs::Counter::first_touches);
    obs_->count_scope_bytes(task, sid, r.size);
    obs::Event e;
    e.kind = obs::EventKind::first_touch;
    e.sid = static_cast<std::int16_t>(sid);
    e.task = task;
    e.cpu = cpu;
    e.instance = inst;
    e.t0 = obs_t0;
    e.t1 = obs_->now();
    e.arg = static_cast<std::int64_t>(r.size);
    obs_->record(e);
  }
  return r;
}

StorageManager::Resolved StorageManager::resolve(const CanonicalScope& scope,
                                                 int module, int cpu,
                                                 ult::TaskContext* ctx) {
  return resolve_at(scope, module, cpu, ctx, nullptr);
}

StorageManager::Resolved StorageManager::resolve_accessed(
    const CanonicalScope& scope, int module, std::size_t offset,
    std::size_t size, int cpu, ult::TaskContext* ctx) {
  ModuleRegion* region = nullptr;
  const Resolved r = resolve_at(scope, module, cpu, ctx, &region);
  if (offset > r.size || size > r.size - offset) {
    throw HlsError("get_addr: accessed range [offset, offset + size) beyond "
                   "module region");
  }
  // File-tier regions price every storage-routed access through the page
  // cache (hits/misses by the kernel's residency, read-ahead). The
  // per-task warm path in Runtime::get_addr never reaches here — by
  // design, so warm resolution stays identical to the anonymous tier.
  if (region->cache_rid >= 0) {
    cache_->touch(region->cache_rid, offset, size == 0 ? 1 : size,
                  ctx != nullptr ? ctx->task_id() : -1);
  }
  return r;
}

void* StorageManager::get_addr(const CanonicalScope& scope, int module,
                               std::size_t offset, std::size_t size, int cpu,
                               ult::TaskContext* ctx) {
  return resolve_accessed(scope, module, offset, size, cpu, ctx).base + offset;
}

void StorageManager::for_each_materialized(
    const CanonicalScope& scope,
    const std::function<void(int, int, Resolved)>& fn) const {
  const topo::DenseScopeTable& t = reg_->scopes();
  const int sid = scope_id(t, scope);
  const auto& per_scope = instances_[static_cast<std::size_t>(sid)];
  for (std::size_t inst = 0; inst < per_scope.size(); ++inst) {
    const InstanceStorage& st = *per_scope[inst];
    for (int c = 0; c < kMaxChunks; ++c) {
      const Chunk* chunk =
          st.chunks[static_cast<std::size_t>(c)].load(std::memory_order_acquire);
      if (chunk == nullptr) continue;
      for (int s = 0; s < kChunkSize; ++s) {
        const ModuleRegion* region =
            chunk->slots[static_cast<std::size_t>(s)].load(
                std::memory_order_acquire);
        if (region == nullptr) continue;
        std::byte* base = region->base.load(std::memory_order_acquire);
        if (base == nullptr) continue;
        fn(static_cast<int>(inst), c * kChunkSize + s,
           Resolved{base, region->bytes});
      }
    }
  }
}

void StorageManager::import_region(const CanonicalScope& scope, int instance,
                                   int module, std::size_t offset,
                                   std::size_t bytes, const Writer& write) {
  const topo::DenseScopeTable& t = reg_->scopes();
  const int sid = scope_id(t, scope);
  if (instance < 0 || instance >= t.num_instances(sid)) {
    throw HlsError("import_region: instance " + std::to_string(instance) +
                   " out of range for scope " + to_string(scope) +
                   " — machine layout changed");
  }
  // Checked against the layout before anything materializes.
  const std::size_t size = reg_->module(module).region_size(scope);
  if (offset > size || bytes > size - offset) {
    throw HlsError("import_region: span [" + std::to_string(offset) + ", +" +
                       std::to_string(bytes) + ") exceeds the " +
                       std::to_string(size) + "-byte region of module " +
                       std::to_string(module) + " at scope " +
                       to_string(scope) + " — module layout changed",
                   ErrorCode::corruption);
  }
  // resolve() keys materialization by cpu; any cpu of the instance names
  // the same region.
  int cpu = -1;
  for (int c = 0; c < t.num_cpus(); ++c) {
    if (t.instance_of(sid, c) == instance) {
      cpu = c;
      break;
    }
  }
  if (cpu < 0) {
    throw HlsError("import_region: scope instance contains no cpus");
  }
  ModuleRegion* region = nullptr;
  const Writer* fill = offset == 0 && bytes == size ? &write : nullptr;
  bool materialized = false;
  const Resolved r =
      resolve_at(scope, module, cpu, nullptr, &region, fill, &materialized);
  if (fill == nullptr || !materialized) write(r.base + offset);
}

std::size_t StorageManager::bytes_allocated() const {
  return tracker_->current(memtrack::Category::hls_shared);
}

Tier StorageManager::tier_policy(int sid, int module) const {
  std::lock_guard<std::mutex> lk(tier_mu_);
  const auto mit = module_tier_.find({sid, module});
  if (mit != module_tier_.end()) return mit->second;
  const auto sit = scope_tier_.find(sid);
  return sit != scope_tier_.end() ? sit->second : Tier::anonymous;
}

StorageManager::ModuleRegion* StorageManager::find_region(int sid,
                                                          int instance,
                                                          int module) const {
  if (sid < 0 || sid >= static_cast<int>(instances_.size())) return nullptr;
  const auto& per_scope = instances_[static_cast<std::size_t>(sid)];
  if (instance < 0 || instance >= static_cast<int>(per_scope.size())) {
    return nullptr;
  }
  if (module < 0 || module >= kChunkSize * kMaxChunks) return nullptr;
  const InstanceStorage& st = *per_scope[static_cast<std::size_t>(instance)];
  const Chunk* chunk =
      st.chunks[static_cast<std::size_t>(module >> kChunkBits)].load(
          std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  ModuleRegion* region =
      chunk->slots[static_cast<std::size_t>(module & (kChunkSize - 1))].load(
          std::memory_order_acquire);
  if (region == nullptr ||
      region->base.load(std::memory_order_acquire) == nullptr) {
    return nullptr;
  }
  return region;
}

void StorageManager::set_tier(const CanonicalScope& scope, Tier tier) {
  const int sid = scope_id(reg_->scopes(), scope);
  std::lock_guard<std::mutex> lk(tier_mu_);
  scope_tier_[sid] = tier;
}

void StorageManager::set_module_tier(const CanonicalScope& scope, int module,
                                     Tier tier) {
  const int sid = scope_id(reg_->scopes(), scope);
  std::lock_guard<std::mutex> lk(tier_mu_);
  module_tier_[{sid, module}] = tier;
}

Tier StorageManager::tier_of(const CanonicalScope& scope, int module) const {
  return tier_policy(scope_id(reg_->scopes(), scope), module);
}

void StorageManager::set_tier_config(TierConfig cfg) {
  std::lock_guard<std::mutex> lk(tier_mu_);
  if (cache_ != nullptr) {
    throw HlsError(
        "set_tier_config: a file-tier region already materialized — the "
        "page cache is built from the config at first use");
  }
  tier_cfg_ = std::move(cfg);
}

std::size_t StorageManager::tier_flush(int task) {
  if (cache_ == nullptr) return 0;
  std::size_t total = 0;
  for (const auto& per_scope : instances_) {
    for (const auto& inst : per_scope) {
      for (const auto& chunk_slot : inst->chunks) {
        const Chunk* chunk = chunk_slot.load(std::memory_order_acquire);
        if (chunk == nullptr) continue;
        for (const auto& slot : chunk->slots) {
          const ModuleRegion* region = slot.load(std::memory_order_acquire);
          if (region == nullptr || region->cache_rid < 0) continue;
          total += cache_->writeback(region->cache_rid, task);
        }
      }
    }
  }
  return total;
}

bool StorageManager::tier_scan(const CanonicalScope& scope, int instance,
                               int module, TierScan* out) const {
  const ModuleRegion* region =
      find_region(scope_id(reg_->scopes(), scope), instance, module);
  if (region == nullptr || region->cache_rid < 0) return false;
  *out = cache_->scan(region->cache_rid);
  return true;
}

void StorageManager::tier_rebaseline(const CanonicalScope& scope, int instance,
                                     int module, const TierScan* published) {
  const ModuleRegion* region =
      find_region(scope_id(reg_->scopes(), scope), instance, module);
  if (region == nullptr || region->cache_rid < 0) return;
  cache_->rebaseline(region->cache_rid, published);
}

int StorageManager::copies(const CanonicalScope& scope, int module) const {
  if (module < 0 || module >= kChunkSize * kMaxChunks) return 0;
  const topo::DenseScopeTable& t = reg_->scopes();
  const int sid = scope_id(t, scope);
  int count = 0;
  for (const auto& inst : instances_[static_cast<std::size_t>(sid)]) {
    const Chunk* chunk =
        inst->chunks[static_cast<std::size_t>(module >> kChunkBits)].load(
            std::memory_order_acquire);
    if (chunk == nullptr) continue;
    const ModuleRegion* region =
        chunk->slots[static_cast<std::size_t>(module & (kChunkSize - 1))].load(
            std::memory_order_acquire);
    if (region != nullptr &&
        region->base.load(std::memory_order_acquire) != nullptr) {
      ++count;
    }
  }
  return count;
}

}  // namespace hlsmpc::hls
