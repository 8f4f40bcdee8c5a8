#include "mpi/runtime.hpp"

#include <cerrno>
#include <cstdlib>
#include <numeric>
#include <thread>

#include "mpi/coll_shm.hpp"
#include "mpi/rma.hpp"
#include "mpi/shm_transport.hpp"

namespace hlsmpc::mpi {

namespace {

/// Parse env var `name` as a non-negative integer into `out`; unset or
/// unparsable values leave `out` untouched. Only plain decimal digits
/// parse: strtoull alone would take "-1" as 2^64-1 and saturate an
/// out-of-range number.
void env_size(const char* name, std::size_t& out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v < '0' || *v > '9') return;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (*end != '\0' || errno == ERANGE) return;
  out = static_cast<std::size_t>(parsed);
}

void env_bool(const char* name, bool& out) {
  std::size_t v = out ? 1 : 0;
  env_size(name, v);
  out = v != 0;
}

std::size_t clamp_size(std::size_t v, std::size_t lo, std::size_t hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace

CollConfig coll_config_from_env(CollConfig base) {
  env_bool("HLSMPC_COLL_SHM", base.enable_shm);
  env_size("HLSMPC_COLL_SMALL_THRESHOLD", base.small_threshold);
  base.small_threshold = clamp_size(base.small_threshold, 0, 1u << 20);
  env_size("HLSMPC_COLL_PIPELINE_THRESHOLD", base.pipeline_threshold);
  if (base.pipeline_threshold == 0) {
    // 0 = never pipeline (the documented spelling of SIZE_MAX).
    base.pipeline_threshold = SIZE_MAX;
  }
  // The staged arm wins ties at small_threshold; a pipeline crossover
  // below it would carve out an unreachable selector band.
  if (base.pipeline_threshold < base.small_threshold) {
    base.pipeline_threshold = base.small_threshold;
  }
  env_size("HLSMPC_COLL_FRAGMENT_BYTES", base.fragment_bytes);
  base.fragment_bytes = clamp_size(base.fragment_bytes, 1u << 10, 16u << 20);
  env_bool("HLSMPC_COLL_PIPELINE_YIELD", base.pipeline_yield);
  return base;
}

Runtime::Runtime(const topo::Machine& machine, Options opts,
                 memtrack::Tracker* tracker)
    : machine_(machine), opts_(opts) {
  opts_.coll = coll_config_from_env(opts_.coll);
  obs_ = opts_.obs;
  if (tracker != nullptr) {
    tracker_ = tracker;
  } else {
    owned_tracker_ = std::make_unique<memtrack::Tracker>();
    tracker_ = owned_tracker_.get();
  }
  nranks_ = opts_.nranks > 0 ? opts_.nranks : machine_.num_cpus();
  const int total = opts_.total_ranks > 0 ? opts_.total_ranks : nranks_;
  if (total < nranks_) {
    throw MpiError("Runtime: total_ranks smaller than local nranks");
  }
  buffers_ = std::make_unique<BufferManager>(opts_.buffers, nranks_, total,
                                             *tracker_);
  transport_ = std::make_unique<ShmTransport>(nranks_, *buffers_);
  tracker_->on_alloc(memtrack::Category::runtime_other,
                     static_cast<std::size_t>(nranks_) *
                         opts_.per_task_overhead_bytes);

  std::vector<int> world_group(static_cast<std::size_t>(nranks_));
  std::iota(world_group.begin(), world_group.end(), 0);
  auto world = std::make_unique<Comm>(*this, std::move(world_group),
                                      alloc_context(), alloc_context(),
                                      "world");
  world_ = &register_comm(std::move(world));

  switch (opts_.executor) {
    case ExecutorKind::thread:
      executor_ = std::make_unique<ult::ThreadExecutor>();
      break;
    case ExecutorKind::fiber: {
      int workers = opts_.fiber_workers;
      if (workers <= 0) {
        const int hw =
            static_cast<int>(std::thread::hardware_concurrency());
        workers = std::min(machine_.num_cpus(), std::max(hw, 1));
      }
      auto fe = std::make_unique<ult::FiberExecutor>(workers);
      fe->set_obs(obs_);
      executor_ = std::move(fe);
      break;
    }
  }
}

Runtime::~Runtime() {
  tracker_->on_free(memtrack::Category::runtime_other,
                    static_cast<std::size_t>(nranks_) *
                        opts_.per_task_overhead_bytes);
}

int Runtime::cpu_of_rank(int rank) const {
  if (rank < 0 || rank >= nranks_) {
    throw MpiError("cpu_of_rank: bad rank");
  }
  return rank % machine_.num_cpus();
}

int Runtime::alloc_context() { return next_context_.fetch_add(1); }

Comm& Runtime::register_comm(std::unique_ptr<Comm> comm) {
  std::lock_guard<std::mutex> lk(comms_mu_);
  comms_.push_back(std::move(comm));
  return *comms_.back();
}

void Runtime::reset_collectives() {
  {
    std::lock_guard<std::mutex> lk(comms_mu_);
    for (auto& c : comms_) {
      if (ShmCollEngine* e = c->shm_engine()) e->reset();
    }
  }
  if (auto* shm = dynamic_cast<ShmTransport*>(transport_.get())) {
    shm->drain();
  }
}

rma::Win& Runtime::register_win(std::unique_ptr<rma::Win> win) {
  std::lock_guard<std::mutex> lk(comms_mu_);
  wins_.push_back(std::move(win));
  return *wins_.back();
}

void Runtime::release_win(rma::Win& win) {
  std::lock_guard<std::mutex> lk(comms_mu_);
  for (auto it = wins_.begin(); it != wins_.end(); ++it) {
    if (it->get() == &win) {
      wins_.erase(it);
      return;
    }
  }
}

void Runtime::run(const std::function<void(Comm&, ult::TaskContext&)>& body) {
  std::vector<int> pins(static_cast<std::size_t>(nranks_));
  for (int r = 0; r < nranks_; ++r) {
    pins[static_cast<std::size_t>(r)] = cpu_of_rank(r);
  }
  executor_->run(nranks_, pins,
                 [&](ult::TaskContext& ctx) { body(*world_, ctx); });
}

}  // namespace hlsmpc::mpi
