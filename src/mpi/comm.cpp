#include "mpi/comm.hpp"

#include <algorithm>
#include <map>

#include "mpi/coll_shm.hpp"
#include "mpi/rma.hpp"
#include "mpi/runtime.hpp"

namespace hlsmpc::mpi {

Comm::Comm(Runtime& rt, std::vector<int> group, int pt2pt_context,
           int coll_context, std::string name)
    : rt_(&rt),
      group_(std::move(group)),
      pt2pt_context_(pt2pt_context),
      coll_context_(coll_context),
      name_(std::move(name)),
      coll_seq_(group_.size(), 0) {
  if (group_.empty()) throw MpiError("Comm: empty group");
  rank_of_task_.assign(static_cast<std::size_t>(rt.nranks()), -1);
  for (std::size_t r = 0; r < group_.size(); ++r) {
    const int task = group_[r];
    if (task < 0 || task >= rt.nranks()) {
      throw MpiError("Comm: group member outside the runtime");
    }
    if (rank_of_task_[static_cast<std::size_t>(task)] != -1) {
      throw MpiError("Comm: duplicate task in group");
    }
    rank_of_task_[static_cast<std::size_t>(task)] = static_cast<int>(r);
  }
  // The engine attaches here so split/dup-created communicators get one
  // automatically. Its leader tree follows where this comm's members are
  // actually pinned, not their rank numbers.
  if (rt.coll_config().enable_shm && size() > 1) {
    std::vector<int> cpus(group_.size());
    for (std::size_t r = 0; r < group_.size(); ++r) {
      cpus[r] = rt.cpu_of_rank(group_[r]);
    }
    shm_ = std::make_unique<ShmCollEngine>(rt.machine(), std::move(cpus),
                                           rt.coll_config(), &rt.stats());
  }
}

Comm::~Comm() = default;

int Comm::rank(const ult::TaskContext& ctx) const {
  const int task = ctx.task_id();
  if (task < 0 || task >= static_cast<int>(rank_of_task_.size()) ||
      rank_of_task_[static_cast<std::size_t>(task)] == -1) {
    throw MpiError("Comm::rank: calling task is not a member of '" + name_ +
                   "'");
  }
  return rank_of_task_[static_cast<std::size_t>(task)];
}

bool Comm::contains(int task_id) const {
  return task_id >= 0 && task_id < static_cast<int>(rank_of_task_.size()) &&
         rank_of_task_[static_cast<std::size_t>(task_id)] != -1;
}

int Comm::global_task(int rank) const {
  return group_[static_cast<std::size_t>(rank)];
}

void Comm::check_rank(int r, const char* what) const {
  if (r < 0 || r >= size()) {
    throw MpiError(std::string(what) + ": rank " + std::to_string(r) +
                   " out of range for '" + name_ + "' of size " +
                   std::to_string(size()));
  }
}

void Comm::check_tag(int tag) const {
  if (tag < 0 || tag > kMaxUserTag) {
    throw MpiError("invalid tag " + std::to_string(tag));
  }
}

int Comm::next_coll_tag(int rank) {
  // All ranks issue the same sequence of collectives on a communicator
  // (MPI ordering rule), so these per-rank counters stay in agreement and
  // yield one fresh tag per collective operation.
  const std::uint32_t seq = coll_seq_[static_cast<std::size_t>(rank)]++;
  return static_cast<int>(seq % (1u << 20));
}

Comm& Comm::split(ult::TaskContext& ctx, int color, int key) {
  if (color < 0) throw MpiError("Comm::split: color must be >= 0");
  const int me = rank(ctx);
  const int n = size();

  // Gather everyone's (color, key) — identical information on all ranks.
  struct ColorKey {
    int color, key;
  };
  const ColorKey mine{color, key};
  std::vector<ColorKey> all(static_cast<std::size_t>(n));
  allgather(ctx, &mine, sizeof(ColorKey), all.data());

  // Tasks share the address space, so rank 0 can build the new Comm
  // objects once and publish each rank's pointer through a bcast — the
  // thread-based equivalent of agreeing on a context id.
  std::vector<Comm*> comm_of_rank(static_cast<std::size_t>(n), nullptr);
  if (me == 0) {
    std::map<int, std::vector<std::pair<int, int>>> by_color;  // key, old rank
    for (int r = 0; r < n; ++r) {
      const ColorKey& ck = all[static_cast<std::size_t>(r)];
      by_color[ck.color].push_back({ck.key, r});
    }
    for (auto& [c, members] : by_color) {
      std::sort(members.begin(), members.end());
      std::vector<int> group;
      group.reserve(members.size());
      for (const auto& [k, old_rank] : members) {
        group.push_back(global_task(old_rank));
      }
      auto child = std::make_unique<Comm>(
          *rt_, std::move(group), rt_->alloc_context(), rt_->alloc_context(),
          name_ + "/split(" + std::to_string(c) + ")");
      Comm& ref = rt_->register_comm(std::move(child));
      for (const auto& [k, old_rank] : members) {
        comm_of_rank[static_cast<std::size_t>(old_rank)] = &ref;
      }
    }
  }
  bcast(ctx, comm_of_rank.data(), comm_of_rank.size() * sizeof(Comm*), 0);
  return *comm_of_rank[static_cast<std::size_t>(me)];
}

Comm& Comm::dup(ult::TaskContext& ctx) { return split(ctx, 0, rank(ctx)); }

rma::Win& Comm::win_create(ult::TaskContext& ctx, void* base,
                           std::size_t bytes, const rma::WinOptions& opts) {
  const int me = rank(ctx);
  const int n = size();

  // Gather every rank's exposed region — identical vectors on all ranks.
  const rma::MemRegion mine{base, bytes};
  std::vector<rma::MemRegion> regions(static_cast<std::size_t>(n));
  allgather(ctx, &mine, sizeof(rma::MemRegion), regions.data());

  // Same publication scheme as split(): one address space, so rank 0
  // builds the shared Win once and bcasts the pointer.
  rma::Win* win = nullptr;
  if (me == 0) {
    rma::WinOptions o = opts;
    if (o.obs == nullptr) o.obs = rt_->obs();
    win = &rt_->register_win(
        std::make_unique<rma::Win>(std::move(regions), std::move(o)));
  }
  bcast(ctx, &win, sizeof(win), 0);
  return *win;
}

rma::Win& Comm::win_create(ult::TaskContext& ctx, void* base,
                           std::size_t bytes) {
  return win_create(ctx, base, bytes, rma::WinOptions{});
}

void Comm::win_free(ult::TaskContext& ctx, rma::Win& win) {
  const int me = rank(ctx);
  // Quiesce: order every outstanding access before destruction.
  win.fence(ctx, me);
  // A rank can exit its fence while a peer is still polling the epoch
  // words, so destruction must wait for every rank to leave the window
  // entirely — that is what this comm barrier adds over the fence.
  barrier(ctx);
  if (me == 0) rt_->release_win(win);
}

}  // namespace hlsmpc::mpi
