#include "mpi/coll_shm.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_set>

#include "topo/scope_map.hpp"

namespace hlsmpc::mpi {

ShmCollEngine::ShmCollEngine(const topo::Machine& machine,
                             std::vector<int> rank_cpus, CollConfig cfg,
                             TransportStats* stats)
    : n_(static_cast<int>(rank_cpus.size())),
      cfg_(cfg),
      stats_(stats),
      slots_(rank_cpus.size()),
      priv_(rank_cpus.size()) {
  if (n_ < 2) {
    throw MpiError("ShmCollEngine: communicator needs >= 2 ranks");
  }
  for (int cpu : rank_cpus) {
    if (cpu < 0 || cpu >= machine.num_cpus()) {
      throw MpiError("ShmCollEngine: rank pinned outside the machine");
    }
  }
  if (cfg_.fragment_bytes == 0) cfg_.fragment_bytes = 1;
  Level flat;
  auto everyone = std::make_unique<Group>();
  everyone->members.resize(static_cast<std::size_t>(n_));
  std::iota(everyone->members.begin(), everyone->members.end(), 0);
  flat.groups.push_back(std::move(everyone));
  flat.group_of.assign(static_cast<std::size_t>(n_), 0);
  flat_.push_back(std::move(flat));
  hier_ = build_hier(machine, rank_cpus);
}

ShmCollEngine::Plan ShmCollEngine::build_hier(
    const topo::Machine& machine, const std::vector<int>& rank_cpus) const {
  const topo::DenseScopeTable scopes(machine);
  Plan plan;
  // Active ranks (ascending) still synchronizing at the current level, and
  // each rank's current representative: the leader whose ascent stands in
  // for it. group_of at every level is containment by this leader chain.
  std::vector<int> active(static_cast<std::size_t>(n_));
  std::iota(active.begin(), active.end(), 0);
  std::vector<int> lead(static_cast<std::size_t>(n_));
  std::iota(lead.begin(), lead.end(), 0);

  for (int sid : scopes.widening_chain()) {
    if (active.size() == 1) break;
    // Partition the active ranks by scope instance. The reduction folds
    // in ascending rank order, so a group must be a consecutive run of
    // active ranks — an instance that reappears after its run closed
    // (wrapped pinning) disqualifies the whole level.
    std::vector<std::vector<int>> cells;
    std::unordered_set<int> closed;
    int prev_inst = -1;
    bool contiguous = true;
    for (int r : active) {
      const int inst =
          scopes.instance_of(sid, rank_cpus[static_cast<std::size_t>(r)]);
      if (!cells.empty() && inst == prev_inst) {
        cells.back().push_back(r);
        continue;
      }
      if (closed.count(inst) != 0) {
        contiguous = false;
        break;
      }
      if (prev_inst != -1) closed.insert(prev_inst);
      cells.push_back({r});
      prev_inst = inst;
    }
    if (!contiguous) continue;
    if (cells.size() == active.size()) continue;  // nothing merged here

    Level lv;
    lv.group_of.assign(static_cast<std::size_t>(n_), -1);
    std::vector<int> cell_of_active(static_cast<std::size_t>(n_), -1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      for (int r : cells[i]) {
        cell_of_active[static_cast<std::size_t>(r)] = static_cast<int>(i);
      }
      auto g = std::make_unique<Group>();
      g->members = cells[i];
      lv.groups.push_back(std::move(g));
    }
    std::vector<int> next_active;
    next_active.reserve(cells.size());
    for (const auto& cell : cells) next_active.push_back(cell.front());
    for (int r = 0; r < n_; ++r) {
      const int cell =
          cell_of_active[static_cast<std::size_t>(lead[static_cast<std::size_t>(r)])];
      lv.group_of[static_cast<std::size_t>(r)] = cell;
      lead[static_cast<std::size_t>(r)] = cells[static_cast<std::size_t>(cell)].front();
    }
    plan.push_back(std::move(lv));
    active = std::move(next_active);
  }

  if (plan.empty() || active.size() > 1) {
    // Defensive catch-all (the node scope always merges, so this is only
    // reachable if the chain itself degenerates): one top group of the
    // remaining representatives.
    Level lv;
    auto g = std::make_unique<Group>();
    g->members = active;
    lv.groups.push_back(std::move(g));
    lv.group_of.assign(static_cast<std::size_t>(n_), 0);
    plan.push_back(std::move(lv));
  }
  return plan;
}

std::vector<std::vector<int>> ShmCollEngine::level_groups(int level) const {
  const Level& lv = hier_.at(static_cast<std::size_t>(level));
  std::vector<std::vector<int>> out;
  out.reserve(lv.groups.size());
  for (const auto& g : lv.groups) out.push_back(g->members);
  return out;
}

ShmCollEngine::FragGeom ShmCollEngine::frag_geom(std::size_t count,
                                                 std::size_t elem_bytes) const {
  FragGeom g;
  if (count == 0) return g;
  std::size_t fe =
      elem_bytes != 0 ? cfg_.fragment_bytes / elem_bytes : cfg_.fragment_bytes;
  if (fe == 0) fe = 1;  // one oversized element per fragment
  if (fe > count) fe = count;
  g.frag_elems = fe;
  g.nfrags = static_cast<std::uint32_t>((count + fe - 1) / fe);
  return g;
}

void ShmCollEngine::invalidate_registrations() {
  for (Priv& p : priv_) {
    for (Registration& r : p.reg) r = Registration{};
    p.reg_stamp = 0;
    p.reg_cpu = -1;
  }
}

void ShmCollEngine::reset() {
  // Quiescent callers only: every rank's publication/consumption of the
  // previous collective has completed (ClusterComm::shrink brackets this
  // with local barriers, which also order these plain writes against the
  // ranks' later accesses).
  for (Slot& s : slots_) {
    s.seq.store(0, std::memory_order_relaxed);
    s.ptr.store(nullptr, std::memory_order_relaxed);
    s.acc_seq.store(0, std::memory_order_relaxed);
    s.acc_ptr.store(nullptr, std::memory_order_relaxed);
    s.acks.store(0, std::memory_order_relaxed);
    s.frag.store(0, std::memory_order_relaxed);
    s.acc_frag.store(0, std::memory_order_relaxed);
  }
  for (Priv& p : priv_) {
    p.seq = 0;
    p.acks_expected = 0;
    p.frag_base = 0;
  }
  invalidate_registrations();
}

ShmCollEngine::Registration& ShmCollEngine::resolve_registration(
    ult::TaskContext& ctx, int me, const void* addr, std::size_t count,
    std::size_t elem_bytes) {
  Priv& p = priv_[static_cast<std::size_t>(me)];
  if (p.reg_cpu != ctx.cpu()) {
    // First lookup, or the rank migrated since these entries were
    // resolved: the attach blocks are warm in another CPU's cache domain,
    // so flush the whole set — the invalidate-on-migrate discipline of
    // the per-task address cache.
    for (Registration& r : p.reg) r = Registration{};
    p.reg_cpu = ctx.cpu();
  }
  Registration* victim = &p.reg[0];
  for (Registration& r : p.reg) {
    if (r.stamp != 0 && r.addr == addr && r.count == count &&
        r.elem_bytes == elem_bytes) {
      r.stamp = ++p.reg_stamp;
      if (stats_ != nullptr) {
        stats_->reg_cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return r;
    }
    if (r.stamp < victim->stamp) victim = &r;
  }
  if (stats_ != nullptr) {
    stats_->reg_cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  // Evict the least-recently-used way but keep its block's capacity: the
  // storage is what the cache exists to keep stable.
  victim->addr = addr;
  victim->count = count;
  victim->elem_bytes = elem_bytes;
  victim->geom = frag_geom(count, elem_bytes);
  victim->stamp = ++p.reg_stamp;
  return *victim;
}

std::byte* ShmCollEngine::reg_block(Registration& reg, std::size_t bytes) {
  if (reg.block.size() < bytes) reg.block.resize(bytes);
  return reg.block.data();
}

std::uint64_t ShmCollEngine::begin(int me) {
  if (stats_ != nullptr) {
    stats_->shm_collectives.fetch_add(1, std::memory_order_relaxed);
  }
  // Every rank bumps on every collective (MPI's matched-call ordering
  // rule), so the private counter IS the publication sequence number every
  // peer expects — no shared counter, no negotiation.
  return ++priv_[static_cast<std::size_t>(me)].seq;
}

ShmCollEngine::FragGeom ShmCollEngine::begin_pipelined(
    std::size_t count, std::size_t elem_bytes) {
  if (stats_ != nullptr) {
    stats_->shm_pipelined_collectives.fetch_add(1, std::memory_order_relaxed);
  }
  return frag_geom(count, elem_bytes);
}

void ShmCollEngine::wait_seq(const std::atomic<std::uint64_t>& w,
                             std::uint64_t seq, ult::TaskContext& ctx) const {
  if (w.load(std::memory_order_acquire) >= seq) return;
  // Spin/yield only, never std::atomic::wait: publishers deliberately do
  // not notify (a futex wake per publication would dwarf the copy for
  // small payloads), so parking here could sleep forever.
  ult::Backoff backoff(ctx);
  while (w.load(std::memory_order_acquire) < seq) backoff.pause();
}

void ShmCollEngine::copy_bytes(void* dst, const void* src, std::size_t bytes) {
  if (dst == src) {
    if (stats_ != nullptr) {
      stats_->copies_elided.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  std::memcpy(dst, src, bytes);
  if (stats_ != nullptr) {
    stats_->shm_copied_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
}

const void* ShmCollEngine::publish_contrib(int me, const void* p,
                                           std::size_t bytes, bool stage,
                                           std::uint64_t seq) {
  Slot& s = slots_[static_cast<std::size_t>(me)];
  const void* pub = p;
  if (stage) {
    void* dst;
    if (bytes <= kInlineBytes) {
      dst = s.inline_buf;
    } else {
      auto& scratch = priv_[static_cast<std::size_t>(me)].scratch;
      if (scratch.size() < bytes) scratch.resize(bytes);
      dst = scratch.data();
    }
    copy_bytes(dst, p, bytes);
    pub = dst;
  }
  s.ptr.store(pub, std::memory_order_relaxed);
  // The release store orders the payload (and the ptr) before the sequence
  // word; wait_seq's acquire load on the other side completes the edge.
  s.seq.store(seq, std::memory_order_release);
  return pub;
}

void ShmCollEngine::publish_result(int me, const void* p, std::uint64_t seq) {
  Slot& s = slots_[static_cast<std::size_t>(me)];
  s.acc_ptr.store(p, std::memory_order_relaxed);
  s.acc_seq.store(seq, std::memory_order_release);
}

void ShmCollEngine::publish_frag(ult::TaskContext& ctx,
                                 std::atomic<std::uint64_t>& w,
                                 std::uint64_t value) {
  // Explorer preemption point between producing a fragment and making it
  // visible — ScheduleExplorer sweeps fragment publication orders through
  // here (and a mutation that hoists the store above the production is
  // exactly the seeded bug the explorer test catches).
  ctx.sync_point("coll:frag-publish");
  w.store(value, std::memory_order_release);
}

void ShmCollEngine::count_frags(std::uint32_t nfrags) {
  // One batched bump per call instead of one atomic RMW per published
  // fragment: the stat sits on the producer's critical path.
  if (stats_ != nullptr && nfrags != 0) {
    stats_->shm_fragments.fetch_add(nfrags, std::memory_order_relaxed);
  }
}

void ShmCollEngine::drain_frags(ult::TaskContext& ctx,
                                const std::atomic<std::uint64_t>& w,
                                std::uint64_t base, const FragGeom& geom,
                                std::size_t elem_bytes, std::size_t bytes,
                                const std::atomic<const void*>& srcp,
                                std::byte* dst) {
  std::uint32_t f = 0;
  wait_seq(w, base + 1, ctx);
  // Only now is the producer's pointer store visible (it precedes the
  // first release in program order); loading it before the acquire would
  // read null or a stale registration from an earlier call.
  const std::byte* src =
      static_cast<const std::byte*>(srcp.load(std::memory_order_relaxed));
  while (f < geom.nfrags) {
    wait_seq(w, base + f + 1, ctx);
    // Everything the producer has published by now is consumed as one
    // contiguous span (the acquire above orders the payload reads).
    std::uint64_t avail = w.load(std::memory_order_acquire) - base;
    if (avail > geom.nfrags) avail = geom.nfrags;
    const std::size_t off =
        static_cast<std::size_t>(f) * geom.frag_elems * elem_bytes;
    const std::size_t end = std::min(
        bytes, static_cast<std::size_t>(avail) * geom.frag_elems * elem_bytes);
    copy_bytes(dst + off, src + off, end - off);
    f = static_cast<std::uint32_t>(avail);
  }
}

void ShmCollEngine::plan_barrier(Plan& plan, ult::TaskContext& ctx, int me) {
  const int levels = static_cast<int>(plan.size());
  int held = 0;  // levels [0, held) are claimed by this rank
  for (int l = 0; l < levels; ++l) {
    Level& lv = plan[l];
    Group& g = *lv.groups[static_cast<std::size_t>(
        lv.group_of[static_cast<std::size_t>(me)])];
    const bool top = (l + 1 == levels);
    const int expected = static_cast<int>(g.members.size());
    // Below the top the effective last arriver holds the episode open and
    // ascends; at the top it flips the sense, which is what releases the
    // whole tree (through the cascade below).
    const bool won =
        g.bar.arrive(ctx, [expected] { return expected; }, /*hold_last=*/!top);
    if (!won || top) break;
    held = l + 1;
  }
  // Release wide -> narrow. A rank freshly released from a level-l group
  // may immediately start the next collective's barrier and ascend; this
  // order guarantees every wider group on its path has already flipped, so
  // its new arrival never lands on a still-claimed episode (release()
  // would wipe it).
  for (int l = held - 1; l >= 0; --l) {
    Level& lv = plan[l];
    lv.groups[static_cast<std::size_t>(
                  lv.group_of[static_cast<std::size_t>(me)])]
        ->bar.release();
  }
}

std::byte* ShmCollEngine::plan_reduce(Plan& plan, ult::TaskContext& ctx,
                                      int me, const void* sendbuf,
                                      std::size_t count,
                                      std::size_t elem_bytes,
                                      const ReduceFn& fn, std::uint64_t seq,
                                      void* rank0_acc, bool stage) {
  const std::size_t bytes = count * elem_bytes;
  Level& leaf = plan[0];
  Group& g = *leaf.groups[static_cast<std::size_t>(
      leaf.group_of[static_cast<std::size_t>(me)])];
  if (me != g.members.front()) {
    // Non-leader: publish the contribution and leave; the caller's
    // completion barrier keeps sendbuf stable until the leader folded it.
    publish_contrib(me, sendbuf, bytes, stage, seq);
    return nullptr;
  }

  // Leaf leader: fold the group in ascending rank order, accumulator as
  // the left operand — the associative-only contract. Rank 0 may fold
  // straight into the caller's result buffer.
  std::byte* acc;
  if (rank0_acc != nullptr && me == 0) {
    acc = static_cast<std::byte*>(rank0_acc);
  } else {
    auto& scratch = priv_[static_cast<std::size_t>(me)].scratch;
    if (scratch.size() < bytes) scratch.resize(bytes);
    acc = scratch.data();
  }
  copy_bytes(acc, sendbuf, bytes);  // elided when acc == sendbuf
  for (std::size_t i = 1; i < g.members.size(); ++i) {
    const int r = g.members[i];
    const Slot& s = slots_[static_cast<std::size_t>(r)];
    wait_seq(s.seq, seq, ctx);
    fn(acc, peer_contrib(r), count);
  }

  // Ascend: at each wider level the cell's lowest rank keeps folding the
  // other representatives' partials (each a contiguous, adjacent rank
  // range, so ascending member order preserves global rank order); a
  // representative that is not its cell's leader publishes its partial
  // for the leader and stops.
  for (std::size_t l = 1; l < plan.size(); ++l) {
    Level& lv = plan[l];
    Group& cell = *lv.groups[static_cast<std::size_t>(
        lv.group_of[static_cast<std::size_t>(me)])];
    if (me != cell.members.front()) {
      publish_result(me, acc, seq);
      return nullptr;
    }
    for (std::size_t i = 1; i < cell.members.size(); ++i) {
      const int r = cell.members[i];
      const Slot& s = slots_[static_cast<std::size_t>(r)];
      wait_seq(s.acc_seq, seq, ctx);
      fn(acc, peer_result(r), count);
    }
  }
  // Only rank 0 can lead every level (leaders are group minima).
  publish_result(me, acc, seq);
  return acc;
}

std::uint32_t ShmCollEngine::yield_stride(const FragGeom& geom,
                                          std::size_t elem_bytes) const {
  if (!cfg_.pipeline_yield) return 0;
  constexpr std::size_t kYieldWindowBytes = 128 * 1024;
  const std::size_t frag_bytes =
      std::max<std::size_t>(geom.frag_elems * elem_bytes, 1);
  return static_cast<std::uint32_t>(
      std::max<std::size_t>(kYieldWindowBytes / frag_bytes, 1));
}

std::pair<std::size_t, std::size_t> ShmCollEngine::slice_of(
    int r, std::size_t count) const {
  const auto n = static_cast<std::size_t>(n_);
  const auto s = static_cast<std::size_t>(r);
  return {count * s / n, count * (s + 1) / n};
}

const std::byte* ShmCollEngine::reduce_slices(ult::TaskContext& ctx, int me,
                                              const void* sendbuf,
                                              std::size_t count,
                                              std::size_t elem_bytes,
                                              const ReduceFn& fn,
                                              std::uint64_t pub,
                                              std::byte* acc,
                                              const SliceHook* hook) {
  const FragGeom geom = begin_pipelined(count, elem_bytes);
  Slot& my = slots_[static_cast<std::size_t>(me)];
  // The whole send buffer is ready at entry: one publication covers it.
  my.ptr.store(sendbuf, std::memory_order_relaxed);
  publish_frag(ctx, my.frag, pub);
  const auto [lo, hi] = slice_of(me, count);
  if (acc == nullptr) {
    auto& scratch = priv_[static_cast<std::size_t>(me)].scratch;
    if (scratch.size() < (hi - lo) * elem_bytes) {
      scratch.resize((hi - lo) * elem_bytes);
    }
    acc = scratch.data();
  }
  for (int r = 0; r < n_; ++r) {
    wait_seq(slots_[static_cast<std::size_t>(r)].frag, pub, ctx);
  }
  // Ascending rank order with the accumulator as the left operand — the
  // associative-only contract — one fragment at a time, so the piece of
  // the accumulator being folded stays L1-resident across all n inputs.
  for (std::size_t e0 = lo; e0 < hi; e0 += geom.frag_elems) {
    const std::size_t ne = std::min(geom.frag_elems, hi - e0);
    std::byte* a = acc + (e0 - lo) * elem_bytes;
    const std::size_t off = e0 * elem_bytes;
    copy_bytes(a, static_cast<const std::byte*>(peer_contrib(0)) + off,
               ne * elem_bytes);
    for (int r = 1; r < n_; ++r) {
      fn(a, static_cast<const std::byte*>(peer_contrib(r)) + off, ne);
    }
  }
  if (hook != nullptr) (*hook)(acc, lo, hi);
  // This rank has now read its slice of every contribution: publishing
  // the folded slice also tells each peer it may overwrite that slice of
  // its own (possibly aliased) recvbuf.
  my.acc_ptr.store(acc, std::memory_order_relaxed);
  publish_frag(ctx, my.acc_frag, pub);
  count_frags(2);
  return acc;
}

void ShmCollEngine::gather_slices(ult::TaskContext& ctx, int me,
                                  std::size_t count, std::size_t elem_bytes,
                                  std::uint64_t pub, void* recvbuf) {
  std::byte* out = static_cast<std::byte*>(recvbuf);
  // Start at the own slice and rotate, so the ranks' reads spread over
  // different owners instead of all streaming rank 0's slice first.
  for (int k = 0; k < n_; ++k) {
    const int r = (me + k) % n_;
    const auto [lo, hi] = slice_of(r, count);
    if (lo == hi) continue;
    const Slot& s = slots_[static_cast<std::size_t>(r)];
    wait_seq(s.acc_frag, pub, ctx);
    copy_bytes(out + lo * elem_bytes, peer_result(r), (hi - lo) * elem_bytes);
  }
}

const std::byte* ShmCollEngine::publish_staged_pipelined(
    ult::TaskContext& ctx, int me, const void* sendbuf, std::size_t count,
    std::size_t elem_bytes) {
  const std::size_t bytes = count * elem_bytes;
  const FragGeom geom = frag_geom(count, elem_bytes);
  const std::uint32_t ystride = yield_stride(geom, elem_bytes);
  Registration& reg = resolve_registration(ctx, me, sendbuf, count, elem_bytes);
  std::byte* st = reg_block(reg, bytes);
  Slot& my = slots_[static_cast<std::size_t>(me)];
  my.ptr.store(st, std::memory_order_relaxed);
  const std::uint64_t base = priv_[static_cast<std::size_t>(me)].frag_base;
  const std::byte* src = static_cast<const std::byte*>(sendbuf);
  for (std::uint32_t f = 0; f < geom.nfrags; ++f) {
    const std::size_t off = static_cast<std::size_t>(f) * geom.frag_elems *
                            elem_bytes;
    const std::size_t fb = std::min(bytes - off, geom.frag_elems * elem_bytes);
    copy_bytes(st + off, src + off, fb);
    publish_frag(ctx, my.frag, base + f + 1);
    if (ystride != 0 && (f + 1) % ystride == 0) ctx.yield();
  }
  count_frags(geom.nfrags);
  return st;
}

void ShmCollEngine::barrier(ult::TaskContext& ctx, int me) {
  begin(me);
  plan_barrier(hier_, ctx, me);
}

void ShmCollEngine::bcast(ult::TaskContext& ctx, int me, void* buf,
                          std::size_t bytes, int root) {
  const std::uint64_t seq = begin(me);
  if (bytes == 0) return;
  const obs::CollAlg alg = select(bytes);
  if (alg == obs::CollAlg::shm_pipelined) {
    const FragGeom geom = begin_pipelined(bytes, 1);
    Priv& p = priv_[static_cast<std::size_t>(me)];
    const std::uint64_t base = p.frag_base;
    if (me == root) {
      // The source is fully available at entry: publish every fragment
      // with one release store. Readers copy fragment-sized pieces (each
      // wait satisfied instantly), keeping the working set cache-sized.
      Slot& s = slots_[static_cast<std::size_t>(me)];
      s.ptr.store(buf, std::memory_order_relaxed);
      publish_frag(ctx, s.frag, base + geom.nfrags);
      count_frags(geom.nfrags);
      p.acks_expected += static_cast<std::uint64_t>(n_ - 1);
      wait_seq(s.acks, p.acks_expected, ctx);
    } else {
      Slot& rs = slots_[static_cast<std::size_t>(root)];
      drain_frags(ctx, rs.frag, base, geom, 1, bytes, rs.ptr,
                  static_cast<std::byte*>(buf));
      rs.acks.fetch_add(1, std::memory_order_release);
    }
    p.frag_base += geom.nfrags;
    return;
  }
  const bool stage = alg == obs::CollAlg::shm_flat;
  if (me == root) {
    publish_contrib(me, buf, bytes, stage, seq);
    // Readers never wait for each other — the root alone absorbs the
    // completion by counting acknowledgements (cumulative across every
    // bcast this rank ever rooted; publication of the next one is gated
    // right here, so the counters stay aligned).
    Priv& p = priv_[static_cast<std::size_t>(me)];
    p.acks_expected += static_cast<std::uint64_t>(n_ - 1);
    wait_seq(slots_[static_cast<std::size_t>(me)].acks, p.acks_expected, ctx);
  } else {
    Slot& rs = slots_[static_cast<std::size_t>(root)];
    wait_seq(rs.seq, seq, ctx);
    copy_bytes(buf, peer_contrib(root), bytes);
    // Release RMW: the root's acquire of the final count sees every
    // reader's copy complete (release-sequence chain through the RMWs).
    rs.acks.fetch_add(1, std::memory_order_release);
  }
}

void ShmCollEngine::reduce(ult::TaskContext& ctx, int me, const void* sendbuf,
                           void* recvbuf, std::size_t count,
                           std::size_t elem_bytes, const ReduceFn& fn,
                           int root) {
  const std::uint64_t seq = begin(me);
  if (count == 0) return;
  const std::size_t bytes = count * elem_bytes;
  const obs::CollAlg alg = select(bytes);
  if (alg == obs::CollAlg::shm_pipelined) {
    const std::uint64_t pub = ++priv_[static_cast<std::size_t>(me)].frag_base;
    reduce_slices(ctx, me, sendbuf, count, elem_bytes, fn, pub);
    if (me == root) gather_slices(ctx, me, count, elem_bytes, pub, recvbuf);
    plan_barrier(hier_, ctx, me);
    return;
  }
  Plan& plan = plan_for(alg);
  void* rank0_acc = (me == 0 && root == 0) ? recvbuf : nullptr;
  plan_reduce(plan, ctx, me, sendbuf, count, elem_bytes, fn, seq, rank0_acc,
              alg == obs::CollAlg::shm_flat);
  if (me == root && root != 0) {
    const Slot& s0 = slots_[0];
    wait_seq(s0.acc_seq, seq, ctx);
    copy_bytes(recvbuf, peer_result(0), bytes);
  }
  plan_barrier(plan, ctx, me);
}

void ShmCollEngine::allreduce(ult::TaskContext& ctx, int me,
                              const void* sendbuf, void* recvbuf,
                              std::size_t count, std::size_t elem_bytes,
                              const ReduceFn& fn) {
  const std::uint64_t seq = begin(me);
  if (count == 0) return;
  const std::size_t bytes = count * elem_bytes;
  const obs::CollAlg alg = select(bytes);
  if (alg == obs::CollAlg::shm_pipelined) {
    // Every rank folds 1/n of the buffer, then copies the other n-1
    // folded slices straight out of their owners' scratch.
    const std::uint64_t pub = ++priv_[static_cast<std::size_t>(me)].frag_base;
    reduce_slices(ctx, me, sendbuf, count, elem_bytes, fn, pub);
    gather_slices(ctx, me, count, elem_bytes, pub, recvbuf);
    plan_barrier(hier_, ctx, me);
    return;
  }
  Plan& plan = plan_for(alg);
  void* rank0_acc = (me == 0) ? recvbuf : nullptr;
  plan_reduce(plan, ctx, me, sendbuf, count, elem_bytes, fn, seq, rank0_acc,
              alg == obs::CollAlg::shm_flat);
  if (me != 0) {
    // The acquire on rank 0's result sequence chains through every fold
    // that consumed this rank's sendbuf, so writing recvbuf here is safe
    // even when it aliases sendbuf.
    const Slot& s0 = slots_[0];
    wait_seq(s0.acc_seq, seq, ctx);
    copy_bytes(recvbuf, peer_result(0), bytes);
  }
  plan_barrier(plan, ctx, me);
}

void ShmCollEngine::allreduce_sliced(ult::TaskContext& ctx, int me,
                                     const void* sendbuf, void* recvbuf,
                                     std::size_t count,
                                     std::size_t elem_bytes,
                                     const ReduceFn& fn,
                                     const SliceHook& hook) {
  begin(me);
  if (count == 0) return;
  const std::uint64_t pub = ++priv_[static_cast<std::size_t>(me)].frag_base;
  // Without aliasing, this rank's slice of recvbuf is its own until the
  // completion barrier: peers write only their own recvbufs and read it
  // only after the publication, so it can be the accumulator (and
  // gather_slices then elides the own-slice copy).
  const std::size_t bytes = count * elem_bytes;
  const auto out = reinterpret_cast<std::uintptr_t>(recvbuf);
  const auto in = reinterpret_cast<std::uintptr_t>(sendbuf);
  std::byte* acc = nullptr;
  if (out + bytes <= in || in + bytes <= out) {
    acc = static_cast<std::byte*>(recvbuf) +
          slice_of(me, count).first * elem_bytes;
  }
  reduce_slices(ctx, me, sendbuf, count, elem_bytes, fn, pub, acc, &hook);
  gather_slices(ctx, me, count, elem_bytes, pub, recvbuf);
  plan_barrier(hier_, ctx, me);
}

void ShmCollEngine::allgather(ult::TaskContext& ctx, int me,
                              const void* sendbuf, std::size_t bytes,
                              void* recvbuf) {
  const std::uint64_t seq = begin(me);
  if (bytes == 0) return;
  const obs::CollAlg alg = select(bytes);
  if (alg == obs::CollAlg::shm_pipelined) {
    const FragGeom geom = begin_pipelined(bytes, 1);
    Priv& p = priv_[static_cast<std::size_t>(me)];
    const std::uint64_t base = p.frag_base;
    Slot& my = slots_[static_cast<std::size_t>(me)];
    my.ptr.store(sendbuf, std::memory_order_relaxed);
    publish_frag(ctx, my.frag, base + geom.nfrags);
    count_frags(geom.nfrags);
    std::byte* out = static_cast<std::byte*>(recvbuf);
    for (int r = 0; r < n_; ++r) {
      std::byte* dst = out + static_cast<std::size_t>(r) * bytes;
      if (r == me) {
        copy_bytes(dst, sendbuf, bytes);
        continue;
      }
      const Slot& s = slots_[static_cast<std::size_t>(r)];
      drain_frags(ctx, s.frag, base, geom, 1, bytes, s.ptr, dst);
    }
    p.frag_base += geom.nfrags;
    plan_barrier(hier_, ctx, me);
    return;
  }
  publish_contrib(me, sendbuf, bytes, alg == obs::CollAlg::shm_flat, seq);
  std::byte* out = static_cast<std::byte*>(recvbuf);
  for (int r = 0; r < n_; ++r) {
    if (r == me) {
      copy_bytes(out + static_cast<std::size_t>(me) * bytes, sendbuf, bytes);
      continue;
    }
    const Slot& s = slots_[static_cast<std::size_t>(r)];
    wait_seq(s.seq, seq, ctx);
    copy_bytes(out + static_cast<std::size_t>(r) * bytes, peer_contrib(r),
               bytes);
  }
  plan_barrier(plan_for(alg), ctx, me);
}

void ShmCollEngine::alltoall(ult::TaskContext& ctx, int me,
                             const void* sendbuf, std::size_t bytes_per_rank,
                             void* recvbuf) {
  const std::uint64_t seq = begin(me);
  if (bytes_per_rank == 0) return;
  const std::size_t total = bytes_per_rank * static_cast<std::size_t>(n_);
  // A rank's block reads are scattered (one slice per peer), so there is
  // no in-order fragment stream to pipeline: payloads above the small
  // threshold — pipelined-selected ones included — go monolithic
  // zero-copy.
  const obs::CollAlg alg = select(total);
  publish_contrib(me, sendbuf, total, alg == obs::CollAlg::shm_flat, seq);
  const std::byte* own = static_cast<const std::byte*>(sendbuf);
  std::byte* out = static_cast<std::byte*>(recvbuf);
  const std::size_t mine = static_cast<std::size_t>(me) * bytes_per_rank;
  for (int r = 0; r < n_; ++r) {
    const std::size_t block = static_cast<std::size_t>(r) * bytes_per_rank;
    if (r == me) {
      copy_bytes(out + mine, own + mine, bytes_per_rank);
      continue;
    }
    const Slot& s = slots_[static_cast<std::size_t>(r)];
    wait_seq(s.seq, seq, ctx);
    copy_bytes(out + block,
               static_cast<const std::byte*>(peer_contrib(r)) + mine,
               bytes_per_rank);
  }
  plan_barrier(plan_for(alg), ctx, me);
}

void ShmCollEngine::scan(ult::TaskContext& ctx, int me, const void* sendbuf,
                         void* recvbuf, std::size_t count,
                         std::size_t elem_bytes, const ReduceFn& fn) {
  const std::uint64_t seq = begin(me);
  if (count == 0) return;
  const std::size_t bytes = count * elem_bytes;
  const obs::CollAlg alg = select(bytes);
  if (alg == obs::CollAlg::shm_pipelined) {
    // Staged fragment-wise: each rank snapshots its send buffer into the
    // buffer's registration block, publishing fragments as they land, so
    // rank r can fold prefix fragment f while rank r+1's staging of
    // fragment f+1 is still in flight. Staging completes before any fold
    // writes recvbuf, which keeps in-place calls safe.
    const FragGeom geom = begin_pipelined(count, elem_bytes);
    const std::uint64_t base = priv_[static_cast<std::size_t>(me)].frag_base;
    publish_staged_pipelined(ctx, me, sendbuf, count, elem_bytes);
    if (me == 0) {
      copy_bytes(recvbuf, sendbuf, bytes);  // elided in-place
    } else {
      std::byte* out = static_cast<std::byte*>(recvbuf);
      for (std::uint32_t f = 0; f < geom.nfrags; ++f) {
        const std::size_t e0 = static_cast<std::size_t>(f) * geom.frag_elems;
        const std::size_t ne = std::min(geom.frag_elems, count - e0);
        const std::size_t off = e0 * elem_bytes;
        const Slot& s0 = slots_[0];
        wait_seq(s0.frag, base + f + 1, ctx);
        copy_bytes(out + off,
                   static_cast<const std::byte*>(peer_contrib(0)) + off,
                   ne * elem_bytes);
        for (int r = 1; r <= me; ++r) {
          const Slot& s = slots_[static_cast<std::size_t>(r)];
          wait_seq(s.frag, base + f + 1, ctx);
          fn(out + off,
             static_cast<const std::byte*>(peer_contrib(r)) + off, ne);
        }
      }
    }
    priv_[static_cast<std::size_t>(me)].frag_base += geom.nfrags;
    plan_barrier(hier_, ctx, me);
    return;
  }
  // Always staged: each rank folds into recvbuf, which MPI allows to alias
  // sendbuf — peers must read the pre-fold snapshot.
  publish_contrib(me, sendbuf, bytes, /*stage=*/true, seq);
  if (me == 0) {
    copy_bytes(recvbuf, sendbuf, bytes);  // elided in-place
  } else {
    const Slot& s0 = slots_[0];
    wait_seq(s0.seq, seq, ctx);
    copy_bytes(recvbuf, peer_contrib(0), bytes);
    for (int r = 1; r <= me; ++r) {
      const Slot& s = slots_[static_cast<std::size_t>(r)];
      wait_seq(s.seq, seq, ctx);
      fn(recvbuf, peer_contrib(r), count);
    }
  }
  plan_barrier(plan_for(alg), ctx, me);
}

void ShmCollEngine::exscan(ult::TaskContext& ctx, int me, const void* sendbuf,
                           void* recvbuf, std::size_t count,
                           std::size_t elem_bytes, const ReduceFn& fn) {
  const std::uint64_t seq = begin(me);
  if (count == 0) return;
  const std::size_t bytes = count * elem_bytes;
  const obs::CollAlg alg = select(bytes);
  if (alg == obs::CollAlg::shm_pipelined) {
    const FragGeom geom = begin_pipelined(count, elem_bytes);
    const std::uint64_t base = priv_[static_cast<std::size_t>(me)].frag_base;
    publish_staged_pipelined(ctx, me, sendbuf, count, elem_bytes);
    // Rank 0's recvbuf is undefined for exscan and stays untouched.
    if (me > 0) {
      std::byte* out = static_cast<std::byte*>(recvbuf);
      for (std::uint32_t f = 0; f < geom.nfrags; ++f) {
        const std::size_t e0 = static_cast<std::size_t>(f) * geom.frag_elems;
        const std::size_t ne = std::min(geom.frag_elems, count - e0);
        const std::size_t off = e0 * elem_bytes;
        const Slot& s0 = slots_[0];
        wait_seq(s0.frag, base + f + 1, ctx);
        copy_bytes(out + off,
                   static_cast<const std::byte*>(peer_contrib(0)) + off,
                   ne * elem_bytes);
        for (int r = 1; r < me; ++r) {
          const Slot& s = slots_[static_cast<std::size_t>(r)];
          wait_seq(s.frag, base + f + 1, ctx);
          fn(out + off,
             static_cast<const std::byte*>(peer_contrib(r)) + off, ne);
        }
      }
    }
    priv_[static_cast<std::size_t>(me)].frag_base += geom.nfrags;
    plan_barrier(hier_, ctx, me);
    return;
  }
  publish_contrib(me, sendbuf, bytes, /*stage=*/true, seq);
  // Rank 0's recvbuf is undefined for exscan and stays untouched.
  if (me > 0) {
    const Slot& s0 = slots_[0];
    wait_seq(s0.seq, seq, ctx);
    copy_bytes(recvbuf, peer_contrib(0), bytes);
    for (int r = 1; r < me; ++r) {
      const Slot& s = slots_[static_cast<std::size_t>(r)];
      wait_seq(s.seq, seq, ctx);
      fn(recvbuf, peer_contrib(r), count);
    }
  }
  plan_barrier(plan_for(alg), ctx, me);
}

void ShmCollEngine::reduce_scatter_block(ult::TaskContext& ctx, int me,
                                         const void* sendbuf, void* recvbuf,
                                         std::size_t count,
                                         std::size_t elem_bytes,
                                         const ReduceFn& fn) {
  const std::uint64_t seq = begin(me);
  if (count == 0) return;
  const std::size_t total = count * static_cast<std::size_t>(n_);
  const std::size_t block_bytes = count * elem_bytes;
  const obs::CollAlg alg = select(total * elem_bytes);
  if (alg == obs::CollAlg::shm_pipelined) {
    // Slice r of the total is exactly block r: each rank folds only the
    // block it keeps.
    const std::uint64_t pub = ++priv_[static_cast<std::size_t>(me)].frag_base;
    const std::byte* mine =
        reduce_slices(ctx, me, sendbuf, total, elem_bytes, fn, pub);
    // recvbuf may alias sendbuf, which peers read until they arrive at
    // the completion barrier; the block lands after it.
    plan_barrier(hier_, ctx, me);
    copy_bytes(recvbuf, mine, block_bytes);
    return;
  }
  Plan& plan = plan_for(alg);
  const std::byte* acc =
      plan_reduce(plan, ctx, me, sendbuf, total, elem_bytes, fn, seq,
                  /*rank0_acc=*/nullptr, alg == obs::CollAlg::shm_flat);
  if (acc == nullptr) {
    const Slot& s0 = slots_[0];
    wait_seq(s0.acc_seq, seq, ctx);
    acc = static_cast<const std::byte*>(peer_result(0));
  }
  copy_bytes(recvbuf, acc + static_cast<std::size_t>(me) * block_bytes,
             block_bytes);
  plan_barrier(plan, ctx, me);
}

}  // namespace hlsmpc::mpi
