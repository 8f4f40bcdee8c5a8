#include "mpi/recover.hpp"

#include <cstring>
#include <string>

namespace hlsmpc::mpi::recover {

namespace {

/// On-the-wire protocol message. Fixed-width fields, moved verbatim (both
/// transports connect processes of one build on one host).
struct WireMsg {
  std::uint32_t kind = 0;
  std::uint32_t attempt = 0;
  std::uint64_t mask = 0;
};
constexpr std::uint32_t kMask = 1;   ///< participant -> coordinator
constexpr std::uint32_t kFinal = 2;  ///< coordinator -> participants

constexpr std::uint64_t bit(int n) { return std::uint64_t{1} << n; }

/// Tag namespacing: (epoch, attempt, phase) so neither an earlier attempt
/// nor an earlier episode can satisfy this round's matches.
int shrink_tag(std::uint32_t epoch, int attempt, int phase) {
  return static_cast<int>(((epoch & 0x3ffu) << 20) |
                          ((static_cast<std::uint32_t>(attempt) & 0xffffu)
                           << 4) |
                          (static_cast<std::uint32_t>(phase) & 0xfu));
}

ShrinkDecision make_decision(std::uint64_t mask, int attempts,
                             const std::vector<int>& members) {
  ShrinkDecision d;
  d.dead_mask = mask;
  d.attempts = attempts;
  for (int n : members) {
    if ((mask & bit(n)) == 0) d.live.push_back(n);
  }
  return d;
}

}  // namespace

// ---------------------------------------------------------------------------
// FabricRecoveryChannel

bool FabricRecoveryChannel::send(ult::TaskContext& ctx, int dst_node,
                                 const void* buf, std::size_t bytes,
                                 int tag) {
  try {
    Request r = fabric_->isend(ctx, leader_ep(me_), leader_ep(dst_node),
                               leader_ep(dst_node), buf, bytes, tag,
                               kRecoveryContext);
    transport_wait(ctx, r);
    return true;
  } catch (const NodeDeadError&) {
    return false;
  } catch (const TransportError&) {
    // Transient budget exhausted towards this peer: persistent failure,
    // classify the peer dead (the escalation contract of retry.hpp).
    fabric_->kill_node(dst_node);
    return false;
  }
}

RecoveryChannel::RecvResult FabricRecoveryChannel::recv(
    ult::TaskContext& ctx, int src_node, void* buf, std::size_t capacity,
    int tag, std::chrono::milliseconds timeout) {
  try {
    Request r = fabric_->irecv(ctx, leader_ep(me_), buf, capacity,
                               leader_ep(src_node), tag, kRecoveryContext);
    if (!transport_wait_for(ctx, r, timeout)) {
      // Silent peer past the deadline: declare it dead (which sweeps the
      // posted receive) and consume the swept completion.
      fabric_->kill_node(src_node);
      try {
        transport_wait(ctx, r);
      } catch (const NodeDeadError&) {
      }
      return RecvResult::timeout;
    }
    return RecvResult::ok;
  } catch (const NodeDeadError&) {
    return RecvResult::dead;
  }
}

// ---------------------------------------------------------------------------
// TcpRecoveryChannel

bool TcpRecoveryChannel::send(ult::TaskContext& ctx, int dst_node,
                              const void* buf, std::size_t bytes, int tag) {
  try {
    Request r = tcp_->isend(ctx, /*src=*/tcp_->me(), dst_node, dst_node,
                            buf, bytes, tag, kRecoveryContext);
    transport_wait(ctx, r);
    return true;
  } catch (const NodeDeadError&) {
    return false;
  } catch (const TransportError&) {
    tcp_->declare_dead(dst_node);
    return false;
  }
}

RecoveryChannel::RecvResult TcpRecoveryChannel::recv(
    ult::TaskContext& ctx, int src_node, void* buf, std::size_t capacity,
    int tag, std::chrono::milliseconds timeout) {
  try {
    Request r = tcp_->irecv(ctx, tcp_->me(), buf, capacity, src_node, tag,
                            kRecoveryContext);
    if (!transport_wait_for(ctx, r, timeout)) {
      tcp_->declare_dead(src_node);
      try {
        transport_wait(ctx, r);
      } catch (const NodeDeadError&) {
      }
      return RecvResult::timeout;
    }
    return RecvResult::ok;
  } catch (const NodeDeadError&) {
    return RecvResult::dead;
  }
}

// ---------------------------------------------------------------------------
// shrink_agree

ShrinkDecision shrink_agree(ult::TaskContext& ctx, RecoveryChannel& ch,
                            int me, const std::vector<int>& members,
                            const ShrinkConfig& cfg) {
  if (members.empty() || members.back() >= 64) {
    throw MpiError("shrink: members must be non-empty node ids < 64");
  }
  bool me_member = false;
  for (int n : members) me_member = me_member || n == me;
  if (!me_member) {
    throw MpiError("shrink: node " + std::to_string(me) + " not a member");
  }

  auto suspect_mask = [&] {
    std::uint64_t m = 0;
    for (int n : members) {
      if (ch.node_dead(n)) m |= bit(n);
    }
    return m;
  };

  const int max_attempts = cfg.max_attempts > 0
                               ? cfg.max_attempts
                               : static_cast<int>(members.size()) + 1;
  std::uint64_t mask = 0;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // One explorable decision point per round: the explorer can land a
    // concurrent death before, between or after any round.
    ctx.sync_point("shrink:round");
    mask |= suspect_mask();
    if ((mask & bit(me)) != 0) {
      throw NodeDeadError(me, "shrink: node " + std::to_string(me) +
                                  " has been declared dead");
    }
    int coord = -1;
    for (int n : members) {
      if ((mask & bit(n)) == 0) {
        coord = n;
        break;
      }
    }
    // me is not suspect, so a coordinator always exists.

    if (coord == me) {
      std::uint64_t uni = mask;
      for (int p : members) {
        if (p == me || (mask & bit(p)) != 0) continue;
        WireMsg in;
        const auto r =
            ch.recv(ctx, p, &in, sizeof(in),
                    shrink_tag(cfg.epoch, attempt, kMask), cfg.round_timeout);
        if (r == RecoveryChannel::RecvResult::ok && in.kind == kMask) {
          uni |= in.mask;
        } else {
          // Dead or silent: both exclude the peer. recv's timeout path
          // already declared it; declare again for the dead path learned
          // via a third party's flag (idempotent).
          ch.declare_dead(p);
          uni |= bit(p);
        }
      }
      // Fold in deaths that landed while gathering.
      uni |= suspect_mask();
      WireMsg fin{kFinal, static_cast<std::uint32_t>(attempt), uni};
      for (int p : members) {
        if (p == me || (uni & bit(p)) != 0) continue;
        // A failed dissemination send means the peer just died; it is not
        // in this verdict's mask, so the next episode (triggered the
        // moment a survivor touches it) will exclude it.
        (void)ch.send(ctx, p, &fin, sizeof(fin),
                      shrink_tag(cfg.epoch, attempt, kFinal));
      }
      return make_decision(uni, attempt, members);
    }

    // Participant: report suspects, await the verdict; a failed
    // coordinator becomes a suspect and the next round elects its
    // successor.
    WireMsg m{kMask, static_cast<std::uint32_t>(attempt), mask};
    if (!ch.send(ctx, coord, &m, sizeof(m),
                 shrink_tag(cfg.epoch, attempt, kMask))) {
      mask |= bit(coord);
      continue;
    }
    WireMsg fin;
    const auto r =
        ch.recv(ctx, coord, &fin, sizeof(fin),
                shrink_tag(cfg.epoch, attempt, kFinal), cfg.round_timeout);
    if (r == RecoveryChannel::RecvResult::ok && fin.kind == kFinal) {
      return make_decision(fin.mask, attempt, members);
    }
    ch.declare_dead(coord);
    mask |= bit(coord);
  }
  throw MpiError("shrink: agreement did not converge within " +
                 std::to_string(max_attempts) + " attempts");
}

// ---------------------------------------------------------------------------
// survivor_allreduce

namespace {

void channel_sendrecv_fail(const char* what, int node) {
  throw MpiError(std::string("survivor_allreduce: ") + what + " node " +
                 std::to_string(node) + " failed");
}

}  // namespace

void survivor_allreduce(ult::TaskContext& ctx, RecoveryChannel& ch,
                        int me_node, const std::vector<int>& live, void* buf,
                        std::size_t count, std::size_t elem_bytes,
                        const ReduceFn& fn, int tag,
                        std::chrono::milliseconds timeout) {
  const int npos = static_cast<int>(live.size());
  int pos = -1;
  for (int i = 0; i < npos; ++i) {
    if (live[static_cast<std::size_t>(i)] == me_node) pos = i;
  }
  if (pos < 0) {
    throw MpiError("survivor_allreduce: node " + std::to_string(me_node) +
                   " not in the live set");
  }
  const std::size_t bytes = count * elem_bytes;
  std::vector<std::byte> partner(bytes);

  // Binomial fold to live[0] in TRUE position order: ascending position is
  // ascending node id, so the lower member of each pair holds the fold of
  // a contiguous survivor range ending right before its partner's range
  // and applies the partner's partial as the RIGHT operand — the exact
  // ascending fold, associativity only.
  for (int step = 1; step < npos; step <<= 1) {
    if ((pos & step) != 0) {
      const int dst = live[static_cast<std::size_t>(pos - step)];
      if (!ch.send(ctx, dst, buf, bytes, tag)) {
        channel_sendrecv_fail("send to", dst);
      }
      break;
    }
    if (pos + step < npos) {
      const int src = live[static_cast<std::size_t>(pos + step)];
      if (ch.recv(ctx, src, partner.data(), bytes, tag, timeout) !=
          RecoveryChannel::RecvResult::ok) {
        channel_sendrecv_fail("recv from", src);
      }
      fn(buf, partner.data(), count);
    }
  }

  // Binomial bcast of the fold from position 0 (no rotation needed).
  int step = 1;
  while (step < npos) {
    if ((pos & step) != 0) {
      const int src = live[static_cast<std::size_t>(pos - step)];
      if (ch.recv(ctx, src, buf, bytes, tag + 1, timeout) !=
          RecoveryChannel::RecvResult::ok) {
        channel_sendrecv_fail("recv from", src);
      }
      break;
    }
    step <<= 1;
  }
  step >>= 1;
  while (step > 0) {
    if (pos + step < npos) {
      const int dst = live[static_cast<std::size_t>(pos + step)];
      if (!ch.send(ctx, dst, buf, bytes, tag + 1)) {
        channel_sendrecv_fail("send to", dst);
      }
    }
    step >>= 1;
  }
}

}  // namespace hlsmpc::mpi::recover
